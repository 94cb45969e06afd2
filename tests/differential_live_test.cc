// The live-update differential sweep: seeded random (graph, update-stream,
// query-batch) scenarios through a LiveQueryEngine — async futures,
// completion queues, and sync batches interleaved with ApplyUpdates
// snapshot swaps — each outcome checked bit-identically against the naive
// enumerator on the graph version the engine pinned. Registered under the
// `differential` ctest label; TKC_DIFF_SCENARIOS overrides the per-thread-
// count scenario count (CI sanitizer legs shrink it).

#include "tests/differential_harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <set>
#include <span>
#include <vector>

#include "datasets/generators.h"
#include "serve/snapshot.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "vct/index_io.h"

namespace tkc {
namespace {

// Release sweeps 70 scenarios per thread count (210 total); sanitizer /
// debug builds are ~20x slower per scenario, so default smaller there and
// let CI pin the count explicitly either way.
#ifdef NDEBUG
constexpr uint32_t kDefaultScenarios = 70;
#else
constexpr uint32_t kDefaultScenarios = 12;
#endif

class DifferentialLiveTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialLiveTest, EngineMatchesOracleAcrossSwaps) {
  const int threads = GetParam();
  const uint32_t scenarios = DifferentialScenarioCount(kDefaultScenarios);
  uint64_t total_queries = 0;
  uint64_t total_swaps = 0;
  uint64_t multi_version = 0;
  for (uint32_t s = 0; s < scenarios; ++s) {
    DifferentialConfig config;
    config.seed = 1000 + s;
    config.threads = threads;
    DifferentialReport report = RunDifferentialScenario(config);
    ASSERT_EQ(report.failed_updates, 0u) << report.first_mismatch;
    ASSERT_EQ(report.mismatches, 0u) << report.first_mismatch;
    EXPECT_GT(report.queries_checked, 0u);
    total_queries += report.queries_checked;
    total_swaps += report.swaps;
    if (report.versions_served > 1) ++multi_version;
  }
  // The sweep only means something if swaps actually happened and batches
  // genuinely landed on different graph versions.
  EXPECT_GT(total_swaps, 0u);
  if (scenarios >= 10) EXPECT_GT(multi_version, 0u);
  RecordProperty("queries_checked", static_cast<int>(total_queries));
}

INSTANTIATE_TEST_SUITE_P(Threads, DifferentialLiveTest,
                         ::testing::Values(1, 2, 8));

// The incremental-maintenance sweep: every swap's delta-aware index
// (pointer-reused slices included) must be bit-identical, slice by slice,
// to a from-scratch PhcIndex::Build on the swapped-in graph — the
// soundness contract of PhcIndex::Rebuild's reuse proofs. Runs at 1/2/8
// threads like the main sweep (same `differential` ctest label).
class DifferentialIncrementalTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialIncrementalTest, RebuiltIndexBitIdenticalPerSlice) {
  const int threads = GetParam();
  // Each swap costs an extra from-scratch index build, so sweep fewer
  // scenarios than the main differential test by default; CI's Release leg
  // widens this sweep independently via TKC_DIFF_INCREMENTAL_SCENARIOS.
  const uint32_t scenarios = DifferentialScenarioCount(
      std::max(4u, kDefaultScenarios / 2), "TKC_DIFF_INCREMENTAL_SCENARIOS");
  uint64_t total_slices = 0;
  uint64_t total_tables = 0;
  uint64_t total_reused = 0;
  uint64_t total_rebuilt = 0;
  uint64_t total_suffix = 0;
  uint64_t total_rows_reused = 0;
  for (uint32_t s = 0; s < scenarios; ++s) {
    DifferentialConfig config;
    config.seed = 5000 + s;
    config.threads = threads;
    config.incremental = true;
    DifferentialReport report = RunDifferentialScenario(config);
    ASSERT_EQ(report.failed_updates, 0u) << report.first_mismatch;
    ASSERT_EQ(report.mismatches, 0u) << report.first_mismatch;
    EXPECT_GT(report.swaps, 0u);
    total_slices += report.slices_checked;
    total_tables += report.tables_checked;
    total_reused += report.slices_reused;
    total_rebuilt += report.slices_rebuilt;
    total_suffix += report.suffix_rebuilds;
    total_rows_reused += report.rows_reused;
  }
  EXPECT_GT(total_slices, 0u);
  EXPECT_GT(total_tables, 0u);
  EXPECT_GT(total_rebuilt, 0u);  // random deltas always dirty small k
  if (scenarios >= 10) {
    // Across a reasonable sweep, some delta lands late enough in some
    // timeline that a dirty slice is maintained by suffix stitching (and
    // carries rows) rather than rebuilt whole.
    EXPECT_GT(total_suffix, 0u);
    EXPECT_GT(total_rows_reused, 0u);
  }
  RecordProperty("slices_checked", static_cast<int>(total_slices));
  RecordProperty("tables_checked", static_cast<int>(total_tables));
  RecordProperty("slices_reused", static_cast<int>(total_reused));
  RecordProperty("slices_rebuilt", static_cast<int>(total_rebuilt));
  RecordProperty("suffix_rebuilds", static_cast<int>(total_suffix));
}

INSTANTIATE_TEST_SUITE_P(Threads, DifferentialIncrementalTest,
                         ::testing::Values(1, 2, 8));

// A scenario with updates but no concurrency knobs left to chance: the
// single-threaded sweep above plus this pinned-pin check give a readable
// failure before the big sweep is consulted.
TEST(LiveQueryEngineTest, InFlightBatchFinishesAgainstItsPinnedSnapshot) {
  TemporalGraph g = GenerateUniformRandom(24, 300, 16, 7);
  ThreadPool pool(4);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.engine.build_index = true;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Pin version 0 via an async submission, then swap twice.
  std::vector<Query> queries;
  for (Timestamp ts = 1; ts + 3 <= g.num_timestamps(); ts += 2) {
    queries.push_back(Query{2, Window{ts, static_cast<Timestamp>(ts + 3)}});
  }
  std::future<BatchResult> inflight = (*live)->SubmitAsync(queries);
  std::vector<RawTemporalEdge> extra = {{1, 2, 99}, {2, 3, 99}, {1, 3, 99}};
  ASSERT_TRUE((*live)->ApplyUpdates(extra).get().ok());
  ASSERT_TRUE((*live)->ApplyUpdates({{4, 5, 100}}).get().ok());
  EXPECT_EQ((*live)->version(), 2u);

  BatchResult early = inflight.get();
  // The batch may have pinned any version current at its submission —
  // here submission preceded both updates, so it must be version 0, and
  // its outcomes must match the naive oracle on the *original* graph.
  EXPECT_EQ(early.snapshot_version, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    RunOutcome oracle = RunAlgorithm(AlgorithmKind::kNaive, g, queries[i]);
    ASSERT_TRUE(early.outcomes[i].status.ok());
    EXPECT_EQ(early.outcomes[i].num_cores, oracle.num_cores) << i;
    EXPECT_EQ(early.outcomes[i].result_size_edges, oracle.result_size_edges)
        << i;
  }

  // A post-swap batch answers against the new graph version.
  BatchResult late = (*live)->ServeBatch(queries);
  EXPECT_EQ(late.snapshot_version, 2u);
  auto updated = g.AppendEdges(extra);
  ASSERT_TRUE(updated.ok());
  auto updated2 =
      updated->graph.AppendEdges(std::vector<RawTemporalEdge>{{4, 5, 100}});
  ASSERT_TRUE(updated2.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    RunOutcome oracle =
        RunAlgorithm(AlgorithmKind::kNaive, updated2->graph, queries[i]);
    EXPECT_EQ(late.outcomes[i].num_cores, oracle.num_cores) << i;
    EXPECT_EQ(late.outcomes[i].result_size_edges, oracle.result_size_edges)
        << i;
  }
}

// A preloaded admission index describes the *initial* graph only. After a
// swap, the rebuilt snapshot must build a fresh index — reusing the
// preloaded one would keep "proving" ranges empty that the new edges just
// populated (or keep reading a pointer the caller may have freed).
TEST(LiveQueryEngineTest, RebuiltSnapshotDoesNotReusePreloadedIndex) {
  TemporalGraph g = GenerateUniformRandom(20, 200, 12, 5);
  auto index = PhcIndex::Build(g, g.FullRange(), PhcBuildOptions{});
  ASSERT_TRUE(index.ok());
  auto loaded = DeserializePhcIndex(SerializePhcIndex(*index));
  ASSERT_TRUE(loaded.ok());

  LiveEngineOptions options;
  options.engine.preloaded_index = &*loaded;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Updates that keep the time span and vertex pool unchanged (existing
  // raw times, existing vertices) — the case a stale index would silently
  // survive validation for.
  std::vector<RawTemporalEdge> extra;
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) {
      extra.push_back({u, v, g.RawTimestamp(3)});
      extra.push_back({u, v, g.RawTimestamp(4)});
    }
  }
  ASSERT_TRUE((*live)->ApplyUpdates(extra).get().ok());

  auto updated = g.AppendEdges(extra);
  ASSERT_TRUE(updated.ok());
  ASSERT_EQ(updated->graph.num_timestamps(), g.num_timestamps());

  // High-k queries over the densified window: the old index would reject
  // them as provably empty; the oracle on the updated graph disagrees.
  std::vector<Query> queries;
  for (uint32_t k = 2; k <= 11; ++k) {
    queries.push_back(Query{k, Window{3, 4}});
  }
  BatchResult result = (*live)->ServeBatch(queries);
  EXPECT_EQ(result.snapshot_version, 1u);
  for (size_t i = 0; i < queries.size(); ++i) {
    RunOutcome oracle =
        RunAlgorithm(AlgorithmKind::kNaive, updated->graph, queries[i]);
    ASSERT_TRUE(result.outcomes[i].status.ok()) << i;
    EXPECT_EQ(result.outcomes[i].num_cores, oracle.num_cores) << "k=" << i + 2;
    EXPECT_EQ(result.outcomes[i].result_size_edges, oracle.result_size_edges)
        << "k=" << i + 2;
  }
}

TEST(LiveQueryEngineTest, PausedBatchesCoalesceIntoOneSwap) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  LiveEngineOptions options;
  options.engine.build_index = true;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());

  // Pause before anything is queued: the three batches below accumulate
  // and must apply as ONE rebuild cycle on resume.
  (*live)->PauseUpdates();
  std::vector<std::vector<RawTemporalEdge>> batches = {
      {{0, 1, 500}}, {{2, 3, 501}}, {{4, 5, 502}, {5, 6, 503}}};
  std::vector<std::future<Status>> futures;
  for (const auto& batch : batches) {
    futures.push_back((*live)->ApplyUpdates(batch));
  }
  (*live)->ResumeUpdates();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());

  LiveStats stats = (*live)->stats();
  EXPECT_EQ(stats.swaps, 1u);                      // one rebuild cycle
  EXPECT_EQ(stats.update.batches_coalesced, 2u);   // two rode along
  EXPECT_EQ(stats.edges_applied, 4u);
  EXPECT_EQ((*live)->version(), 3u);  // version still counts batches

  // The coalesced result equals the batch-at-a-time chain replay.
  TemporalGraph expected = g;
  for (const auto& batch : batches) {
    auto next = expected.AppendEdges(batch);
    ASSERT_TRUE(next.ok());
    expected = std::move(next->graph);
  }
  const TemporalGraph& actual = (*live)->snapshot()->graph();
  ASSERT_EQ(actual.num_edges(), expected.num_edges());
  for (EdgeId e = 0; e < actual.num_edges(); ++e) {
    EXPECT_EQ(actual.edge(e), expected.edge(e));
  }
}

TEST(LiveQueryEngineTest, CoalescedCycleFailureCountsEveryDroppedBatch) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  LiveEngineOptions options;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());

  // One poisoned batch (sentinel endpoint) coalesced with two innocent
  // ones: the whole cycle fails, every batch reports the error, and
  // failed_updates counts all three — including the batches that were
  // only dropped because they were coalesced with the poisoned one.
  (*live)->PauseUpdates();
  std::vector<std::future<Status>> futures;
  futures.push_back((*live)->ApplyUpdates({{0, 1, 500}}));
  futures.push_back((*live)->ApplyUpdates({{kInvalidVertex, 2, 501}}));
  futures.push_back((*live)->ApplyUpdates({{3, 4, 502}}));
  (*live)->ResumeUpdates();
  for (auto& f : futures) {
    Status status = f.get();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }

  LiveStats stats = (*live)->stats();
  EXPECT_EQ(stats.failed_updates, 3u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ((*live)->version(), 0u);  // previous snapshot stays current
  // No double-counting: the riders count once as failed and once as
  // coalesced — never as applied — so the accounting invariants hold.
  EXPECT_EQ(stats.update.batches_submitted, 3u);
  EXPECT_EQ(stats.update.batches_applied, 0u);
  EXPECT_EQ(stats.update.batches_coalesced, 2u);
  EXPECT_EQ(stats.update.batches_applied + stats.failed_updates,
            stats.update.batches_submitted);

  // The engine still serves, and a later clean update still applies.
  BatchResult result = (*live)->ServeBatch({Query{2, g.FullRange()}});
  EXPECT_TRUE(result.outcomes[0].status.ok());
  EXPECT_TRUE((*live)->ApplyUpdates({{0, 1, 500}}).get().ok());
  EXPECT_EQ((*live)->version(), 1u);
  EXPECT_EQ((*live)->stats().failed_updates, 3u);
  EXPECT_EQ((*live)->stats().update.batches_applied, 1u);
  EXPECT_EQ((*live)->stats().update.batches_submitted, 4u);
}

TEST(LiveQueryEngineTest, SmallDeltaReusesSlicesAndCarriesCache) {
  // A dense core plus two pendant vertices: appending an edge between the
  // pendants (existing timestamp, existing vertices) has max_core_bound
  // bounded by the pendant degree, so every k-slice above it must carry
  // across the swap by pointer — and so must the cached outcomes of
  // high-k queries.
  TemporalGraph dense = GenerateUniformRandom(20, 400, 12, 13);
  const VertexId p = dense.num_vertices();
  const VertexId q = p + 1;
  auto with_pendants = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(with_pendants.ok());
  TemporalGraph base = std::move(with_pendants->graph);

  ThreadPool pool(4);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.engine.build_index = true;
  options.engine.cache_capacity = 64;
  auto live = LiveQueryEngine::Create(base, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  std::shared_ptr<const GraphSnapshot> before = (*live)->snapshot();
  const PhcIndex* old_index = before->engine().index();
  ASSERT_NE(old_index, nullptr);
  const uint32_t max_k = old_index->max_k();
  ASSERT_GT(max_k, 3u) << "test graph too sparse to exercise reuse";

  // Warm the cache across the k spectrum.
  std::vector<Query> queries;
  for (uint32_t k = 2; k <= max_k; ++k) {
    queries.push_back(Query{k, base.FullRange()});
  }
  BatchResult warm = (*live)->ServeBatch(queries);
  for (const RunOutcome& out : warm.outcomes) {
    ASSERT_TRUE(out.status.ok());
  }

  // The small delta: one pendant-to-pendant edge at an existing raw time.
  ASSERT_TRUE(
      (*live)
          ->ApplyUpdates(std::vector<RawTemporalEdge>{
              {p, q, base.RawTimestamp(3)}})
          .get()
          .ok());

  std::shared_ptr<const GraphSnapshot> after = (*live)->snapshot();
  const PhcIndex* new_index = after->engine().index();
  ASSERT_NE(new_index, nullptr);
  ASSERT_EQ(new_index->max_k(), max_k);  // a pendant edge raises no kmax

  UpdateStats update = (*live)->update_stats();
  EXPECT_GT(update.slices_reused, 0u);
  EXPECT_LT(update.slices_rebuilt, max_k);  // strictly fewer than max_k
  // Every slice is accounted once: carried whole, maintained by suffix
  // stitching, or rebuilt from scratch.
  EXPECT_EQ(update.slices_reused + update.suffix_rebuilds +
                update.slices_rebuilt,
            max_k);
  EXPECT_EQ(update.incremental_swaps, 1u);
  EXPECT_GT(update.cache_entries_carried, 0u);
  // Reused slices alone already carry rows; the reused k>2 slices hold
  // most of the index.
  EXPECT_GT(update.rows_reused, 0u);
  EXPECT_LE(update.rows_reused, update.rows_total);
  // A table lives with its slice: exactly the pointer-shared slices carry
  // theirs across the swap.
  EXPECT_EQ(update.emergence_tables_carried, update.slices_reused);

  const GraphSnapshot::SwapStats& swap = after->swap_stats();
  EXPECT_EQ(swap.delta_edges, 1u);
  EXPECT_EQ(swap.slices_reused, update.slices_reused);
  EXPECT_EQ(swap.slices_rebuilt, update.slices_rebuilt);
  EXPECT_EQ(swap.suffix_rebuilds, update.suffix_rebuilds);
  EXPECT_EQ(swap.rows_reused, update.rows_reused);
  EXPECT_EQ(swap.cache_entries_carried, update.cache_entries_carried);

  // Reused slices are shared by pointer; every slice — reused or rebuilt —
  // is bit-identical to a from-scratch build on the new graph.
  PhcBuildOptions build;
  build.pool = &pool;
  auto fresh = PhcIndex::Build(after->graph(), after->graph().FullRange(),
                               build);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->max_k(), max_k);
  EXPECT_TRUE(*new_index == *fresh);
  uint32_t shared = 0;
  for (uint32_t k = 1; k <= max_k; ++k) {
    if (new_index->SliceShared(k) == old_index->SliceShared(k)) ++shared;
  }
  EXPECT_EQ(shared, update.slices_reused);

  // Carried cache entries answer without re-executing. The delta's core
  // bound is 2 (both pendants have distinct degree 2), so exactly the
  // k > 2 entries carry: repeating those queries must be pure cache hits
  // on the *new* snapshot's engine.
  std::vector<Query> carried_queries;
  for (uint32_t k = 3; k <= max_k; ++k) {
    carried_queries.push_back(Query{k, base.FullRange()});
  }
  const ServeStats engine_before = after->engine().stats();
  BatchResult repeat = (*live)->ServeBatch(carried_queries);
  EXPECT_EQ(repeat.snapshot_version, 1u);
  const ServeStats engine_after = after->engine().stats();
  EXPECT_EQ(engine_after.cache_hits,
            engine_before.cache_hits + carried_queries.size());
  EXPECT_EQ(engine_after.executed, engine_before.executed)
      << "a carried-over query re-executed";
  // And they answer correctly for the updated graph.
  for (size_t i = 0; i < carried_queries.size(); ++i) {
    RunOutcome oracle = RunAlgorithm(AlgorithmKind::kNaive, after->graph(),
                                     carried_queries[i]);
    EXPECT_EQ(repeat.outcomes[i].num_cores, oracle.num_cores) << i;
    EXPECT_EQ(repeat.outcomes[i].result_size_edges, oracle.result_size_edges)
        << i;
  }
}

TEST(LiveQueryEngineTest, CacheCarriesAcrossSwapWithoutAdmissionIndex) {
  // The carry-over proof needs only the EdgeDelta, not an admission index:
  // a cache-only engine (the default config) must also start warm after a
  // clean small delta.
  TemporalGraph dense = GenerateUniformRandom(20, 400, 12, 13);
  const VertexId p = dense.num_vertices();
  const VertexId q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(based.ok());
  TemporalGraph base = std::move(based->graph);

  LiveEngineOptions options;
  options.engine.build_index = false;
  options.engine.cache_capacity = 64;
  auto live = LiveQueryEngine::Create(base, options);
  ASSERT_TRUE(live.ok());

  const Query high_k{6, base.FullRange()};
  ASSERT_TRUE((*live)->ServeBatch({high_k}).outcomes[0].status.ok());

  ASSERT_TRUE((*live)
                  ->ApplyUpdates(std::vector<RawTemporalEdge>{
                      {p, q, base.RawTimestamp(3)}})  // core bound 2
                  .get()
                  .ok());
  std::shared_ptr<const GraphSnapshot> after = (*live)->snapshot();
  EXPECT_EQ(after->swap_stats().slices_reused, 0u);  // no index to reuse
  EXPECT_GT(after->swap_stats().cache_entries_carried, 0u);

  const ServeStats engine_before = after->engine().stats();
  BatchResult repeat = (*live)->ServeBatch({high_k});
  EXPECT_TRUE(repeat.outcomes[0].status.ok());
  const ServeStats engine_after = after->engine().stats();
  EXPECT_EQ(engine_after.cache_hits, engine_before.cache_hits + 1);
  EXPECT_EQ(engine_after.executed, engine_before.executed);
}

TEST(LiveQueryEngineTest, LateDeltaMaintainsDirtySlicesBySuffix) {
  // A delta at the *last* existing timestamp dirties slices k <= bound,
  // but every core time below that timestamp is provably pinned — so the
  // dirty slices must be maintained by suffix stitching (rows carried),
  // not rebuilt whole, and the result must still be bit-identical to a
  // from-scratch build, emergence tables included.
  TemporalGraph dense = GenerateUniformRandom(20, 400, 12, 13);
  const VertexId p = dense.num_vertices();
  const VertexId q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(based.ok());
  TemporalGraph base = std::move(based->graph);
  const Timestamp last = base.num_timestamps();

  ThreadPool pool(4);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.engine.build_index = true;
  auto live = LiveQueryEngine::Create(base, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  ASSERT_TRUE((*live)
                  ->ApplyUpdates(std::vector<RawTemporalEdge>{
                      {p, q, base.RawTimestamp(last)}})
                  .get()
                  .ok());

  UpdateStats update = (*live)->update_stats();
  EXPECT_GT(update.suffix_rebuilds, 0u);
  // Only the delta-dirtied slices (k <= bound 2) may need any rebuilding,
  // and at least one of them is maintained partially. (A slice can still
  // rebuild whole — e.g. k=1 when some vertex's first edge sits at the
  // last timestamp, making its entire start band dirty.)
  EXPECT_LE(update.suffix_rebuilds + update.slices_rebuilt, 2u);
  EXPECT_GT(update.rows_reused, 0u);
  EXPECT_EQ(update.incremental_swaps, 1u);
  // Suffix-maintained slices carry most of their rows: the delta sits at
  // the last timestamp, so only the final start band recomputes.
  EXPECT_GT(update.rows_reused * 2, update.rows_total);

  std::shared_ptr<const GraphSnapshot> after = (*live)->snapshot();
  const PhcIndex* incremental = after->engine().index();
  ASSERT_NE(incremental, nullptr);
  PhcBuildOptions build;
  build.pool = &pool;
  auto fresh =
      PhcIndex::Build(after->graph(), after->graph().FullRange(), build);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(*incremental == *fresh);
  ASSERT_EQ(incremental->max_k(), fresh->max_k());
  for (uint32_t k = 1; k <= fresh->max_k(); ++k) {
    const std::span<const Timestamp> expected = fresh->EmergenceTable(k);
    const std::span<const Timestamp> table = incremental->EmergenceTable(k);
    ASSERT_TRUE(std::equal(table.begin(), table.end(), expected.begin(),
                           expected.end()))
        << "emergence table differs at k=" << k;
  }
}

TEST(LiveQueryEngineTest, ShutdownWhilePausedFailsQueuedBatches) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  LiveEngineOptions options;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());

  // Hold the gate, queue three batches, then shut down: the batches were
  // promised "not yet" — shutdown must release them with a failure, not
  // apply them behind the caller's back and not hang the updater.
  (*live)->PauseUpdates();
  std::vector<std::future<Status>> futures;
  futures.push_back((*live)->ApplyUpdates({{0, 1, 500}}));
  futures.push_back((*live)->ApplyUpdates({{2, 3, 501}}));
  futures.push_back((*live)->ApplyUpdates({{4, 5, 502}}));
  (*live)->Shutdown();
  for (auto& f : futures) {
    Status status = f.get();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  }

  LiveStats stats = (*live)->stats();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.failed_updates, 3u);
  EXPECT_EQ(stats.update.batches_submitted, 3u);
  EXPECT_EQ(stats.update.batches_applied, 0u);
  EXPECT_EQ((*live)->version(), 0u);

  // Post-shutdown submissions fail fast (and never reach the counters);
  // serving stays available; a second Shutdown is a no-op.
  Status late = (*live)->ApplyUpdates({{0, 1, 503}}).get();
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*live)->stats().update.batches_submitted, 3u);
  BatchResult result = (*live)->ServeBatch({Query{2, g.FullRange()}});
  EXPECT_TRUE(result.outcomes[0].status.ok());
  (*live)->Shutdown();
}

TEST(LiveQueryEngineTest, DestructionWhilePausedReleasesQueuedBatches) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  std::vector<std::future<Status>> futures;
  {
    auto live = LiveQueryEngine::Create(g, LiveEngineOptions{});
    ASSERT_TRUE(live.ok());
    (*live)->PauseUpdates();
    futures.push_back((*live)->ApplyUpdates({{0, 1, 500}}));
    futures.push_back((*live)->ApplyUpdates({{2, 3, 501}}));
  }  // destroyed with the gate held: batches must resolve, with an error
  for (auto& f : futures) {
    Status status = f.get();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(LiveQueryEngineTest, ShutdownWithoutPauseAppliesQueuedBatches) {
  // The contrast case: shutting down with the gate open still applies
  // whatever was queued — only a held pause converts queued into failed.
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  auto live = LiveQueryEngine::Create(g, LiveEngineOptions{});
  ASSERT_TRUE(live.ok());
  std::vector<std::future<Status>> futures;
  futures.push_back((*live)->ApplyUpdates({{0, 1, 500}}));
  futures.push_back((*live)->ApplyUpdates({{2, 3, 501}}));
  (*live)->Shutdown();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ((*live)->version(), 2u);
  LiveStats stats = (*live)->stats();
  EXPECT_EQ(stats.update.batches_applied, 2u);
  EXPECT_EQ(stats.update.batches_submitted, 2u);
  EXPECT_EQ(stats.failed_updates, 0u);
}

TEST(LiveQueryEngineTest, TransientRebuildFailureRetriesAndRecovers) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  LiveEngineOptions options;
  options.max_rebuild_attempts = 3;
  options.retry_backoff_initial_ms = 2.0;
  options.retry_backoff_max_ms = 10.0;
  options.retry_jitter_seed = 17;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ((*live)->health(), HealthState::kHealthy);

  // The first two rebuild attempts fail with an injected transient error;
  // the third lands. The batch's future must report success — the retries
  // are invisible to the submitter except through the counters.
  ScopedFault fault(kFaultRebuildFail, FaultSchedule{1.0, 7, 2});
  ASSERT_TRUE((*live)->ApplyUpdates({{0, 1, 500}}).get().ok());

  EXPECT_EQ((*live)->health(), HealthState::kHealthy);
  EXPECT_EQ((*live)->version(), 1u);
  UpdateStats update = (*live)->update_stats();
  EXPECT_EQ(update.rebuild_retries, 2u);
  // Two backoff waits of >= 1ms each sit inside the degraded window.
  EXPECT_GE(update.degraded_ms, 1u);
  EXPECT_EQ((*live)->stats().swaps, 1u);
  EXPECT_EQ((*live)->stats().failed_updates, 0u);
  BatchResult result = (*live)->ServeBatch({Query{2, g.FullRange()}});
  EXPECT_TRUE(result.outcomes[0].status.ok());
  EXPECT_EQ(result.snapshot_version, 1u);
}

TEST(LiveQueryEngineTest, ExhaustedRetriesFailTheBatchAndMarkUnhealthy) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  LiveEngineOptions options;
  options.max_rebuild_attempts = 2;
  options.retry_backoff_initial_ms = 0.5;
  options.retry_backoff_max_ms = 2.0;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());

  {
    // Every attempt fails: the cycle exhausts its retries, the batch's
    // future carries the transient error, and health degrades to
    // kUpdatesFailed — while the old snapshot keeps serving.
    ScopedFault fault(kFaultRebuildFail, FaultSchedule{1.0, 7, 0});
    Status status = (*live)->ApplyUpdates({{0, 1, 500}}).get();
    EXPECT_EQ(status.code(), StatusCode::kInternal);
  }
  EXPECT_EQ((*live)->health(), HealthState::kUpdatesFailed);
  EXPECT_EQ((*live)->version(), 0u);
  UpdateStats update = (*live)->update_stats();
  EXPECT_EQ(update.rebuild_retries, 1u);  // attempts - 1
  EXPECT_EQ((*live)->stats().failed_updates, 1u);
  BatchResult result = (*live)->ServeBatch({Query{2, g.FullRange()}});
  EXPECT_TRUE(result.outcomes[0].status.ok());
  EXPECT_EQ(result.snapshot_version, 0u);  // last good snapshot

  // The fault is gone (scope exit): the next update lands and the engine
  // reports healthy again — kUpdatesFailed is not sticky.
  ASSERT_TRUE((*live)->ApplyUpdates({{2, 3, 501}}).get().ok());
  EXPECT_EQ((*live)->health(), HealthState::kHealthy);
  EXPECT_EQ((*live)->version(), 1u);
}

TEST(LiveQueryEngineTest, DeterministicFailureDoesNotRetry) {
  TemporalGraph g = GenerateUniformRandom(16, 120, 10, 9);
  LiveEngineOptions options;
  options.max_rebuild_attempts = 5;  // would retry if misclassified
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());

  // A poisoned batch fails validation deterministically: retrying cannot
  // help, so the cycle must fail immediately — zero retries — and a caller
  // input error must not flip the engine's health.
  Status status = (*live)->ApplyUpdates({{kInvalidVertex, 2, 500}}).get();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*live)->update_stats().rebuild_retries, 0u);
  EXPECT_EQ((*live)->health(), HealthState::kHealthy);
  ASSERT_TRUE((*live)->ApplyUpdates({{0, 1, 500}}).get().ok());
  EXPECT_EQ((*live)->version(), 1u);
}

TEST(LiveQueryEngineTest, FailedUpdateKeepsServingOldSnapshot) {
  TemporalGraph g = GenerateUniformRandom(10, 60, 8, 3);
  LiveEngineOptions options;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok());
  // A batch of nothing but self-loops dedups/drops to an edgeless builder
  // only if the base graph were empty — here it rebuilds fine; instead use
  // an empty update to prove a no-op rebuild still advances the version.
  ASSERT_TRUE((*live)->ApplyUpdates({}).get().ok());
  EXPECT_EQ((*live)->version(), 1u);
  EXPECT_EQ((*live)->stats().swaps, 1u);
  BatchResult result = (*live)->ServeBatch({Query{2, g.FullRange()}});
  EXPECT_TRUE(result.outcomes[0].status.ok());
}

// The request queue, its bound and its shed contest belong to the live
// engine, not to a snapshot: a batch queued before a swap still holds the
// one slot and still enters the contest against batches pinned after it.
TEST(LiveQueryEngineTest, QueueBoundAndShedContestSpanSwaps) {
  TemporalGraph g = GenerateUniformRandom(30, 400, 20, 5);
  const std::vector<Query> queries = {Query{2, g.FullRange()},
                                      Query{3, Window{2, 12}}};
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.async_queue_capacity = 1;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  std::shared_ptr<const GraphSnapshot> v0 = (*live)->snapshot();

  // Wedge both serving workers: nothing dispatches until `release`.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  std::future<BatchResult> a =
      (*live)->SubmitAsync(queries, Deadline::AfterSeconds(5.0));
  // The updater and the update pool are not wedged, so the swap lands.
  ASSERT_TRUE((*live)
                  ->ApplyUpdates({{0, 1, g.RawTimestamp(g.num_timestamps())}})
                  .get()
                  .ok());
  std::shared_ptr<const GraphSnapshot> v1 = (*live)->snapshot();
  ASSERT_EQ(v1->version(), 1u);

  // B (more remaining deadline) evicts A from the one slot although A
  // pinned the previous snapshot, so A is settled before B's Submit
  // returns; C (least remaining of all) then loses its own contest.
  std::future<BatchResult> b =
      (*live)->SubmitAsync(queries, Deadline::AfterSeconds(50.0));
  ASSERT_EQ(a.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  std::future<BatchResult> c =
      (*live)->SubmitAsync(queries, Deadline::AfterSeconds(0.5));
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  BatchResult shed_a = a.get();
  BatchResult shed_c = c.get();
  EXPECT_EQ(shed_a.snapshot_version, 0u);
  EXPECT_EQ(shed_c.snapshot_version, 1u);
  for (const BatchResult* shed : {&shed_a, &shed_c}) {
    ASSERT_EQ(shed->outcomes.size(), queries.size());
    for (const RunOutcome& out : shed->outcomes) {
      EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
    }
  }

  release.set_value();
  BatchResult served = b.get();
  EXPECT_EQ(served.snapshot_version, 1u);
  ASSERT_EQ(served.outcomes.size(), queries.size());
  for (const RunOutcome& out : served.outcomes) {
    EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  }

  // Each batch is counted on the engine of the snapshot it pinned.
  const ServeStats s0 = v0->engine().stats();
  const ServeStats s1 = v1->engine().stats();
  EXPECT_EQ(s0.async_batches, 1u);
  EXPECT_EQ(s0.batches_shed, 1u);
  EXPECT_EQ(s1.async_batches, 2u);
  EXPECT_EQ(s1.batches_shed, 1u);
}

// DrainAsync covers batches pinned to a superseded snapshot: once it
// returns, no delivery into a caller's completion queue is outstanding,
// whatever version the batch pinned.
TEST(LiveQueryEngineTest, DrainAsyncCoversBatchesPinnedBeforeASwap) {
  TemporalGraph g = GenerateUniformRandom(30, 400, 20, 5);
  const std::vector<Query> queries = {Query{2, g.FullRange()},
                                      Query{3, Window{2, 12}}};
  ThreadPool pool(2);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  auto live = LiveQueryEngine::Create(g, options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  BatchCompletionQueue cq;

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  (*live)->Submit({queries, Deadline()}, cq.CompletionFor(0));
  ASSERT_TRUE((*live)
                  ->ApplyUpdates({{0, 1, g.RawTimestamp(g.num_timestamps())}})
                  .get()
                  .ok());
  (*live)->Submit({queries, Deadline()}, cq.CompletionFor(1));
  release.set_value();
  (*live)->DrainAsync();
  cq.Shutdown();

  std::set<uint64_t> tags;
  std::set<uint64_t> versions;
  BatchResult result;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(cq.Next(&result)) << i;
    tags.insert(result.tag);
    versions.insert(result.snapshot_version);
  }
  EXPECT_FALSE(cq.Next(&result));
  EXPECT_EQ(tags, (std::set<uint64_t>{0, 1}));
  EXPECT_EQ(versions, (std::set<uint64_t>{0, 1}));
}

}  // namespace
}  // namespace tkc
