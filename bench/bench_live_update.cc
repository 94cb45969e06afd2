// Live-update serving benchmark (serve/snapshot.h): one synthetic graph, a
// fixed stream of edge-update batches, and an async query workload driven
// through a LiveQueryEngine at 1/2/8 threads. Reports, per thread count:
//
//   * queries_idle           — async batch throughput with no updates;
//   * queries_during_updates — the same stream submitted while ApplyUpdates
//     snapshot swaps run continuously: the ratio to idle qps is the cost
//     queries pay for concurrent rebuilds (they never block on one — every
//     batch finishes against the snapshot it pinned at submission);
//   * updates                — snapshot-rebuild throughput: edges/sec
//     through ApplyUpdates with per-swap rebuild/swap latency;
//   * small_delta_updates    — incremental-maintenance throughput: a
//     stream of small, localized deltas (a few edges between low-degree
//     sandbox vertices at existing timestamps, well under 1% of |E|)
//     where the delta-aware rebuild must reuse most k-slices by pointer
//     and maintain the dirty ones partially. Reports updates/sec plus
//     slices_reused / slices_suffix / slices_rebuilt, the slice-level
//     reuse_ratio (reused over reused+rebuilt-whole; a suffix-maintained
//     slice is not a whole rebuild) and the row-level row_reuse_ratio
//     (rows_reused / rows_total), and self-verifies that (a) reuse
//     actually happened and (b) the final incrementally-maintained index
//     is bit-identical, slice by slice, to a from-scratch build on the
//     final graph;
//   * suffix_delta_updates   — partial slice maintenance throughput: one
//     pendant-pair edge per event at the *second-to-last* existing
//     timestamp (deliberately not the last: max_time < range.end rules
//     out the whole-rebuild branch by construction, which the self-check
//     below depends on), so the dirty slices' recompute band collapses
//     to the trailing starts and nearly every VCT row carries over.
//     Self-verifies that suffix maintenance fired (no dirty slice
//     rebuilt whole), that rows were reused, and that the final index
//     *and its per-k emergence tables* are bit-identical to from-scratch
//     builds;
//   * overload (threads >= 2 only — a 1-thread pool dispatches inline, so
//     its queue cannot saturate) — open-loop deadline'd submissions
//     against a 2-slot request queue: reports shed_ratio and the p99
//     time-to-verdict, and self-verifies that submission never blocks
//     past the caller's deadline, that every batch gets exactly one
//     verdict (served / shed / expired), and that every non-explicit
//     outcome is bit-identical to its pinned version's reference.
//
// Ratios emitted into the JSON guard their zero-denominator cases
// explicitly (0.0 plus the raw counts and an incremental_swaps field
// instead of a NaN that would slip through the regression gate;
// tools/check_bench_regression.py additionally hard-fails on any
// non-finite metric).
//
// Self-verifying: every served outcome is compared bit-identically (result
// fields) against a direct RunAlgorithm reference on the exact graph
// version the engine reports having pinned, and every batch must complete
// on the version that was current when it was submitted. Any violation
// fails the run and writes "identical": false into the JSON
// (tools/check_bench_regression.py treats that as an unconditional
// failure). Output lands in BENCH_live_update.json alongside the other
// perf-tracking benches.
//
// Flags (env fallbacks TKC_<UPPER>): --vertices --edges --timestamps --seed
// --unique (queries per batch) --rounds (batches per pass) --events (update
// batches) --update-edges (edges per update batch) --reps (best-of)
// --threads=N (adds one thread count) --out. --smoke / TKC_BENCH_SMOKE=1
// shrinks everything to CI scale.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "datasets/generators.h"
#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tkc {
namespace {

bool SameResults(const RunOutcome& a, const RunOutcome& b) {
  return a.status.ok() == b.status.ok() && a.num_cores == b.num_cores &&
         a.result_size_edges == b.result_size_edges &&
         a.vct_size == b.vct_size && a.ecs_size == b.ecs_size;
}

}  // namespace
}  // namespace tkc

int main(int argc, char** argv) {
  using namespace tkc;
  using namespace tkc::bench;

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "flag error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  const bool smoke = SmokeModeRequested(flags);
  const uint32_t vertices =
      static_cast<uint32_t>(flags.GetInt("vertices", smoke ? 120 : 170));
  const uint32_t edges =
      static_cast<uint32_t>(flags.GetInt("edges", smoke ? 2600 : 5200));
  const uint32_t timestamps =
      static_cast<uint32_t>(flags.GetInt("timestamps", smoke ? 48 : 80));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t unique =
      static_cast<uint32_t>(flags.GetInt("unique", smoke ? 24 : 40));
  const uint32_t rounds =
      static_cast<uint32_t>(flags.GetInt("rounds", smoke ? 6 : 10));
  const uint32_t events =
      static_cast<uint32_t>(flags.GetInt("events", smoke ? 4 : 6));
  const uint32_t update_edges =
      static_cast<uint32_t>(flags.GetInt("update-edges", smoke ? 40 : 80));
  const int reps = static_cast<int>(flags.GetInt("reps", smoke ? 1 : 3));
  const std::string out_path =
      flags.GetString("out", "BENCH_live_update.json");
  // Overload phase: open-loop submission count and the per-batch deadline.
  const double overload_deadline_seconds = 0.05;

  SyntheticSpec graph_spec;
  graph_spec.name = "live";
  graph_spec.num_vertices = vertices;
  graph_spec.num_edges = edges;
  graph_spec.num_timestamps = timestamps;
  graph_spec.burstiness = 0.3;
  graph_spec.seed = seed;
  TemporalGraph base = GenerateSynthetic(graph_spec);

  // Sandbox pendants for the small-delta phase: kSandbox extra vertices,
  // each anchored to one dense vertex at an existing raw time. Their
  // distinct degree stays tiny (anchor + one partner) no matter how many
  // small-delta events fire, so every slice above that bound must carry
  // across swaps by pointer. The suffix-delta phase gets its own pendant
  // pool — one fresh pair per event, so each event appends a
  // never-seen-before edge (dedup can't collapse it) whose endpoints keep
  // distinct degree 2.
  constexpr uint32_t kSandbox = 8;
  const uint32_t suffix_pendants = 2 * events;
  {
    std::vector<RawTemporalEdge> anchors;
    for (uint32_t i = 0; i < kSandbox + suffix_pendants; ++i) {
      anchors.push_back({vertices + i, i % vertices,
                         base.RawTimestamp(1 + (i % base.num_timestamps()))});
    }
    auto with_sandbox = base.AppendEdges(anchors);
    if (!with_sandbox.ok()) {
      std::fprintf(stderr, "sandbox: %s\n",
                   with_sandbox.status().ToString().c_str());
      return 1;
    }
    base = std::move(with_sandbox->graph);
  }
  GraphStats stats = ComputeGraphStats(base);

  // Fixed update stream (same for every thread count / phase): uniform
  // edges over the existing vertex pool, raw times across and past the
  // current span so swaps shift compaction like a real ingest would.
  Rng rng(seed * 7919);
  std::vector<std::vector<RawTemporalEdge>> update_stream(events);
  for (auto& batch : update_stream) {
    for (uint32_t i = 0; i < update_edges; ++i) {
      RawTemporalEdge e;
      e.u = static_cast<VertexId>(rng.NextBounded(vertices));
      e.v = static_cast<VertexId>(rng.NextBounded(vertices));
      e.raw_time = rng.NextInRange(1, timestamps + timestamps / 4 + 1);
      batch.push_back(e);
    }
  }

  // Small-delta stream: per event, four sandbox-pair edges at one existing
  // raw timestamp (distinct per event, so dedup never collapses them).
  // Each sandbox vertex only ever sees its anchor and its fixed partner:
  // distinct degree 2, so the delta's max_core_bound is 2 every event and
  // every slice with k > 2 must be reused.
  const uint32_t delta_events = events;
  std::vector<std::vector<RawTemporalEdge>> small_delta_stream(delta_events);
  for (uint32_t e = 0; e < delta_events; ++e) {
    const uint64_t raw =
        base.RawTimestamp(1 + (e * 5) % base.num_timestamps());
    for (uint32_t i = 0; i < kSandbox / 2; ++i) {
      small_delta_stream[e].push_back(
          {vertices + i, vertices + kSandbox / 2 + i, raw});
    }
  }

  // Suffix-delta stream: per event, ONE pendant-pair edge at the
  // second-to-last existing raw timestamp. The delta's time extent sits at
  // the very end of the timeline, so every core time below it is provably
  // pinned and the dirty slices (k <= 2) must be maintained by recomputing
  // only the trailing start band — never rebuilt whole (a whole rebuild
  // needs the extent to touch the final timestamp *and* a band opening at
  // the first start, which this stream rules out by construction).
  const uint64_t late_raw =
      base.RawTimestamp(std::max<Timestamp>(1, base.num_timestamps() - 1));
  std::vector<std::vector<RawTemporalEdge>> suffix_delta_stream(delta_events);
  for (uint32_t e = 0; e < delta_events; ++e) {
    suffix_delta_stream[e].push_back(
        {vertices + kSandbox + 2 * e, vertices + kSandbox + 2 * e + 1,
         late_raw});
  }

  // The version chain every phase's results are verified against.
  std::vector<TemporalGraph> chain;
  chain.push_back(base);
  for (const auto& batch : update_stream) {
    auto next = chain.back().AppendEdges(batch);
    if (!next.ok()) {
      std::fprintf(stderr, "chain: %s\n", next.status().ToString().c_str());
      return 1;
    }
    chain.push_back(std::move(next->graph));
  }

  std::vector<Query> queries;
  {
    WorkloadSpec spec;
    spec.k_fraction = 0.30;
    spec.range_fraction = 0.10;
    spec.num_queries = unique;
    spec.seed = seed;
    auto generated = GenerateQueries(base, stats.kmax, spec);
    if (!generated.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    queries = std::move(generated).value();
  }

  // Per-(version, query) references, computed on demand: the Enum walk
  // (RunAlgorithm(kEnum)) run directly on the chain graph.
  std::map<std::pair<uint64_t, size_t>, RunOutcome> references;
  auto reference_of = [&](uint64_t version, size_t qi) -> const RunOutcome& {
    auto key = std::make_pair(version, qi);
    auto it = references.find(key);
    if (it == references.end()) {
      it = references
               .emplace(key, RunAlgorithm(AlgorithmKind::kEnum,
                                          chain[version], queries[qi]))
               .first;
    }
    return it->second;
  };

  std::printf(
      "=== Live update: %u vertices, %u edges, %u timestamps, kmax=%u; %zu "
      "queries x%u rounds, %u update batches x%u edges, best of %d ===\n",
      vertices, edges, timestamps, stats.kmax, queries.size(), rounds, events,
      update_edges, reps);

  std::vector<int> thread_counts = {1, 2, 8};
  if (flags.Has("threads")) {
    thread_counts.push_back(
        std::max(1, static_cast<int>(flags.GetInt("threads", 1))));
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  TextTable table;
  table.SetHeader({"Threads", "idle q/s", "live q/s", "live/idle",
                   "updates/s", "rebuild s", "delta u/s", "reuse",
                   "sfx u/s", "row reuse", "shed", "p99 ms", "identical"});
  JsonRecords records;
  bool all_identical = true;
  double idle_qps_1thread = 0;
  double live_qps_1thread = 0;

  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    LiveEngineOptions options;
    options.engine.pool = &pool;
    options.engine.build_index = true;
    options.engine.cache_capacity = 0;  // every round must execute

    // Awaiting completions belongs in the timed region (completion *is*
    // what the qps measures); the oracle comparison does not — it runs
    // after the timer is read, so the lazily filled reference memo (shared
    // across reps and thread counts) never skews a measurement.
    auto collect =
        [&](std::vector<std::pair<std::future<BatchResult>, uint64_t>>*
                pending) {
          std::vector<std::pair<BatchResult, uint64_t>> results;
          results.reserve(pending->size());
          for (auto& [future, version_at_submission] : *pending) {
            results.emplace_back(future.get(), version_at_submission);
          }
          pending->clear();
          return results;
        };
    auto verify = [&](const std::vector<std::pair<BatchResult, uint64_t>>&
                          results,
                      bool* identical) {
      for (const auto& [result, version_at_submission] : results) {
        // Pin consistency: a batch answers against a version no older than
        // the one current at submission (a swap may land between the
        // version read and the pin, so newer is legal) and never beyond
        // the applied stream.
        *identical = *identical &&
                     result.snapshot_version >= version_at_submission &&
                     result.snapshot_version <= update_stream.size();
        for (size_t qi = 0; qi < result.outcomes.size(); ++qi) {
          *identical =
              *identical &&
              SameResults(reference_of(result.snapshot_version, qi),
                          result.outcomes[qi]);
        }
      }
    };

    double best_idle = -1, best_live = -1, best_updates = -1;
    double best_small = -1, best_suffix = -1;
    uint64_t small_slices_reused = 0, small_slices_rebuilt = 0;
    uint64_t small_slices_suffix = 0, small_rows_reused = 0;
    uint64_t small_rows_total = 0, small_incremental_swaps = 0;
    uint64_t sfx_slices_reused = 0, sfx_slices_rebuilt = 0;
    uint64_t sfx_slices_suffix = 0, sfx_rows_reused = 0, sfx_rows_total = 0;
    uint64_t sfx_incremental_swaps = 0, sfx_emergence_carried = 0;
    double rebuild_seconds = 0, swap_seconds = 0;
    double best_overload_p99 = -1, ov_max_submit = 0;
    uint64_t ov_submitted = 0, ov_shed = 0, ov_expired = 0, ov_served = 0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      // --- queries_idle: no swaps in flight. --------------------------
      {
        auto live = LiveQueryEngine::Create(base, options);
        if (!live.ok()) {
          std::fprintf(stderr, "engine: %s\n",
                       live.status().ToString().c_str());
          return 1;
        }
        std::vector<std::pair<std::future<BatchResult>, uint64_t>> pending;
        WallTimer timer;
        for (uint32_t r = 0; r < rounds; ++r) {
          pending.emplace_back((*live)->SubmitAsync(queries),
                               (*live)->version());
        }
        auto results = collect(&pending);
        double seconds = timer.ElapsedSeconds();
        verify(results, &identical);
        if (best_idle < 0 || seconds < best_idle) best_idle = seconds;
      }

      // --- queries_during_updates: swaps run underneath. --------------
      {
        auto live = LiveQueryEngine::Create(base, options);
        if (!live.ok()) return 1;
        std::vector<std::future<Status>> swaps;
        std::vector<std::pair<std::future<BatchResult>, uint64_t>> pending;
        WallTimer timer;
        size_t next_event = 0;
        const uint32_t per_event =
            std::max(1u, rounds / std::max(1u, events));
        for (uint32_t r = 0; r < rounds; ++r) {
          pending.emplace_back((*live)->SubmitAsync(queries),
                               (*live)->version());
          if ((r + 1) % per_event == 0 &&
              next_event < update_stream.size()) {
            swaps.push_back(
                (*live)->ApplyUpdates(update_stream[next_event]));
            ++next_event;
          }
        }
        auto results = collect(&pending);
        double seconds = timer.ElapsedSeconds();  // queries only: swaps may
                                                  // still be running
        verify(results, &identical);
        if (best_live < 0 || seconds < best_live) best_live = seconds;
        while (next_event < update_stream.size()) {
          swaps.push_back((*live)->ApplyUpdates(update_stream[next_event]));
          ++next_event;
        }
        for (auto& swap : swaps) identical = identical && swap.get().ok();
        identical = identical && (*live)->version() == update_stream.size();
      }

      // --- updates: serial swap throughput. ---------------------------
      {
        auto live = LiveQueryEngine::Create(base, options);
        if (!live.ok()) return 1;
        WallTimer timer;
        for (const auto& batch : update_stream) {
          identical = identical && (*live)->ApplyUpdates(batch).get().ok();
        }
        double seconds = timer.ElapsedSeconds();
        if (best_updates < 0 || seconds < best_updates) {
          best_updates = seconds;
          LiveStats live_stats = (*live)->stats();
          rebuild_seconds = live_stats.last_rebuild_seconds;
          swap_seconds = live_stats.last_swap_seconds;
        }
      }

      // --- small_delta_updates: incremental-maintenance throughput. ---
      {
        auto live = LiveQueryEngine::Create(base, options);
        if (!live.ok()) return 1;
        WallTimer timer;
        for (const auto& batch : small_delta_stream) {
          identical = identical && (*live)->ApplyUpdates(batch).get().ok();
        }
        double seconds = timer.ElapsedSeconds();
        const UpdateStats ustats = (*live)->update_stats();
        // Reuse must actually happen: a small localized delta rebuilds
        // strictly fewer slices than max_k every swap.
        identical = identical && ustats.slices_reused > 0 &&
                    ustats.incremental_swaps == (*live)->stats().swaps;
        // And the incrementally maintained index must be bit-identical to
        // a from-scratch build on the final graph.
        auto snap = (*live)->snapshot();
        const PhcIndex* incremental = snap->engine().index();
        PhcBuildOptions fresh_opts;
        fresh_opts.pool = &pool;
        auto fresh = PhcIndex::Build(snap->graph(),
                                     snap->graph().FullRange(), fresh_opts);
        identical = identical && fresh.ok() && incremental != nullptr &&
                    *incremental == *fresh;
        if (best_small < 0 || seconds < best_small) {
          best_small = seconds;
          small_slices_reused = ustats.slices_reused;
          small_slices_rebuilt = ustats.slices_rebuilt;
          small_slices_suffix = ustats.suffix_rebuilds;
          small_rows_reused = ustats.rows_reused;
          small_rows_total = ustats.rows_total;
          small_incremental_swaps = ustats.incremental_swaps;
        }
      }

      // --- suffix_delta_updates: partial slice maintenance. ------------
      {
        auto live = LiveQueryEngine::Create(base, options);
        if (!live.ok()) return 1;
        WallTimer timer;
        for (const auto& batch : suffix_delta_stream) {
          identical = identical && (*live)->ApplyUpdates(batch).get().ok();
        }
        double seconds = timer.ElapsedSeconds();
        const UpdateStats ustats = (*live)->update_stats();
        // Partial maintenance must actually fire: end-of-timeline pendant
        // deltas leave no dirty slice to rebuild whole, and the trailing
        // band is tiny so rows genuinely carry.
        identical = identical && ustats.suffix_rebuilds > 0 &&
                    ustats.slices_rebuilt == 0 && ustats.rows_reused > 0 &&
                    ustats.incremental_swaps == (*live)->stats().swaps;
        // The maintained index — suffix-stitched slices, pointer-reused
        // slices, and each slice's emergence table — must be bit-identical
        // to from-scratch state on the final graph.
        auto snap = (*live)->snapshot();
        const PhcIndex* incremental = snap->engine().index();
        PhcBuildOptions fresh_opts;
        fresh_opts.pool = &pool;
        auto fresh = PhcIndex::Build(snap->graph(),
                                     snap->graph().FullRange(), fresh_opts);
        identical = identical && fresh.ok() && incremental != nullptr &&
                    *incremental == *fresh;
        if (identical) {  // equal indexes: the same max_k
          for (uint32_t k = 1; k <= fresh->max_k(); ++k) {
            const std::span<const Timestamp> expected =
                fresh->EmergenceTable(k);
            const std::span<const Timestamp> table =
                incremental->EmergenceTable(k);
            identical = identical &&
                        std::equal(table.begin(), table.end(),
                                   expected.begin(), expected.end());
          }
        }
        if (best_suffix < 0 || seconds < best_suffix) {
          best_suffix = seconds;
          sfx_slices_reused = ustats.slices_reused;
          sfx_slices_rebuilt = ustats.slices_rebuilt;
          sfx_slices_suffix = ustats.suffix_rebuilds;
          sfx_rows_reused = ustats.rows_reused;
          sfx_rows_total = ustats.rows_total;
          sfx_incremental_swaps = ustats.incremental_swaps;
          sfx_emergence_carried = ustats.emergence_tables_carried;
        }
      }

      // --- overload: open-loop deadline'd submissions, tiny queue. ------
      if (threads >= 2) {
        LiveEngineOptions overload_options = options;
        overload_options.engine.async_queue_capacity = 2;
        auto live = LiveQueryEngine::Create(base, overload_options);
        if (!live.ok()) return 1;
        const uint32_t submissions = rounds * 4;
        // Sized so Deliver never blocks: the consumer below is for
        // timestamping, not backpressure.
        BatchCompletionQueue cq(submissions + 1);
        std::vector<double> submit_at(submissions, -1.0);
        std::vector<double> verdict_at(submissions, -1.0);
        std::vector<BatchResult> delivered(submissions);
        WallTimer timer;
        std::thread consumer([&] {
          for (uint32_t i = 0; i < submissions; ++i) {
            BatchResult result;
            if (!cq.Next(&result)) break;
            verdict_at[result.tag] = timer.ElapsedSeconds();
            delivered[result.tag] = std::move(result);
          }
        });
        double max_submit = 0;
        for (uint32_t i = 0; i < submissions; ++i) {
          submit_at[i] = timer.ElapsedSeconds();
          (*live)->Submit(
              {queries, Deadline::AfterSeconds(overload_deadline_seconds)},
              cq.CompletionFor(i));
          max_submit =
              std::max(max_submit, timer.ElapsedSeconds() - submit_at[i]);
        }
        consumer.join();  // every batch delivers exactly one verdict

        uint64_t shed = 0, expired = 0, served = 0;
        bool all_delivered = true;
        std::vector<double> verdicts;
        verdicts.reserve(submissions);
        for (uint32_t i = 0; i < submissions; ++i) {
          if (verdict_at[i] < 0) {
            all_delivered = false;
            continue;
          }
          verdicts.push_back(verdict_at[i] - submit_at[i]);
          const BatchResult& result = delivered[i];
          bool any_real = false, any_shed = false;
          for (size_t qi = 0; qi < result.outcomes.size(); ++qi) {
            const StatusCode code = result.outcomes[qi].status.code();
            if (code == StatusCode::kResourceExhausted) {
              any_shed = true;
              continue;
            }
            if (code == StatusCode::kTimeout) continue;
            any_real = true;
            // No updates run in this phase, so every real answer pins
            // version 0 and must match the base-graph reference.
            identical = identical &&
                        SameResults(reference_of(result.snapshot_version, qi),
                                    result.outcomes[qi]);
          }
          if (any_real) {
            ++served;
          } else if (any_shed) {
            ++shed;
          } else {
            ++expired;
          }
        }
        identical = identical && all_delivered;
        // The shed policy's core guarantee: a saturated queue answers
        // within the caller's deadline instead of blocking on capacity.
        identical = identical && max_submit <= overload_deadline_seconds;
        identical = identical && shed + expired + served == submissions;
        std::sort(verdicts.begin(), verdicts.end());
        const double p99 =
            verdicts.empty()
                ? 0.0
                : verdicts[static_cast<size_t>(0.99 * (verdicts.size() - 1) +
                                               0.5)];
        if (best_overload_p99 < 0 || p99 < best_overload_p99) {
          best_overload_p99 = p99;
          ov_submitted = submissions;
          ov_shed = shed;
          ov_expired = expired;
          ov_served = served;
        }
        ov_max_submit = std::max(ov_max_submit, max_submit);
      }
    }
    all_identical = all_identical && identical;

    const double stream = static_cast<double>(queries.size()) * rounds;
    double idle_qps = best_idle > 0 ? stream / best_idle : 0;
    double live_qps = best_live > 0 ? stream / best_live : 0;
    double updates_per_sec =
        best_updates > 0 ? static_cast<double>(events) / best_updates : 0;
    double edges_per_sec =
        best_updates > 0
            ? static_cast<double>(events) * update_edges / best_updates
            : 0;
    double small_updates_per_sec =
        best_small > 0 ? static_cast<double>(delta_events) / best_small : 0;
    double suffix_updates_per_sec =
        best_suffix > 0 ? static_cast<double>(delta_events) / best_suffix : 0;
    // Every ratio below guards its zero-denominator case explicitly (no
    // incremental swaps => 0.0, never NaN — a NaN here would slip through
    // the CI regression gate's comparisons). The raw counts and
    // incremental_swaps land in the JSON alongside, so a zero ratio is
    // always diagnosable.
    auto safe_ratio = [](uint64_t num, uint64_t den) {
      return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                     : 0.0;
    };
    // Slice-level reuse: shares carried whole over slices that needed any
    // whole rebuild. Suffix-maintained slices are neither: they are
    // tracked by the row-level ratio instead.
    double reuse_ratio = safe_ratio(small_slices_reused,
                                    small_slices_reused + small_slices_rebuilt);
    double small_row_reuse = safe_ratio(small_rows_reused, small_rows_total);
    double suffix_reuse_ratio =
        safe_ratio(sfx_slices_reused, sfx_slices_reused + sfx_slices_rebuilt);
    double suffix_row_reuse = safe_ratio(sfx_rows_reused, sfx_rows_total);
    if (threads == 1) {
      idle_qps_1thread = idle_qps;
      live_qps_1thread = live_qps;
    }
    double idle_speedup = idle_qps_1thread > 0 ? idle_qps / idle_qps_1thread
                                               : 0;
    double live_speedup = live_qps_1thread > 0 ? live_qps / live_qps_1thread
                                               : 0;
    double overlap_ratio = idle_qps > 0 ? live_qps / idle_qps : 0;

    const double shed_ratio = safe_ratio(ov_shed, ov_submitted);
    const double expired_ratio = safe_ratio(ov_expired, ov_submitted);

    char ratio_cell[32];
    std::snprintf(ratio_cell, sizeof(ratio_cell), "%.2f", overlap_ratio);
    char reuse_cell[32];
    std::snprintf(reuse_cell, sizeof(reuse_cell), "%.2f", reuse_ratio);
    char row_reuse_cell[32];
    std::snprintf(row_reuse_cell, sizeof(row_reuse_cell), "%.3f",
                  suffix_row_reuse);
    char shed_cell[32];
    char p99_cell[32];
    if (best_overload_p99 >= 0) {
      std::snprintf(shed_cell, sizeof(shed_cell), "%.2f", shed_ratio);
      std::snprintf(p99_cell, sizeof(p99_cell), "%.1f",
                    best_overload_p99 * 1000.0);
    } else {
      std::strcpy(shed_cell, "-");
      std::strcpy(p99_cell, "-");
    }
    table.AddRow({TextTable::Cell(static_cast<uint64_t>(threads)),
                  TextTable::Cell(idle_qps, 1), TextTable::Cell(live_qps, 1),
                  ratio_cell, TextTable::Cell(updates_per_sec, 2),
                  TextTable::Cell(rebuild_seconds, 4),
                  TextTable::Cell(small_updates_per_sec, 2), reuse_cell,
                  TextTable::Cell(suffix_updates_per_sec, 2), row_reuse_cell,
                  shed_cell, p99_cell, identical ? "yes" : "NO"});

    for (int mode = 0; mode < 6; ++mode) {
      // The overload phase needs real pool workers (inline dispatch cannot
      // saturate a queue): no record at 1 thread, so the regression gate's
      // baseline never carries one either.
      if (mode == 5 && best_overload_p99 < 0) continue;
      records.BeginRecord();
      records.Add("bench", std::string("live_update"));
      records.Add("mode", std::string(mode == 0   ? "queries_idle"
                                      : mode == 1 ? "queries_during_updates"
                                      : mode == 2 ? "updates"
                                      : mode == 3 ? "small_delta_updates"
                                      : mode == 4 ? "suffix_delta_updates"
                                                  : "overload"));
      records.Add("vertices", static_cast<uint64_t>(vertices));
      records.Add("edges", static_cast<uint64_t>(edges));
      records.Add("timestamps", static_cast<uint64_t>(timestamps));
      records.Add("unique_queries", static_cast<uint64_t>(queries.size()));
      records.Add("rounds", static_cast<uint64_t>(rounds));
      records.Add("update_batches", static_cast<uint64_t>(events));
      records.Add("update_edges", static_cast<uint64_t>(update_edges));
      records.Add("threads", threads);
      if (mode == 0) {
        records.Add("seconds", best_idle);
        records.Add("qps", idle_qps);
        records.Add("speedup", idle_speedup);
      } else if (mode == 1) {
        records.Add("seconds", best_live);
        records.Add("qps", live_qps);
        records.Add("speedup", live_speedup);
        records.Add("overlap_ratio", overlap_ratio);
      } else if (mode == 2) {
        records.Add("seconds", best_updates);
        records.Add("updates_per_sec", updates_per_sec);
        records.Add("edges_per_sec", edges_per_sec);
        records.Add("rebuild_seconds", rebuild_seconds);
        records.Add("swap_seconds", swap_seconds);
      } else if (mode == 3) {
        records.Add("seconds", best_small);
        records.Add("updates_per_sec", small_updates_per_sec);
        records.Add("delta_events", static_cast<uint64_t>(delta_events));
        records.Add("slices_reused", small_slices_reused);
        records.Add("slices_suffix", small_slices_suffix);
        records.Add("slices_rebuilt", small_slices_rebuilt);
        records.Add("incremental_swaps", small_incremental_swaps);
        records.Add("reuse_ratio", reuse_ratio);
        records.Add("rows_reused", small_rows_reused);
        records.Add("rows_total", small_rows_total);
        records.Add("row_reuse_ratio", small_row_reuse);
      } else if (mode == 4) {
        records.Add("seconds", best_suffix);
        records.Add("updates_per_sec", suffix_updates_per_sec);
        records.Add("delta_events", static_cast<uint64_t>(delta_events));
        records.Add("slices_reused", sfx_slices_reused);
        records.Add("slices_suffix", sfx_slices_suffix);
        records.Add("slices_rebuilt", sfx_slices_rebuilt);
        records.Add("incremental_swaps", sfx_incremental_swaps);
        records.Add("reuse_ratio", suffix_reuse_ratio);
        records.Add("rows_reused", sfx_rows_reused);
        records.Add("rows_total", sfx_rows_total);
        records.Add("row_reuse_ratio", suffix_row_reuse);
        records.Add("emergence_tables_carried", sfx_emergence_carried);
      } else {
        records.Add("submissions", ov_submitted);
        records.Add("deadline_ms", overload_deadline_seconds * 1000.0);
        records.Add("batches_served", ov_served);
        records.Add("batches_shed", ov_shed);
        records.Add("batches_expired", ov_expired);
        records.Add("shed_ratio", shed_ratio);
        records.Add("expired_ratio", expired_ratio);
        records.Add("deadline_p99_ms", best_overload_p99 * 1000.0);
        records.Add("max_submit_ms", ov_max_submit * 1000.0);
      }
      records.Add("identical", identical);
    }
  }
  table.Print();
  if (records.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "ERROR: a live-served outcome differed from its pinned "
                 "version's reference (or a pin/swap was inconsistent)\n");
    return 1;
  }
  return 0;
}
