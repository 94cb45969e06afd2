// Parallel-determinism tests: PhcIndex::Build must produce bit-identical
// slices at every thread count, on randomized generator graphs. Also covers
// the parallel query-workload runner against its serial aggregate.

#include <gtest/gtest.h>

#include <vector>

#include "datasets/generators.h"
#include "graph/graph_stats.h"
#include "util/thread_pool.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"
#include "workload/query_workload.h"

namespace tkc {
namespace {

// Deep slice-by-slice equality: sizes, every entry, and CoreTimeAt spot
// checks across the range.
void ExpectIdentical(const PhcIndex& a, const PhcIndex& b,
                     const TemporalGraph& g) {
  ASSERT_EQ(a.max_k(), b.max_k());
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t k = 1; k <= a.max_k(); ++k) {
    const VertexCoreTimeIndex& sa = a.Slice(k);
    const VertexCoreTimeIndex& sb = b.Slice(k);
    ASSERT_EQ(sa.size(), sb.size()) << "k=" << k;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto ea = sa.EntriesOf(v), eb = sb.EntriesOf(v);
      ASSERT_EQ(ea.size(), eb.size()) << "k=" << k << " v=" << v;
      for (size_t i = 0; i < ea.size(); ++i) {
        ASSERT_EQ(ea[i], eb[i]) << "k=" << k << " v=" << v << " entry " << i;
      }
    }
  }
  const Window range = a.range();
  for (uint32_t k = 1; k <= a.max_k() + 1; ++k) {
    for (VertexId v = 0; v < g.num_vertices(); v += 3) {
      for (Timestamp ts = range.start; ts <= range.end; ts += 4) {
        ASSERT_EQ(a.CoreTimeAt(v, ts, k), b.CoreTimeAt(v, ts, k))
            << "k=" << k << " v=" << v << " ts=" << ts;
      }
    }
  }
}

StatusOr<PhcIndex> BuildWithThreads(const TemporalGraph& g, Window range,
                                    int num_threads) {
  ThreadPool pool(num_threads);
  PhcBuildOptions options;
  options.pool = &pool;
  return PhcIndex::Build(g, range, options);
}

TEST(PhcParallelTest, OneTwoAndEightThreadsAgreeOnRandomGraphs) {
  for (uint64_t seed : {3u, 17u, 91u}) {
    TemporalGraph g = GenerateUniformRandom(30, 600, 25, seed);
    PhcBuildOptions serial;  // pool == nullptr: reference serial build
    auto reference = PhcIndex::Build(g, g.FullRange(), serial);
    ASSERT_TRUE(reference.ok());
    ASSERT_GE(reference->max_k(), 2u) << "seed " << seed;
    for (int threads : {1, 2, 8}) {
      auto parallel = BuildWithThreads(g, g.FullRange(), threads);
      ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
      ExpectIdentical(*reference, *parallel, g);
    }
  }
}

TEST(PhcParallelTest, DefaultBuildUsesSharedPoolAndMatchesSerial) {
  TemporalGraph g = GenerateUniformRandom(24, 400, 15, 7);
  PhcBuildOptions serial;
  auto reference = PhcIndex::Build(g, g.FullRange(), serial);
  auto via_shared = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(reference.ok() && via_shared.ok());
  ExpectIdentical(*reference, *via_shared, g);
}

TEST(PhcParallelTest, SubRangeAndCappedBuildsAgreeAcrossThreads) {
  TemporalGraph g = GenerateUniformRandom(28, 500, 20, 41);
  Window sub{4, 17};
  for (uint32_t cap : {0u, 2u}) {
    PhcBuildOptions serial;
    serial.max_k = cap;
    auto reference = PhcIndex::Build(g, sub, serial);
    ASSERT_TRUE(reference.ok());
    ThreadPool pool(8);
    PhcBuildOptions options;
    options.max_k = cap;
    options.pool = &pool;
    auto parallel = PhcIndex::Build(g, sub, options);
    ASSERT_TRUE(parallel.ok());
    ExpectIdentical(*reference, *parallel, g);
  }
}

TEST(PhcParallelTest, OnePoolServesManyBuilds) {
  // Arena reuse across consecutive builds through the same pool must not
  // leak state from one graph/range into the next.
  ThreadPool pool(4);
  PhcBuildOptions options;
  options.pool = &pool;
  for (uint64_t seed : {5u, 6u}) {
    TemporalGraph g = GenerateUniformRandom(20, 300, 12, seed);
    PhcBuildOptions serial;
    auto reference = PhcIndex::Build(g, g.FullRange(), serial);
    auto parallel = PhcIndex::Build(g, g.FullRange(), options);
    ASSERT_TRUE(reference.ok() && parallel.ok());
    ExpectIdentical(*reference, *parallel, g);
  }
}

// The single-k builder's bootstrap fan-out (window-adjacency cursor
// placement + initial edge-core-time fill) must be bit-identical to the
// serial build — VCT and ECS both — at every thread count, with and
// without a reused arena.
TEST(PhcParallelTest, ParallelBootstrapSweepMatchesSerial) {
  // One small graph (the fan-out's inline fallback) and one graph large
  // enough (> 2 * 4096 vertices and window edges) that the cursor and ect
  // fills genuinely shard across workers.
  struct Shape {
    uint32_t n, m, T;
    uint64_t seed;
  };
  for (const Shape& shape : {Shape{40, 900, 30, 11u},
                             Shape{12000, 30000, 12, 29u}}) {
    TemporalGraph g =
        GenerateUniformRandom(shape.n, shape.m, shape.T, shape.seed);
    const uint64_t seed = shape.seed;
    for (uint32_t k : {1u, 2u, 3u}) {
      if (k == 3 && shape.n > 1000) continue;  // large shape: 2 slices do
      const Window range =
          k == 3 ? Window{5, 22}
                 : (k == 2 && shape.n > 1000
                        ? Window{2, static_cast<Timestamp>(
                                        g.num_timestamps() - 1)}
                        : g.FullRange());
      VctBuildResult serial = BuildVctAndEcs(g, k, range);
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        VctBuildArena arena;
        // Two builds through the same arena: reuse must not change output.
        for (int repeat = 0; repeat < 2; ++repeat) {
          VctBuildResult parallel =
              BuildVctAndEcs(g, k, range, &arena, &pool);
          ASSERT_EQ(serial.vct.size(), parallel.vct.size())
              << "seed=" << seed << " k=" << k << " threads=" << threads;
          for (VertexId v = 0; v < g.num_vertices(); ++v) {
            auto es = serial.vct.EntriesOf(v);
            auto ep = parallel.vct.EntriesOf(v);
            ASSERT_EQ(es.size(), ep.size()) << "v=" << v;
            for (size_t i = 0; i < es.size(); ++i) {
              ASSERT_EQ(es[i], ep[i]) << "v=" << v << " entry " << i;
            }
          }
          ASSERT_EQ(serial.ecs.size(), parallel.ecs.size());
          ASSERT_EQ(serial.ecs.first_edge(), parallel.ecs.first_edge());
          ASSERT_EQ(serial.ecs.last_edge(), parallel.ecs.last_edge());
          for (EdgeId e = serial.ecs.first_edge();
               e < serial.ecs.last_edge(); ++e) {
            auto ws = serial.ecs.WindowsOf(e);
            auto wp = parallel.ecs.WindowsOf(e);
            ASSERT_EQ(ws.size(), wp.size()) << "e=" << e;
            for (size_t i = 0; i < ws.size(); ++i) {
              ASSERT_EQ(ws[i], wp[i]) << "e=" << e << " window " << i;
            }
          }
        }
      }
    }
  }
}

TEST(PhcParallelTest, ParallelWorkloadAggregateMatchesSerial) {
  TemporalGraph g = GenerateUniformRandom(30, 600, 25, 13);
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 6;
  spec.range_fraction = 0.4;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();
  // Duplicate queries ride along: each is its own run, so neither the
  // counted outputs nor the peak may depend on which worker ran which copy.
  std::vector<Query> batch = *queries;
  batch.push_back((*queries)[0]);
  batch.push_back((*queries)[0]);
  batch.push_back((*queries)[3]);
  ThreadPool pool(4);
  for (AlgorithmKind kind :
       {AlgorithmKind::kCoreTime, AlgorithmKind::kEnum}) {
    AggregateOutcome serial = RunAlgorithmOnQueries(kind, g, batch, 0);
    AggregateOutcome parallel =
        RunAlgorithmOnQueries(kind, g, batch, 0, &pool);
    ASSERT_TRUE(serial.completed && parallel.completed);
    // Timing fields differ run to run; the counted outputs must not.
    EXPECT_DOUBLE_EQ(serial.avg_num_cores, parallel.avg_num_cores);
    EXPECT_DOUBLE_EQ(serial.avg_result_size_edges,
                     parallel.avg_result_size_edges);
    EXPECT_DOUBLE_EQ(serial.avg_vct_size, parallel.avg_vct_size);
    EXPECT_DOUBLE_EQ(serial.avg_ecs_size, parallel.avg_ecs_size);
    // Every run builds with fresh scratch, so a query's peak is its own
    // working set, whichever worker ran it and whatever ran there before.
    EXPECT_EQ(serial.max_peak_memory_bytes, parallel.max_peak_memory_bytes);
    EXPECT_GT(serial.max_peak_memory_bytes, 0u);
  }
}

}  // namespace
}  // namespace tkc
