// Direct tests of Algorithm 5 (Enum + AS-Output): TTI exactness, per-start
// nesting structure, distinctness, the O(|R|) accounting, and deadline
// handling; and of CountFromEcs, which must count exactly what Enum emits.
// Cross-algorithm equivalence lives in cross_algorithm_test.cc.

#include "core/enum_algorithm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/sinks.h"
#include "datasets/generators.h"
#include "graph/core_decomposition.h"
#include "graph/window_peeler.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"

namespace tkc {
namespace {

TEST(EnumAlgorithmTest, EveryOutputTtiIsExact) {
  // The TTI reported by Enum must equal the [min,max] edge time of the core
  // AND the core must equal the peeled core of that window (Theorem 2).
  TemporalGraph g = GenerateUniformRandom(14, 90, 12, 3);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  CallbackSink sink([&](Window tti, std::span<const EdgeId> edges) {
    Timestamp lo = kInfTime, hi = 0;
    for (EdgeId e : edges) {
      lo = std::min(lo, g.edge(e).t);
      hi = std::max(hi, g.edge(e).t);
    }
    EXPECT_EQ(tti, (Window{lo, hi}));
    WindowCore core = ComputeWindowCore(g, 2, tti);
    std::vector<EdgeId> sorted(edges.begin(), edges.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(core.edges, sorted);
  });
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink).ok());
}

TEST(EnumAlgorithmTest, CoresSharingStartAreNested) {
  // Within one start time, AS-Output emits cores in increasing end-time
  // order, each a superset of the previous (the accumulated edge set).
  TemporalGraph g = GenerateUniformRandom(16, 120, 14, 7);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  Timestamp last_start = 0;
  std::set<EdgeId> previous;
  CallbackSink sink([&](Window tti, std::span<const EdgeId> edges) {
    std::set<EdgeId> current(edges.begin(), edges.end());
    if (tti.start == last_start) {
      for (EdgeId e : previous) {
        EXPECT_TRUE(current.count(e))
            << "core at [" << tti.start << "," << tti.end
            << "] lost edge " << e << " present in the previous core";
      }
      EXPECT_GT(current.size(), previous.size());
    }
    last_start = tti.start;
    previous = std::move(current);
  });
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink).ok());
}

TEST(EnumAlgorithmTest, NoDuplicateCores) {
  TemporalGraph g = GenerateUniformRandom(14, 100, 16, 11);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  std::set<std::vector<EdgeId>> seen;
  CallbackSink sink([&](Window tti, std::span<const EdgeId> edges) {
    (void)tti;
    std::vector<EdgeId> sorted(edges.begin(), edges.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(seen.insert(sorted).second) << "duplicate core emitted";
  });
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink).ok());
  EXPECT_FALSE(seen.empty());
}

TEST(EnumAlgorithmTest, StatsMatchSink) {
  TemporalGraph g = GenerateUniformRandom(12, 80, 10, 13);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  CountingSink sink;
  EnumStats stats;
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink, &stats).ok());
  EXPECT_EQ(stats.num_cores, sink.num_cores());
  EXPECT_EQ(stats.result_size_edges, sink.result_size_edges());
  EXPECT_EQ(stats.windows, built.ecs.size());
  EXPECT_EQ(stats.list_insertions, built.ecs.size());
  EXPECT_GT(stats.peak_memory_bytes, 0u);
}

TEST(EnumAlgorithmTest, EveryStartWithCoreHasMinimalWindowStart) {
  // Lemma 4: a core's TTI start coincides with some minimal core window's
  // start time.
  TemporalGraph g = GenerateUniformRandom(12, 70, 12, 17);
  VctBuildResult built = BuildVctAndEcs(g, 3, g.FullRange());
  std::set<Timestamp> window_starts;
  built.ecs.ForEachWindow(
      [&](EdgeId, const Window& w) { window_starts.insert(w.start); });
  CallbackSink sink([&](Window tti, std::span<const EdgeId>) {
    EXPECT_TRUE(window_starts.count(tti.start))
        << "core TTI starts at " << tti.start
        << " where no minimal core window starts";
  });
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink).ok());
}

TEST(EnumAlgorithmTest, EmptySkylineProducesNothing) {
  // A graph too sparse for k=3 anywhere.
  TemporalGraphBuilder b;
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  b.AddEdge(2, 3, 3);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  VctBuildResult built = BuildVctAndEcs(*g, 3, g->FullRange());
  EXPECT_EQ(built.ecs.size(), 0u);
  CountingSink sink;
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink).ok());
  EXPECT_EQ(sink.num_cores(), 0u);
}

TEST(EnumAlgorithmTest, ExpiredDeadlineReturnsTimeout) {
  TemporalGraph g = GenerateUniformRandom(20, 200, 30, 19);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  CountingSink sink;
  Deadline expired = Deadline::AfterSeconds(-1.0);
  Status s = EnumerateFromEcs(built.ecs, &sink, nullptr, expired);
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

TEST(EnumAlgorithmTest, ResultSizeBoundInvariant) {
  // Theorem 3's accounting: the sum of |L_ts| scans equals |R|; in
  // particular |R| >= |ECS| contributions: every window is scanned at most
  // once per start it is live, and every scan lands in some emitted core
  // for starts with output. Here we verify the cheap observable: |R| >=
  // number of cores and |R| >= max core size.
  TemporalGraph g = GenerateUniformRandom(15, 110, 14, 23);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  CountingSink sink;
  EnumStats stats;
  ASSERT_TRUE(EnumerateFromEcs(built.ecs, &sink, &stats).ok());
  EXPECT_GE(stats.result_size_edges, stats.num_cores);
  EXPECT_GE(stats.result_size_edges, sink.max_core_edges());
}

// --- CountFromEcs ----------------------------------------------------------

void ExpectCountMatchesEnum(const EdgeCoreWindowSkyline& ecs,
                            const std::string& where) {
  CountingSink sink;
  ASSERT_TRUE(EnumerateFromEcs(ecs, &sink).ok()) << where;
  EnumStats count;
  ASSERT_TRUE(CountFromEcs(ecs, &count).ok()) << where;
  EXPECT_EQ(count.num_cores, sink.num_cores()) << where;
  EXPECT_EQ(count.result_size_edges, sink.result_size_edges()) << where;
  EXPECT_EQ(count.windows, ecs.size()) << where;
  EXPECT_GT(count.peak_memory_bytes, 0u) << where;
}

/// The full range, its thirds, single timestamps (first, middle, last) and
/// suffixes ending at tmax.
std::vector<Window> CountRanges(Timestamp tmax) {
  std::vector<Window> ranges;
  auto add = [&](Timestamp start, Timestamp end) {
    if (start >= 1 && start <= end && end <= tmax) {
      ranges.push_back(Window{start, end});
    }
  };
  const Timestamp third = tmax / 3;
  const Timestamp mid = (tmax + 1) / 2;
  add(1, tmax);
  add(1, third);
  add(third + 1, 2 * third);
  add(2 * third + 1, tmax);
  add(1, 1);
  add(mid, mid);
  add(tmax, tmax);
  add(mid, tmax);
  add(tmax > 2 ? tmax - 2 : 1, tmax);
  return ranges;
}

/// Every k up to kmax + 1 over every CountRanges range, on the skylines of
/// both CoreTime sources: the fixpoint builder and a full-range PHC slice.
void ExpectCountMatchesEnumOnGraph(const TemporalGraph& g,
                                   const std::string& label) {
  const uint32_t kmax = DecomposeCores(g).kmax;
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok()) << label;
  for (uint32_t k = 1; k <= kmax + 1; ++k) {
    for (const Window& r : CountRanges(g.num_timestamps())) {
      const std::string where = label + " k=" + std::to_string(k) +
                                " range [" + std::to_string(r.start) + "," +
                                std::to_string(r.end) + "]";
      ExpectCountMatchesEnum(BuildVctAndEcs(g, k, r).ecs, where + " built");
      if (k <= index->max_k()) {
        ExpectCountMatchesEnum(ReadVctAndEcs(g, index->Slice(k), r).ecs,
                               where + " read");
      }
    }
  }
}

struct CountShape {
  uint32_t n, m, t;
  uint64_t seed;
};

void PrintTo(const CountShape& s, std::ostream* os) {
  *os << "n=" << s.n << " m=" << s.m << " T=" << s.t << " seed=" << s.seed;
}

class CountFromEcsShapeTest : public ::testing::TestWithParam<CountShape> {};

TEST_P(CountFromEcsShapeTest, MatchesEnum) {
  const CountShape& s = GetParam();
  ExpectCountMatchesEnumOnGraph(GenerateUniformRandom(s.n, s.m, s.t, s.seed),
                                "seed " + std::to_string(s.seed));
}

// cross_algorithm_test's shapes: sparse, dense, multi-edge-heavy, and
// single-timestamp / tiny (k = 1 is in every k sweep).
INSTANTIATE_TEST_SUITE_P(
    CrossAlgorithmShapes, CountFromEcsShapeTest,
    ::testing::Values(CountShape{12, 40, 10, 1}, CountShape{20, 60, 15, 4},
                      CountShape{8, 30, 30, 7}, CountShape{10, 90, 12, 11},
                      CountShape{15, 120, 20, 14}, CountShape{15, 120, 6, 16},
                      CountShape{6, 80, 15, 21}, CountShape{5, 60, 4, 24},
                      CountShape{8, 25, 1, 41}, CountShape{8, 25, 2, 42},
                      CountShape{3, 3, 3, 44}));

TEST(CountFromEcsTest, MatchesEnumOnBurstyGraph) {
  SyntheticSpec spec;
  spec.name = "count";
  spec.num_vertices = 24;
  spec.num_edges = 260;
  spec.num_timestamps = 40;
  spec.burstiness = 0.5;
  spec.burst_group = 8;
  spec.burst_span = 5;
  spec.seed = 99;
  ExpectCountMatchesEnumOnGraph(GenerateSynthetic(spec), "bursty");
}

TEST(CountFromEcsTest, ExpiredDeadlineReturnsTimeout) {
  TemporalGraph g = GenerateUniformRandom(20, 200, 30, 19);
  VctBuildResult built = BuildVctAndEcs(g, 2, g.FullRange());
  ASSERT_GT(built.ecs.size(), 0u);
  EnumStats count;
  Status s = CountFromEcs(built.ecs, &count, Deadline::AfterSeconds(-1.0));
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

TEST(CountFromEcsTest, EmptySkylineCountsNothing) {
  TemporalGraphBuilder b;
  b.AddEdge(0, 1, 1);
  b.AddEdge(1, 2, 2);
  b.AddEdge(2, 3, 3);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  VctBuildResult built = BuildVctAndEcs(*g, 3, g->FullRange());
  ASSERT_EQ(built.ecs.size(), 0u);
  EnumStats count;
  ASSERT_TRUE(CountFromEcs(built.ecs, &count).ok());
  EXPECT_EQ(count.num_cores, 0u);
  EXPECT_EQ(count.result_size_edges, 0u);
  EXPECT_EQ(count.windows, 0u);
}

}  // namespace
}  // namespace tkc
