// Hand-constructed skylines driving Algorithm 5's linked-list machinery
// through its corner cases: equal end-time groups, windows activating
// without any window starting (Ba nonempty, Bs empty), inserts at the list
// head vs tail, and single-window skylines. Each case states the expected
// cores explicitly, and every case also pins CountFromEcs to the cores
// Enum emitted.

#include <gtest/gtest.h>

#include <vector>

#include "core/enum_algorithm.h"
#include "core/sinks.h"
#include "vct/ecs.h"

namespace tkc {
namespace {

// Helper: build a skyline over edges [0, n) within `range`.
EdgeCoreWindowSkyline MakeEcs(EdgeId n, Window range,
                              std::vector<std::pair<EdgeId, Window>> em) {
  return EdgeCoreWindowSkyline::FromEmissions(0, n, range, em);
}

std::vector<CoreResult> RunEnum(const EdgeCoreWindowSkyline& ecs) {
  CollectingSink sink;
  EXPECT_TRUE(EnumerateFromEcs(ecs, &sink).ok());
  uint64_t result_edges = 0;
  for (const CoreResult& core : sink.cores()) result_edges += core.edges.size();
  EnumStats count;
  EXPECT_TRUE(CountFromEcs(ecs, &count).ok());
  EXPECT_EQ(count.num_cores, sink.cores().size());
  EXPECT_EQ(count.result_size_edges, result_edges);
  EXPECT_EQ(count.windows, ecs.size());
  sink.SortCanonically();
  return sink.cores();
}

TEST(EnumListEdgeCasesTest, SingleWindowSingleEdge) {
  auto ecs = MakeEcs(1, Window{1, 5}, {{0, Window{2, 4}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0].tti, (Window{2, 4}));
  EXPECT_EQ(cores[0].edges, (std::vector<EdgeId>{0}));
}

TEST(EnumListEdgeCasesTest, EqualEndTimesEmitOnce) {
  // Three windows with the same start and end: one core with all three
  // edges (AS-Output's equal-end grouping emits only at the group's last).
  auto ecs = MakeEcs(3, Window{1, 6},
                     {{0, Window{2, 4}}, {1, Window{2, 4}}, {2, Window{2, 4}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0].tti, (Window{2, 4}));
  EXPECT_EQ(cores[0].edges, (std::vector<EdgeId>{0, 1, 2}));
}

TEST(EnumListEdgeCasesTest, NestedCoresAtSameStart) {
  // Windows [1,2] and [1,5]: TTI [1,2] core {0} and TTI [1,5] core {0,1}.
  auto ecs =
      MakeEcs(2, Window{1, 5}, {{0, Window{1, 2}}, {1, Window{1, 5}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_EQ(cores[0].tti, (Window{1, 2}));
  EXPECT_EQ(cores[0].edges, (std::vector<EdgeId>{0}));
  EXPECT_EQ(cores[1].tti, (Window{1, 5}));
  EXPECT_EQ(cores[1].edges, (std::vector<EdgeId>{0, 1}));
}

TEST(EnumListEdgeCasesTest, ValidFlagSuppressesEarlierEnds) {
  // Edge 0's window [2,3] ends before edge 1's [4,5] begins... within one
  // start scan: at ts=4, edge 0's window (start 2) has been deleted, so the
  // core at [4,5] contains only edge 1. At ts=2, [2,3] yields a core, and
  // scanning continues to [4,5]'s end where valid stays true -> the union
  // {0,1} with TTI [2,5] is also a core.
  auto ecs =
      MakeEcs(2, Window{1, 6}, {{0, Window{2, 3}}, {1, Window{4, 5}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 3u);
  EXPECT_EQ(cores[0].tti, (Window{2, 3}));
  EXPECT_EQ(cores[0].edges, (std::vector<EdgeId>{0}));
  EXPECT_EQ(cores[1].tti, (Window{2, 5}));
  EXPECT_EQ(cores[1].edges, (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(cores[2].tti, (Window{4, 5}));
  EXPECT_EQ(cores[2].edges, (std::vector<EdgeId>{1}));
}

TEST(EnumListEdgeCasesTest, EarlierEndOfALaterStartIsNotEmittedAlone) {
  // e0 [3,3] and e1 [2,5]: at ts=2 the list holds [3,3] ahead of [2,5],
  // but no window starting at 2 ends by 3, so the one core starting at 2
  // is [2,5] with both edges; [3,3] is a core of its own at ts=3.
  auto ecs =
      MakeEcs(2, Window{1, 5}, {{0, Window{3, 3}}, {1, Window{2, 5}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_EQ(cores[0].tti, (Window{2, 5}));
  EXPECT_EQ(cores[0].edges, (std::vector<EdgeId>{0, 1}));
  EXPECT_EQ(cores[1].tti, (Window{3, 3}));
  EXPECT_EQ(cores[1].edges, (std::vector<EdgeId>{0}));
}

TEST(EnumListEdgeCasesTest, WindowNotStartingAtScanStartIsNotATti) {
  // A single window [3,4] inside range [1,6]: starts 1 and 2 have no
  // window starting there (Bs empty -> no output, Lemma 4); only [3,4]
  // emits.
  auto ecs = MakeEcs(1, Window{1, 6}, {{0, Window{3, 4}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 1u);
  EXPECT_EQ(cores[0].tti, (Window{3, 4}));
}

TEST(EnumListEdgeCasesTest, SecondWindowActivatesAfterFirstExpires) {
  // Edge 0 has skyline [1,2], [4,6] (active from start 2). For ts=1 the
  // core is {0} at [1,2]; for ts in [2,4] the relevant window is [4,6],
  // which forms the TTI [4,6] core at ts=4.
  auto ecs =
      MakeEcs(1, Window{1, 6}, {{0, Window{1, 2}}, {0, Window{4, 6}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_EQ(cores[0].tti, (Window{1, 2}));
  EXPECT_EQ(cores[1].tti, (Window{4, 6}));
}

TEST(EnumListEdgeCasesTest, InterleavedEndsAcrossEdges) {
  // Windows: e0 [1,3], e1 [2,4], e2 [3,5]. Expected TTIs:
  //   ts=1: [1,3] {e0}, [1,4] {e0,e1}, [1,5] {e0,e1,e2}
  //   ts=2: [2,4] {e1}, [2,5] {e1,e2}
  //   ts=3: [3,5] {e2}
  auto ecs = MakeEcs(3, Window{1, 5},
                     {{0, Window{1, 3}}, {1, Window{2, 4}}, {2, Window{3, 5}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 6u);
  EXPECT_EQ(cores[0].tti, (Window{1, 3}));
  EXPECT_EQ(cores[1].tti, (Window{1, 4}));
  EXPECT_EQ(cores[2].tti, (Window{1, 5}));
  EXPECT_EQ(cores[3].tti, (Window{2, 4}));
  EXPECT_EQ(cores[4].tti, (Window{2, 5}));
  EXPECT_EQ(cores[5].tti, (Window{3, 5}));
  EXPECT_EQ(cores[2].edges, (std::vector<EdgeId>{0, 1, 2}));
  EXPECT_EQ(cores[4].edges, (std::vector<EdgeId>{1, 2}));
}

TEST(EnumListEdgeCasesTest, RangeBoundaryWindows) {
  // Windows hugging both range boundaries.
  auto ecs =
      MakeEcs(2, Window{1, 4}, {{0, Window{1, 1}}, {1, Window{4, 4}}});
  auto cores = RunEnum(ecs);
  ASSERT_EQ(cores.size(), 3u);
  EXPECT_EQ(cores[0].tti, (Window{1, 1}));
  EXPECT_EQ(cores[1].tti, (Window{1, 4}));
  EXPECT_EQ(cores[2].tti, (Window{4, 4}));
}

TEST(EnumListEdgeCasesTest, StatsCountListOperations) {
  auto ecs = MakeEcs(3, Window{1, 5},
                     {{0, Window{1, 3}}, {1, Window{2, 4}}, {2, Window{3, 5}}});
  CountingSink sink;
  EnumStats stats;
  ASSERT_TRUE(EnumerateFromEcs(ecs, &sink, &stats).ok());
  EXPECT_EQ(stats.list_insertions, 3u);
  // Windows with start 1..3 are deleted as the scan passes starts 2..4.
  EXPECT_EQ(stats.list_deletions, 3u);
  EXPECT_EQ(stats.num_cores, 6u);
  EXPECT_EQ(stats.result_size_edges, 1u + 2 + 3 + 1 + 2 + 1);
  // The count reports the same totals and keeps no list.
  EnumStats count;
  ASSERT_TRUE(CountFromEcs(ecs, &count).ok());
  EXPECT_EQ(count.num_cores, stats.num_cores);
  EXPECT_EQ(count.result_size_edges, stats.result_size_edges);
  EXPECT_EQ(count.list_insertions, 0u);
  EXPECT_EQ(count.list_deletions, 0u);
}

}  // namespace
}  // namespace tkc
