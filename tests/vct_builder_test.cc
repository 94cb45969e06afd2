// Equivalence and property tests for the efficient VCT/ECS builder against
// the naive per-start builder, across randomized graphs, k values and query
// ranges. This is the correctness backbone of the CoreTime phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "datasets/generators.h"
#include "util/rng.h"
#include "vct/naive_vct_builder.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"

namespace tkc {
namespace {

void ExpectSameVct(const VertexCoreTimeIndex& a, const VertexCoreTimeIndex& b,
                   const std::string& label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  EXPECT_EQ(a.size(), b.size()) << label;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    auto ea = a.EntriesOf(v);
    auto eb = b.EntriesOf(v);
    ASSERT_EQ(ea.size(), eb.size()) << label << " vertex " << v << "\n  fast: "
                                    << a.DebugString(v)
                                    << "\n  naive: " << b.DebugString(v);
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i], eb[i]) << label << " vertex " << v;
    }
  }
}

void ExpectSameEcs(const EdgeCoreWindowSkyline& a,
                   const EdgeCoreWindowSkyline& b, const std::string& label) {
  ASSERT_EQ(a.first_edge(), b.first_edge()) << label;
  ASSERT_EQ(a.last_edge(), b.last_edge()) << label;
  EXPECT_EQ(a.size(), b.size()) << label;
  for (EdgeId e = a.first_edge(); e < a.last_edge(); ++e) {
    auto wa = a.WindowsOf(e);
    auto wb = b.WindowsOf(e);
    ASSERT_EQ(wa.size(), wb.size())
        << label << " edge " << e << "\n  fast: " << a.DebugString(e)
        << "\n  naive: " << b.DebugString(e);
    for (size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i], wb[i]) << label << " edge " << e;
    }
  }
}

struct BuilderCase {
  uint32_t n, m, T, k;
  uint64_t seed;
};

void PrintTo(const BuilderCase& c, std::ostream* os) {
  *os << "n=" << c.n << " m=" << c.m << " T=" << c.T << " k=" << c.k
      << " seed=" << c.seed;
}

class VctBuilderEquivalenceTest : public ::testing::TestWithParam<BuilderCase> {
};

TEST_P(VctBuilderEquivalenceTest, FullRange) {
  const BuilderCase& c = GetParam();
  TemporalGraph g = GenerateUniformRandom(c.n, c.m, c.T, c.seed);
  VctBuildResult fast = BuildVctAndEcs(g, c.k, g.FullRange());
  VctBuildResult naive = BuildVctAndEcsNaive(g, c.k, g.FullRange());
  ExpectSameVct(fast.vct, naive.vct, "full range");
  ExpectSameEcs(fast.ecs, naive.ecs, "full range");
}

TEST_P(VctBuilderEquivalenceTest, SubRanges) {
  const BuilderCase& c = GetParam();
  TemporalGraph g = GenerateUniformRandom(c.n, c.m, c.T, c.seed);
  Timestamp tmax = g.num_timestamps();
  std::vector<Window> ranges = {{1, std::max<Timestamp>(1, tmax / 2)},
                                {tmax / 2 + 1, tmax},
                                {std::max<Timestamp>(1, tmax / 4),
                                 std::max<Timestamp>(1, (3 * tmax) / 4)}};
  for (const Window& r : ranges) {
    if (!(r.start >= 1 && r.start <= r.end && r.end <= tmax)) continue;
    std::string label = "range [" + std::to_string(r.start) + "," +
                        std::to_string(r.end) + "]";
    VctBuildResult fast = BuildVctAndEcs(g, c.k, r);
    VctBuildResult naive = BuildVctAndEcsNaive(g, c.k, r);
    ExpectSameVct(fast.vct, naive.vct, label);
    ExpectSameEcs(fast.ecs, naive.ecs, label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, VctBuilderEquivalenceTest,
    ::testing::Values(
        BuilderCase{12, 50, 10, 2, 1}, BuilderCase{12, 50, 10, 3, 2},
        BuilderCase{20, 120, 16, 2, 3}, BuilderCase{20, 120, 16, 4, 4},
        BuilderCase{8, 60, 20, 2, 5}, BuilderCase{8, 60, 20, 3, 6},
        BuilderCase{30, 200, 25, 3, 7}, BuilderCase{30, 200, 25, 5, 8},
        BuilderCase{6, 40, 5, 2, 9}, BuilderCase{6, 40, 5, 3, 10},
        BuilderCase{10, 80, 40, 2, 11}, BuilderCase{25, 150, 30, 1, 12},
        BuilderCase{40, 300, 50, 4, 13}, BuilderCase{40, 300, 8, 4, 14}));

// The suffix entry point's defining property: for ANY band
// [suffix_start, advance_end], recomputing that band with BuildVctSuffix
// and stitching it back into the full slice must reproduce the full slice
// exactly — on an unchanged graph, the band computes the same values the
// full build did, so the stitch is a pure identity round-trip through both
// seams. This is the mechanical backbone of PhcIndex::Rebuild's partial
// maintenance (there the band additionally bounds where a delta can act).
TEST_P(VctBuilderEquivalenceTest, SuffixBandStitchRoundTrips) {
  const BuilderCase& c = GetParam();
  TemporalGraph g = GenerateUniformRandom(c.n, c.m, c.T, c.seed);
  const Window full = g.FullRange();
  const VertexCoreTimeIndex reference = BuildVctAndEcs(g, c.k, full).vct;
  const Timestamp tmax = full.end;
  VctBuildArena arena;
  const std::vector<std::pair<Timestamp, Timestamp>> bands = {
      {1, tmax},                               // whole range
      {1, std::max<Timestamp>(1, tmax / 2)},   // prefix band, tail reused
      {std::max<Timestamp>(1, tmax / 2), tmax},  // suffix band
      {std::max<Timestamp>(1, tmax / 3),
       std::max<Timestamp>(1, (2 * tmax) / 3)},  // interior band
      {tmax, tmax},                              // single last start
  };
  for (const auto& [s, a] : bands) {
    if (!(s >= 1 && s <= a && a <= tmax)) continue;
    const VertexCoreTimeIndex band =
        BuildVctSuffix(g, c.k, Window{s, tmax}, a, &arena);
    uint64_t reused = 0;
    const VertexCoreTimeIndex stitched =
        StitchCoreTimeSuffix(reference, band, s, a, &reused);
    ExpectSameVct(stitched, reference,
                  "band [" + std::to_string(s) + "," + std::to_string(a) +
                      "]");
    EXPECT_LE(reused, reference.size());
  }
}

// Monotonicity and consistency properties of the produced index.
class VctPropertyTest : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(VctPropertyTest, EntriesMonotoneAndWithinRange) {
  const BuilderCase& c = GetParam();
  TemporalGraph g = GenerateUniformRandom(c.n, c.m, c.T, c.seed);
  Window range = g.FullRange();
  VctBuildResult built = BuildVctAndEcs(g, c.k, range);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto entries = built.vct.EntriesOf(v);
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_GE(entries[i].start, range.start);
      EXPECT_LE(entries[i].start, range.end);
      if (entries[i].core_time != kInfTime) {
        EXPECT_GE(entries[i].core_time, entries[i].start);
        EXPECT_LE(entries[i].core_time, range.end);
      }
      if (i > 0) {
        EXPECT_GT(entries[i].start, entries[i - 1].start);
        EXPECT_GT(entries[i].core_time, entries[i - 1].core_time);
      }
    }
    // First entry, when present, starts at the range start.
    if (!entries.empty()) EXPECT_EQ(entries[0].start, range.start);
  }
}

TEST_P(VctPropertyTest, EdgeCoreTimeLemma1) {
  // Lemma 1: CT_ts(u,v,t) = max(CT_ts(u), CT_ts(v), t). Cross-check that
  // each edge's first skyline window with start >= ts ends exactly there.
  const BuilderCase& c = GetParam();
  TemporalGraph g = GenerateUniformRandom(c.n, c.m, c.T, c.seed);
  Window range = g.FullRange();
  VctBuildResult built = BuildVctAndEcs(g, c.k, range);
  for (EdgeId e = built.ecs.first_edge(); e < built.ecs.last_edge(); ++e) {
    const TemporalEdge& edge = g.edge(e);
    for (Timestamp ts = range.start; ts <= edge.t; ++ts) {
      Timestamp cu = built.vct.CoreTimeAt(edge.u, ts);
      Timestamp cv = built.vct.CoreTimeAt(edge.v, ts);
      Timestamp ect = (cu == kInfTime || cv == kInfTime)
                          ? kInfTime
                          : std::max({cu, cv, edge.t});
      // The skyline equivalent: the smallest window end among windows
      // with start >= ts must equal ect (or none exist if ect == inf).
      Timestamp skyline_end = kInfTime;
      for (const Window& w : built.ecs.WindowsOf(e)) {
        if (w.start >= ts) {
          skyline_end = w.end;
          break;
        }
      }
      EXPECT_EQ(skyline_end, ect)
          << "edge " << e << " (" << edge.u << "," << edge.v << "," << edge.t
          << ") ts=" << ts;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, VctPropertyTest,
    ::testing::Values(BuilderCase{12, 60, 12, 2, 21},
                      BuilderCase{15, 90, 15, 3, 22},
                      BuilderCase{10, 70, 25, 2, 23},
                      BuilderCase{18, 100, 9, 3, 24}));

TEST(VctBuilderStatsTest, CountersPopulated) {
  TemporalGraph g = GenerateUniformRandom(20, 150, 20, 33);
  VctBuildStats stats;
  VctBuildResult built =
      BuildVctAndEcsWithStats(g, 2, g.FullRange(), &stats);
  EXPECT_GT(built.vct.size(), 0u);
  // Each core-time change beyond the initial sweep requires at least one
  // fixpoint recomputation.
  EXPECT_GE(stats.fixpoint_recomputations, stats.core_time_changes);
  EXPECT_GE(stats.worklist_pushes, stats.core_time_changes);
}

TEST(VctBuilderBurstyTest, SyntheticAgrees) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_vertices = 30;
  spec.num_edges = 400;
  spec.num_timestamps = 60;
  spec.burstiness = 0.4;
  spec.seed = 5;
  TemporalGraph g = GenerateSynthetic(spec);
  for (uint32_t k : {2u, 3u, 5u}) {
    VctBuildResult fast = BuildVctAndEcs(g, k, g.FullRange());
    VctBuildResult naive = BuildVctAndEcsNaive(g, k, g.FullRange());
    ExpectSameVct(fast.vct, naive.vct, "bursty k=" + std::to_string(k));
    ExpectSameEcs(fast.ecs, naive.ecs, "bursty k=" + std::to_string(k));
  }
}

// --- The slice-read CoreTime phase (ReadVctAndEcs) ------------------------

/// Seeded ranges over [1, tmax]: the full range, every single-timestamp
/// range, ranges ending at tmax, and random sub-ranges.
std::vector<Window> SeededRanges(Timestamp tmax, uint64_t seed) {
  std::vector<Window> ranges = {{1, tmax}};
  for (Timestamp t = 1; t <= tmax; ++t) ranges.push_back({t, t});
  for (Timestamp t = 2; t <= tmax; t += std::max<Timestamp>(1, tmax / 5)) {
    ranges.push_back({t, tmax});
  }
  Rng rng(seed);
  for (int i = 0; i < 12; ++i) {
    const auto a = static_cast<Timestamp>(rng.NextInRange(1, tmax));
    const auto b = static_cast<Timestamp>(rng.NextInRange(1, tmax));
    ranges.push_back({std::min(a, b), std::max(a, b)});
  }
  return ranges;
}

/// For every k the index holds and every range: the VCT read off slice k
/// equals the fixpoint builder's by operator==, and the ECS matches window
/// by window. One arena serves every read, so reuse must not leak state.
void ExpectSliceReadsMatchBuilder(const TemporalGraph& g,
                                  const PhcIndex& index,
                                  const std::vector<Window>& ranges,
                                  const std::string& label) {
  ASSERT_GE(index.max_k(), 1u) << label;
  VctBuildArena arena;
  for (uint32_t k = 1; k <= index.max_k(); ++k) {
    for (const Window& r : ranges) {
      const std::string where = label + " k=" + std::to_string(k) +
                                " range [" + std::to_string(r.start) + "," +
                                std::to_string(r.end) + "]";
      const VctBuildResult built = BuildVctAndEcs(g, k, r);
      const VctBuildResult read = ReadVctAndEcs(g, index.Slice(k), r, &arena);
      EXPECT_TRUE(read.vct == built.vct) << where;
      ExpectSameVct(read.vct, built.vct, where);
      ExpectSameEcs(read.ecs, built.ecs, where);
    }
  }
}

// Every k of the graph, not just the case's k: a read serves any slice.
TEST_P(VctBuilderEquivalenceTest, SliceReadMatchesBuilder) {
  const BuilderCase& c = GetParam();
  TemporalGraph g = GenerateUniformRandom(c.n, c.m, c.T, c.seed);
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  ExpectSliceReadsMatchBuilder(g, *index,
                               SeededRanges(g.num_timestamps(), c.seed),
                               "seed " + std::to_string(c.seed));
}

TEST(VctSliceReadTest, MatchesBuilderOnPaperExample) {
  TemporalGraph g = PaperExampleGraph();
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  std::vector<Window> ranges = SeededRanges(g.num_timestamps(), 31);
  ranges.push_back({1, 4});  // Figure 2's range
  ranges.push_back({1, 6});  // Example 9's range
  ExpectSliceReadsMatchBuilder(g, *index, ranges, "paper example");
}

TEST(VctSliceReadTest, MatchesBuilderWithParallelEdges) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    TemporalGraphBuilder b;
    b.SetDeduplicateExact(false);
    for (int i = 0; i < 90; ++i) {
      const auto u = static_cast<VertexId>(rng.NextBounded(10));
      const auto v = static_cast<VertexId>(rng.NextBounded(10));
      const auto t = static_cast<Timestamp>(rng.NextInRange(1, 12));
      const uint32_t copies = 1 + static_cast<uint32_t>(rng.NextBounded(3));
      for (uint32_t c = 0; c < copies; ++c) b.AddEdge(u, v, t);
    }
    auto g = b.Build();
    ASSERT_TRUE(g.ok());
    auto index = PhcIndex::Build(*g, g->FullRange());
    ASSERT_TRUE(index.ok());
    ExpectSliceReadsMatchBuilder(*g, *index,
                                 SeededRanges(g->num_timestamps(), seed),
                                 "parallel edges seed " + std::to_string(seed));
  }
}

// Slices of a Rebuild-maintained index serve reads exactly like built ones:
// slices reused by pointer from the predecessor and slices whose start
// band was recomputed and stitched back in.
TEST(VctSliceReadTest, MatchesBuilderOnRebuiltSlices) {
  TemporalGraph dense = GenerateUniformRandom(18, 300, 12, 21);
  const VertexId p = dense.num_vertices(), q = p + 1;
  auto based = dense.AppendEdges(std::vector<RawTemporalEdge>{
      {p, 0, dense.RawTimestamp(1)}, {q, 1, dense.RawTimestamp(2)}});
  ASSERT_TRUE(based.ok());
  const TemporalGraph base = std::move(based->graph);
  auto old_index = PhcIndex::Build(base, base.FullRange());
  ASSERT_TRUE(old_index.ok());

  // A pendant-to-pendant edge: slices above its core bound carry by
  // pointer, the dirty ones are maintained by suffix.
  const Timestamp tmax = base.num_timestamps();
  for (Timestamp at : {tmax / 2, tmax}) {
    auto update = base.AppendEdges(
        std::vector<RawTemporalEdge>{{p, q, base.RawTimestamp(at)}});
    ASSERT_TRUE(update.ok());
    PhcRebuildStats stats;
    auto rebuilt = PhcIndex::Rebuild(*old_index, update->graph, update->delta,
                                     PhcBuildOptions{}, &stats);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_GT(stats.slices_reused, 0u) << at;
    EXPECT_GT(stats.suffix_rebuilds, 0u) << at;
    ExpectSliceReadsMatchBuilder(update->graph, *rebuilt,
                                 SeededRanges(tmax, at),
                                 "rebuilt at " + std::to_string(at));
  }
}

}  // namespace
}  // namespace tkc
