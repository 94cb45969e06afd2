// Unit tests of the benchmark's own helpers: the tail-percentile rule, the
// seeded draws, and span self-time arithmetic.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "datasets/registry.h"
#include "graph/graph_stats.h"
#include "measure.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Samples of 1..n milliseconds, recorded in descending order.
LatencyHistogram OneToMillis(int n) {
  LatencyHistogram h;
  for (int i = n; i >= 1; --i) h.Record(i * 1e-3);
  return h;
}

TEST(LatencyHistogramTest, KeepsTenSamplesBeyondTheReportedRank) {
  // 1000 samples: p99 is rank 990, leaving exactly 10 above it.
  Percentile p = OneToMillis(1000).Tail(0.99);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_NEAR(p.value, 0.990, 0.990 * 0.008);
  EXPECT_DOUBLE_EQ(p.rank, 0.99);

  // 500 samples: p99 would leave 5 beyond, so the rank drops to 490/500.
  p = OneToMillis(500).Tail(0.99);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.samples, 500u);
  EXPECT_NEAR(p.value, 0.490, 0.490 * 0.008);
  EXPECT_DOUBLE_EQ(p.rank, 0.98);
}

TEST(LatencyHistogramTest, MedianNeedsNoLowering) {
  const Percentile p = OneToMillis(100).Tail(0.5);
  EXPECT_TRUE(p.valid);
  EXPECT_NEAR(p.value, 0.050, 0.050 * 0.008);
  EXPECT_DOUBLE_EQ(Median({5, 1, 4, 2, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2);
}

TEST(LatencyHistogramTest, TooFewSamplesIsInvalidButCounted) {
  const Percentile p = OneToMillis(10).Tail(0.9);
  EXPECT_FALSE(p.valid);
  EXPECT_EQ(p.samples, 10u);
  const Percentile q = OneToMillis(11).Tail(0.9);
  EXPECT_TRUE(q.valid);
  EXPECT_NEAR(q.value, 0.001, 0.001 * 0.008);
}

TEST(LatencyHistogramTest, MergeAddsCountsAndSmallValuesAreExact) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 20; ++i) a.Record(50e-9);  // below 128 ns: own bin
  for (int i = 0; i < 20; ++i) b.Record(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 40u);
  EXPECT_GE(a.Tail(0.25).value, 50e-9);
  EXPECT_LT(a.Tail(0.25).value, 51e-9);
  EXPECT_NEAR(a.Tail(0.75).value, 2.0, 2.0 * 0.008);
}

TEST(LatencyHistogramTest, InterquartileMeanDropsEachOuterQuarter) {
  // 8 values: the lowest two and the highest two are dropped.
  EXPECT_DOUBLE_EQ(InterquartileMean({100, 1, 5, 3, 4, 6, 0, 50}), 4.5);
  // 3 values: floor(3 / 4) = 0 dropped, a plain mean.
  EXPECT_DOUBLE_EQ(InterquartileMean({1, 2, 6}), 3);
  EXPECT_DOUBLE_EQ(InterquartileMean({}), 0);
}

TEST(LatencyHistogramTest, MedianTailTakesTheMiddleWindow) {
  // Windows whose p99s are about 0.99, 1.98 and 2.97 ms.
  std::vector<LatencyHistogram> windows(3);
  for (int w = 0; w < 3; ++w) {
    for (int i = 1000; i >= 1; --i) windows[w].Record((w + 1) * i * 1e-6);
  }
  Percentile p = MedianTail(windows, 0.99);
  EXPECT_TRUE(p.valid);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_NEAR(p.value, 1.98e-3, 1.98e-3 * 0.008);

  // Two windows are too few for a median.
  windows.pop_back();
  EXPECT_FALSE(MedianTail(windows, 0.99).valid);

  // A window too small to back p99 unlowered makes the figure invalid.
  windows.push_back(OneToMillis(500));
  windows.push_back(OneToMillis(1000));
  EXPECT_FALSE(MedianTail(windows, 0.99).valid);
  EXPECT_TRUE(MedianTail(windows, 0.98).valid);
}

TEST(DrawTest, ColdKeysNeverRepeat) {
  // A small timeline forces many colliding draws.
  ColdKeyStream stream(7, /*kmax=*/12, /*tmax=*/60);
  std::unordered_set<uint64_t> seen;
  for (int call = 0; call < 200; ++call) {
    for (const tkc::Query& q : stream.Next(8)) {
      EXPECT_TRUE(seen.insert(PackQuery(q)).second);
      EXPECT_GE(q.k, 2u);
      EXPECT_TRUE(q.range.Valid());
      EXPECT_LE(q.range.end, 60u);
    }
  }
  EXPECT_EQ(seen.size(), 1600u);
}

TEST(DrawTest, SameSeedSameDraws) {
  const auto g = tkc::GenerateByName("CM", 0.4);
  ASSERT_TRUE(g.ok());
  const uint32_t kmax = tkc::ComputeGraphStats(*g).kmax;
  const tkc::Timestamp tmax = g->num_timestamps();

  ColdKeyStream a(StreamSeed(5, 1), kmax, tmax);
  ColdKeyStream b(StreamSeed(5, 1), kmax, tmax);
  ColdKeyStream c(StreamSeed(6, 1), kmax, tmax);
  const auto ka = a.Next(64);
  const auto kb = b.Next(64);
  const auto kc = c.Next(64);
  bool differs = false;
  for (size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(PackQuery(ka[i]), PackQuery(kb[i]));
    differs = differs || PackQuery(ka[i]) != PackQuery(kc[i]);
  }
  EXPECT_TRUE(differs);

  const auto pa = DrawKeyPool(StreamSeed(5, 2), kmax, tmax, kKeyPoolSize);
  const auto pb = DrawKeyPool(StreamSeed(5, 2), kmax, tmax, kKeyPoolSize);
  ASSERT_EQ(pa.size(), kKeyPoolSize);
  std::unordered_set<uint64_t> distinct;
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(PackQuery(pa[i]), PackQuery(pb[i]));
    distinct.insert(PackQuery(pa[i]));
  }
  EXPECT_EQ(distinct.size(), pa.size());

  const auto ba = DrawUpdateBatches(*g, StreamSeed(5, 3), 10);
  const auto bb = DrawUpdateBatches(*g, StreamSeed(5, 3), 10);
  ASSERT_EQ(ba.size(), 10u);
  for (size_t i = 0; i < ba.size(); ++i) {
    ASSERT_EQ(ba[i].size(), kEdgesPerBatch);
    for (size_t e = 0; e < ba[i].size(); ++e) {
      EXPECT_EQ(ba[i][e].u, bb[i][e].u);
      EXPECT_EQ(ba[i][e].v, bb[i][e].v);
      EXPECT_EQ(ba[i][e].raw_time, bb[i][e].raw_time);
    }
  }
}

TEST(DrawTest, EveryLiveBatchPreservesTheTimeline) {
  const auto g = tkc::GenerateByName("CM", 0.4);
  ASSERT_TRUE(g.ok());
  const auto batches = DrawUpdateBatches(*g, StreamSeed(9, 3), 40);
  tkc::TemporalGraph current = *g;
  for (const auto& batch : batches) {
    auto update = current.AppendEdges(batch);
    ASSERT_TRUE(update.ok());
    EXPECT_TRUE(update->delta.timestamps_preserved);
    EXPECT_TRUE(update->delta.vertices_preserved);
    EXPECT_EQ(update->graph.num_timestamps(), g->num_timestamps());
    current = std::move(update->graph);
  }
}

TEST(SelfTimeTest, SubtractsTheUnionOfClippedChildren) {
  std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100},
      {2, 1, 7, "a", 10, 30},   // covered 10..30
      {3, 1, 7, "b", 20, 50},   // overlaps a: union 10..50
      {4, 1, 7, "c", 90, 130},  // clipped to 90..100
      {5, 3, 7, "d", 25, 35},   // grandchild: counts against b only
      {6, 0, 8, "other", 0, 40},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 10);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 40);
}

TEST(SelfTimeTest, ChildOutsideItsParentCoversNothing) {
  std::vector<Span> spans = {
      {1, 0, 1, "call", 0, 10},
      {2, 1, 1, "replay", 20, 30},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 10);
  EXPECT_EQ(self[1], 10);
}

TEST(SpanLogTest, IdsStartAtTheBaseAndCloseInPlace) {
  SpanLog log(uint64_t{3} << 40);
  const uint64_t a = log.Begin("x", 1, 0);
  const uint64_t b = log.Add("y", 1, a, 5, 9);
  log.End(a);
  EXPECT_EQ(a, uint64_t{3} << 40);
  EXPECT_EQ(b, a + 1);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[0].start_ns);
  EXPECT_EQ(log.spans()[1].parent, a);
}

}  // namespace
}  // namespace perfbench
