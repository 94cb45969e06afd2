// Tests of the public one-call API: validation, stats plumbing, method
// selection, and deadline propagation.

#include "core/temporal_kcore.h"

#include <gtest/gtest.h>

#include "datasets/generators.h"
#include "vct/phc_index.h"

namespace tkc {
namespace {

TEST(TemporalKCoreApiTest, ValidatesK) {
  TemporalGraph g = PaperExampleGraph();
  CountingSink sink;
  Status s = RunTemporalKCoreQuery(g, 0, g.FullRange(), &sink);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TemporalKCoreApiTest, ValidatesRange) {
  TemporalGraph g = PaperExampleGraph();
  CountingSink sink;
  EXPECT_EQ(RunTemporalKCoreQuery(g, 2, Window{0, 5}, &sink).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunTemporalKCoreQuery(g, 2, Window{1, 8}, &sink).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunTemporalKCoreQuery(g, 2, Window{4, 2}, &sink).code(),
            StatusCode::kInvalidArgument);
}

TEST(TemporalKCoreApiTest, ValidatesSink) {
  TemporalGraph g = PaperExampleGraph();
  EXPECT_EQ(RunTemporalKCoreQuery(g, 2, g.FullRange(), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(TemporalKCoreApiTest, StatsPopulated) {
  TemporalGraph g = GenerateUniformRandom(15, 100, 12, 3);
  CountingSink sink;
  QueryStats stats;
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, g.FullRange(), &sink, {}, &stats)
                  .ok());
  EXPECT_EQ(stats.num_cores, sink.num_cores());
  EXPECT_EQ(stats.result_size_edges, sink.result_size_edges());
  EXPECT_GT(stats.vct_size, 0u);
  EXPECT_GT(stats.ecs_size, 0u);
  EXPECT_GE(stats.total_seconds,
            stats.coretime_seconds + stats.enumeration_seconds - 1e-6);
  EXPECT_GT(stats.peak_memory_bytes, 0u);
}

TEST(TemporalKCoreApiTest, AllEnumMethodsAgree) {
  TemporalGraph g = GenerateUniformRandom(12, 80, 10, 5);
  CollectingSink a, b, c;
  QueryOptions oa, ob, oc;
  oa.enum_method = EnumMethod::kEnum;
  ob.enum_method = EnumMethod::kEnumBase;
  oc.enum_method = EnumMethod::kNaive;
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, g.FullRange(), &a, oa).ok());
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, g.FullRange(), &b, ob).ok());
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, g.FullRange(), &c, oc).ok());
  a.SortCanonically();
  b.SortCanonically();
  c.SortCanonically();
  EXPECT_EQ(a.cores(), c.cores());
  EXPECT_EQ(b.cores(), c.cores());
}

TEST(TemporalKCoreApiTest, NaiveVctMethodAgrees) {
  TemporalGraph g = GenerateUniformRandom(12, 80, 10, 7);
  CollectingSink fast, slow;
  QueryOptions of, os;
  of.vct_method = VctMethod::kEfficient;
  os.vct_method = VctMethod::kNaive;
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, g.FullRange(), &fast, of).ok());
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, g.FullRange(), &slow, os).ok());
  fast.SortCanonically();
  slow.SortCanonically();
  EXPECT_EQ(fast.cores(), slow.cores());
}

TEST(TemporalKCoreApiTest, DeadlinePropagates) {
  TemporalGraph g = GenerateUniformRandom(25, 300, 40, 9);
  CountingSink sink;
  QueryOptions options;
  options.deadline = Deadline::AfterSeconds(-1.0);
  Status s = RunTemporalKCoreQuery(g, 2, g.FullRange(), &sink, options);
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

TEST(TemporalKCoreApiTest, SubRangeQueriesWork) {
  TemporalGraph g = PaperExampleGraph();
  CountingSink sink;
  QueryStats stats;
  ASSERT_TRUE(
      RunTemporalKCoreQuery(g, 2, Window{1, 4}, &sink, {}, &stats).ok());
  EXPECT_EQ(sink.num_cores(), 2u);       // Figure 2
  EXPECT_EQ(sink.result_size_edges(), 9u);  // 6 + 3 edges
}

TEST(TemporalKCoreApiTest, MethodNames) {
  EXPECT_STREQ(EnumMethodName(EnumMethod::kEnum), "Enum");
  EXPECT_STREQ(EnumMethodName(EnumMethod::kEnumBase), "EnumBase");
  EXPECT_STREQ(EnumMethodName(EnumMethod::kNaive), "Naive");
}

TEST(TemporalKCoreApiTest, SingleTimestampRange) {
  TemporalGraph g = PaperExampleGraph();
  CountingSink sink;
  ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, Window{5, 5}, &sink).ok());
  EXPECT_EQ(sink.num_cores(), 1u);  // the {v1,v6,v7} triangle at t=5
}

TEST(TemporalKCoreApiTest, CountMatchesEnumWithAndWithoutIndex) {
  TemporalGraph g = GenerateUniformRandom(15, 100, 12, 3);
  auto index = PhcIndex::Build(g, g.FullRange());
  ASSERT_TRUE(index.ok());
  for (const Window& range : {g.FullRange(), Window{3, 9}}) {
    CountingSink sink;
    QueryStats walked;
    ASSERT_TRUE(RunTemporalKCoreQuery(g, 2, range, &sink, {}, &walked).ok());
    const PhcIndex* sources[] = {nullptr, &*index};
    for (const PhcIndex* source : sources) {
      QueryStats counted;
      const Status s =
          CountTemporalKCores(g, 2, range, source, nullptr, {}, &counted);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(counted.num_cores, walked.num_cores);
      EXPECT_EQ(counted.result_size_edges, walked.result_size_edges);
      EXPECT_EQ(counted.vct_size, walked.vct_size);
      EXPECT_EQ(counted.ecs_size, walked.ecs_size);
      EXPECT_GT(counted.peak_memory_bytes, 0u);
    }
  }
}

TEST(TemporalKCoreApiTest, CountValidatesAndTimesOut) {
  TemporalGraph g = GenerateUniformRandom(25, 300, 40, 9);
  const Window full = g.FullRange();
  const Deadline expired = Deadline::AfterSeconds(-1.0);
  QueryStats stats;
  Status s = CountTemporalKCores(g, 0, full, nullptr, nullptr, {}, &stats);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  s = CountTemporalKCores(g, 2, Window{4, 2}, nullptr, nullptr, {}, &stats);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  s = CountTemporalKCores(g, 2, full, nullptr, nullptr, expired, &stats);
  EXPECT_EQ(s.code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace tkc
