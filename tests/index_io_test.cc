// Round-trip and corruption-handling tests of the index serialization: the
// full-PHC container, the VCT slice codec it is built from, and the
// QueryEngine persist/load path (a loaded admission index must answer a
// query corpus identically to the freshly built engine).

#include "vct/index_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "datasets/generators.h"
#include "serve/query_engine.h"
#include "vct/vct_builder.h"

namespace tkc {
namespace {

VctBuildResult BuildExample() {
  return BuildVctAndEcs(PaperExampleGraph(), 2, Window{1, 7});
}

void ExpectVctEqual(const VertexCoreTimeIndex& a,
                    const VertexCoreTimeIndex& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.range(), b.range());
  ASSERT_EQ(a.size(), b.size());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    auto ea = a.EntriesOf(v), eb = b.EntriesOf(v);
    ASSERT_EQ(ea.size(), eb.size()) << v;
    for (size_t i = 0; i < ea.size(); ++i) EXPECT_EQ(ea[i], eb[i]);
  }
}

TEST(IndexIoTest, VctRoundTripBytes) {
  VctBuildResult built = BuildExample();
  std::string bytes = SerializeVctIndex(built.vct);
  auto loaded = DeserializeVctIndex(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectVctEqual(built.vct, *loaded);
}

TEST(IndexIoTest, RoundTripRandomGraphs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    TemporalGraph g = GenerateUniformRandom(20, 150, 18, seed);
    VctBuildResult built = BuildVctAndEcs(g, 3, Window{3, 15});
    auto vct = DeserializeVctIndex(SerializeVctIndex(built.vct));
    ASSERT_TRUE(vct.ok());
    ExpectVctEqual(built.vct, *vct);
  }
}

TEST(IndexIoTest, PhcRoundTripBytesAndFile) {
  TemporalGraph g = GenerateUniformRandom(24, 400, 16, 9);
  for (uint32_t cap : {0u, 2u}) {
    PhcBuildOptions options;
    options.max_k = cap;
    auto built = PhcIndex::Build(g, g.FullRange(), options);
    ASSERT_TRUE(built.ok());
    auto loaded = DeserializePhcIndex(SerializePhcIndex(*built));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(built->max_k(), loaded->max_k());
    EXPECT_EQ(built->range(), loaded->range());
    EXPECT_EQ(built->complete(), loaded->complete());
    EXPECT_EQ(built->size(), loaded->size());
    for (uint32_t k = 1; k <= built->max_k(); ++k) {
      ExpectVctEqual(built->Slice(k), loaded->Slice(k));
    }
    std::string path = ::testing::TempDir() + "/tkc_index.phc";
    ASSERT_TRUE(SavePhcIndex(*built, path).ok());
    auto from_file = LoadPhcIndex(path);
    ASSERT_TRUE(from_file.ok());
    EXPECT_EQ(built->size(), from_file->size());
    std::remove(path.c_str());
  }
}

TEST(IndexIoTest, PhcCorruptionRejected) {
  TemporalGraph g = GenerateUniformRandom(16, 150, 10, 4);
  auto built = PhcIndex::Build(g, g.FullRange(), PhcBuildOptions{});
  ASSERT_TRUE(built.ok());
  std::string bytes = SerializePhcIndex(*built);
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(DeserializePhcIndex(bad_magic).status().code(),
            StatusCode::kCorruption);
  for (size_t cut : {size_t{6}, size_t{20}, bytes.size() - 3}) {
    EXPECT_EQ(DeserializePhcIndex(bytes.substr(0, cut)).status().code(),
              StatusCode::kCorruption)
        << cut;
  }
  EXPECT_EQ(DeserializePhcIndex(bytes + "x").status().code(),
            StatusCode::kCorruption);
  // A VCT blob is not a PHC container.
  EXPECT_EQ(DeserializePhcIndex(SerializeVctIndex(built->Slice(1)))
                .status()
                .code(),
            StatusCode::kCorruption);
}

// The ROADMAP persist/load follow-up with a correctness net: an engine
// whose admission index was loaded from disk must answer a query corpus
// (including admission-rejected empty ranges and beyond-kmax queries)
// identically to the engine that built the index itself.
TEST(IndexIoTest, EngineFromLoadedIndexAnswersCorpusIdentically) {
  TemporalGraph g = GenerateUniformRandom(30, 500, 20, 23);

  QueryEngineOptions build_options;
  build_options.build_index = true;
  auto built_engine = QueryEngine::Create(g, build_options);
  ASSERT_TRUE(built_engine.ok());
  ASSERT_NE(built_engine->index(), nullptr);

  // Save the built admission index, reload it, start a second engine from
  // the loaded bytes.
  std::string path = ::testing::TempDir() + "/tkc_engine.phc";
  ASSERT_TRUE(SavePhcIndex(*built_engine->index(), path).ok());
  auto loaded = LoadPhcIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  QueryEngineOptions load_options;
  load_options.preloaded_index = &*loaded;
  auto loaded_engine = QueryEngine::Create(g, load_options);
  ASSERT_TRUE(loaded_engine.ok()) << loaded_engine.status().ToString();
  ASSERT_NE(loaded_engine->index(), nullptr);
  EXPECT_EQ(built_engine->index()->size(), loaded_engine->index()->size());

  // Corpus: every k in [1, kmax+2] crossed with a window grid — admission
  // hits, misses, and beyond-index ks alike.
  const Timestamp tmax = g.num_timestamps();
  std::vector<Query> corpus;
  for (uint32_t k = 1; k <= built_engine->index()->max_k() + 2; ++k) {
    for (Timestamp ts = 1; ts <= tmax; ts += 3) {
      for (Timestamp te = ts; te <= tmax; te += 4) {
        corpus.push_back(Query{k, Window{ts, te}});
      }
    }
  }
  std::vector<RunOutcome> from_built = built_engine->ServeBatch(corpus);
  std::vector<RunOutcome> from_loaded = loaded_engine->ServeBatch(corpus);
  ASSERT_EQ(from_built.size(), from_loaded.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_EQ(from_built[i].status.code(), from_loaded[i].status.code()) << i;
    EXPECT_EQ(from_built[i].num_cores, from_loaded[i].num_cores) << i;
    EXPECT_EQ(from_built[i].result_size_edges,
              from_loaded[i].result_size_edges)
        << i;
    EXPECT_EQ(from_built[i].vct_size, from_loaded[i].vct_size) << i;
    EXPECT_EQ(from_built[i].ecs_size, from_loaded[i].ecs_size) << i;
  }
  // The admission fast path must have fired on both engines equally often.
  EXPECT_EQ(built_engine->stats().index_rejections,
            loaded_engine->stats().index_rejections);
  EXPECT_GT(built_engine->stats().index_rejections, 0u);

  // A mismatched graph is rejected up front: one with a longer timeline
  // (the range check), and one with the same vertex count and timeline
  // (slice 1 checked against the graph's edge times). Misses read the
  // index's slices, so either would otherwise serve wrong answers.
  QueryEngineOptions bad;
  bad.preloaded_index = &*loaded;
  TemporalGraph longer = GenerateUniformRandom(30, 500, 24, 77);
  EXPECT_FALSE(QueryEngine::Create(longer, bad).ok());
  TemporalGraph same_shape = GenerateUniformRandom(30, 500, 20, 77);
  ASSERT_EQ(same_shape.num_vertices(), g.num_vertices());
  ASSERT_EQ(same_shape.FullRange(), g.FullRange());
  auto same_shape_engine = QueryEngine::Create(same_shape, bad);
  EXPECT_EQ(same_shape_engine.status().code(), StatusCode::kInvalidArgument);

  // So is a sliceless index (format-valid but describing nothing): with a
  // complete empty index the engine would "prove" every query empty.
  auto empty = PhcIndex::FromSlices(g.FullRange(), /*complete=*/true, {});
  ASSERT_TRUE(empty.ok());
  QueryEngineOptions sliceless;
  sliceless.preloaded_index = &*empty;
  EXPECT_FALSE(QueryEngine::Create(g, sliceless).ok());
}

TEST(IndexIoTest, BadMagicRejected) {
  std::string bytes = SerializeVctIndex(BuildExample().vct);
  bytes[0] ^= 0xFF;
  auto loaded = DeserializeVctIndex(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(IndexIoTest, TruncationRejected) {
  std::string vct_bytes = SerializeVctIndex(BuildExample().vct);
  for (size_t cut : {size_t{3}, size_t{10}, vct_bytes.size() - 1}) {
    auto loaded = DeserializeVctIndex(vct_bytes.substr(0, cut));
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << cut;
  }
}

TEST(IndexIoTest, TrailingGarbageRejected) {
  // Every vertex block parses; only the end-of-input check catches this.
  std::string bytes = SerializeVctIndex(BuildExample().vct);
  bytes += "junk";
  auto loaded = DeserializeVctIndex(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.status().message(), "trailing bytes in VCT");
}

TEST(IndexIoTest, CorruptOrderingRejected) {
  // Flip an entry's core time to break monotonicity: locate the first
  // vertex with >= 2 entries and swap its two entry payloads.
  VctBuildResult built = BuildExample();
  std::string bytes = SerializeVctIndex(built.vct);
  // Header: 4*5 + 8 = 28 bytes; vertex blocks follow. Vertex 0 has no
  // entries (count 0), vertex 1 has 4. Corrupt by writing a huge start in
  // the first entry of the first non-empty vertex: offset 28 (v0 count) +4
  // (v1 count) = 32 -> first entry start at 32.
  uint32_t huge = 0xFFFFFFFE;
  std::memcpy(bytes.data() + 36, &huge, 4);
  EXPECT_EQ(DeserializeVctIndex(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(IndexIoTest, MissingFileIsIOError) {
  EXPECT_EQ(LoadPhcIndex("/nonexistent/x.phc").status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace tkc
