#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "datasets/generators.h"
#include "graph/graph_stats.h"
#include "graph/window_peeler.h"
#include "util/thread_pool.h"

namespace tkc {
namespace {

TemporalGraph ServeGraph() {
  SyntheticSpec spec;
  spec.name = "serve";
  spec.num_vertices = 40;
  spec.num_edges = 800;
  spec.num_timestamps = 200;
  spec.burstiness = 0.3;
  spec.seed = 3;
  return GenerateSynthetic(spec);
}

/// The workload the bit-identity tests serve: generated valid queries plus
/// handcrafted empty-result, full-span, and invalid queries.
std::vector<Query> MixedQueries(const TemporalGraph& g, uint32_t kmax) {
  WorkloadSpec spec;
  spec.num_queries = 4;
  spec.range_fraction = 0.15;
  auto generated = GenerateQueries(g, kmax, spec);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  std::vector<Query> queries = generated.ok() ? *generated
                                              : std::vector<Query>{};
  queries.push_back(Query{kmax + 5, Window{1, g.num_timestamps()}});  // empty
  queries.push_back(Query{2, g.FullRange()});
  queries.push_back(Query{2, Window{5, 5}});           // single timestamp
  queries.push_back(Query{3, Window{0, 10}});          // invalid: start < 1
  queries.push_back(Query{3, Window{10, 5}});          // invalid: reversed
  queries.push_back(
      Query{3, Window{1, g.num_timestamps() + 50}});   // invalid: past span
  return queries;
}

/// Result fields must be bit-identical; execution fields (timings, memory)
/// are engine artifacts and deliberately not compared.
void ExpectSameResults(const RunOutcome& serial, const RunOutcome& served,
                       const char* context) {
  ASSERT_EQ(serial.status.code(), served.status.code()) << context;
  if (!serial.status.ok()) return;
  EXPECT_EQ(serial.num_cores, served.num_cores) << context;
  EXPECT_EQ(serial.result_size_edges, served.result_size_edges) << context;
  EXPECT_EQ(serial.vct_size, served.vct_size) << context;
  EXPECT_EQ(serial.ecs_size, served.ecs_size) << context;
}

// The engine counts its misses (CountTemporalKCores); the reference walks
// them with the paper's Enum.
TEST(QueryEngineBitIdenticalTest, MatchesSerialEnumAt1And2And8Threads) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);

  std::vector<RunOutcome> reference;
  reference.reserve(queries.size());
  for (const Query& q : queries) {
    reference.push_back(RunAlgorithm(AlgorithmKind::kEnum, g, q));
  }

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    QueryEngineOptions options;
    options.pool = &pool;
    options.build_index = true;  // exercise the admission fast path too
    auto engine = QueryEngine::Create(g, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::vector<RunOutcome> served = engine->ServeBatch(queries);
    ASSERT_EQ(served.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::string context = "threads=" + std::to_string(threads) + " query#" +
                            std::to_string(i);
      ExpectSameResults(reference[i], served[i], context.c_str());
    }
    // Serving the same batch again must reproduce the same results from the
    // cache (hits for every query whose outcome was cacheable).
    std::vector<RunOutcome> replay = engine->ServeBatch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], replay[i], "replay");
    }
  }
}

TEST(QueryEngineAdmissionTest, EmergenceTableMatchesPeelingOracle) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  // GenerateQueries' invariant: a range contains a temporal k-core iff the
  // widest window's k-core is non-empty. Check MayContainCore against the
  // peeling oracle over a grid of (k, range).
  const Timestamp tmax = g.num_timestamps();
  for (uint32_t k = 1; k <= stats.kmax + 2; ++k) {
    for (Timestamp start : {Timestamp{1}, Timestamp{tmax / 3},
                            Timestamp{tmax / 2}, Timestamp{tmax - 5}}) {
      for (Timestamp end :
           {start, Timestamp{start + 10}, Timestamp{(start + tmax) / 2},
            tmax}) {
        if (start < 1 || end < start || end > tmax) continue;
        Window range{start, end};
        std::vector<bool> in_core = ComputeWindowCoreVertices(g, k, range);
        bool oracle =
            std::find(in_core.begin(), in_core.end(), true) != in_core.end();
        EXPECT_EQ(engine->MayContainCore(k, range), oracle)
            << "k=" << k << " range=[" << start << "," << end << "]";
      }
    }
  }
}

TEST(QueryEngineAdmissionTest, RejectionProducesPipelineIdenticalOutcome) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  const Query empty_query{stats.kmax + 3, Window{2, g.num_timestamps() / 2}};
  RunOutcome pipeline = RunAlgorithm(AlgorithmKind::kEnum, g, empty_query);
  RunOutcome served = engine->ServeBatch({empty_query})[0];
  ExpectSameResults(pipeline, served, "rejected query");
  EXPECT_EQ(engine->stats().index_rejections, 1u);
  EXPECT_EQ(engine->stats().executed, 0u);
}

TEST(QueryEngineCacheTest, RepeatedBatchHitsWithoutReexecution) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 3;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());

  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  std::vector<RunOutcome> first = engine->ServeBatch(*queries);
  ServeStats after_first = engine->stats();
  EXPECT_EQ(after_first.executed, queries->size());
  EXPECT_EQ(after_first.cache_hits, 0u);

  std::vector<RunOutcome> second = engine->ServeBatch(*queries);
  ServeStats after_second = engine->stats();
  EXPECT_EQ(after_second.executed, queries->size());  // nothing re-ran
  EXPECT_EQ(after_second.cache_hits, queries->size());
  for (size_t i = 0; i < queries->size(); ++i) {
    ExpectSameResults(first[i], second[i], "cache replay");
  }

  engine->ClearCache();
  engine->ServeBatch(*queries);
  EXPECT_EQ(engine->stats().executed, 2 * queries->size());
}

TEST(QueryEngineCacheTest, BoundedCapacityEvicts) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 3;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  // Make the three queries distinct cache keys even if ranges repeat.
  (*queries)[1].range.end = (*queries)[1].range.end - 1;
  (*queries)[2].range.start = (*queries)[2].range.start + 1;

  QueryEngineOptions options;
  // Capacity 1 caps the memo at one stripe: an exact LRU, so the eviction
  // order below does not depend on how the keys hash across stripes.
  options.cache_capacity = 1;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  for (const Query& q : *queries) engine->ServeBatch({q});
  EXPECT_EQ(engine->stats().cache_evictions, 2u);
  // Only query 2 is still resident and hits; query 0 was evicted (LRU), so
  // re-serving it executes again.
  engine->ServeBatch({(*queries)[2]});
  engine->ServeBatch({(*queries)[0]});
  ServeStats stats_now = engine->stats();
  EXPECT_EQ(stats_now.executed, queries->size() + 1);
  EXPECT_EQ(stats_now.cache_hits, 1u);
}

TEST(QueryEngineCacheTest, InBatchDuplicatesExecuteOnce) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  WorkloadSpec spec;
  spec.num_queries = 2;
  auto queries = GenerateQueries(g, stats.kmax, spec);
  ASSERT_TRUE(queries.ok());
  // A batch of 6 submissions over 2 distinct queries.
  std::vector<Query> batch = {(*queries)[0], (*queries)[1], (*queries)[0],
                              (*queries)[0], (*queries)[1], (*queries)[1]};

  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> served = engine->ServeBatch(batch);
  ServeStats after = engine->stats();
  EXPECT_EQ(after.executed, 2u);
  EXPECT_EQ(after.batch_dedup_hits, 4u);
  EXPECT_EQ(after.queries_served, batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    RunOutcome reference = RunAlgorithm(AlgorithmKind::kEnum, g, batch[i]);
    ExpectSameResults(reference, served[i], "deduped batch");
  }
}

TEST(QueryEngineConcurrencyTest, ConcurrentBatchSubmission) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);

  std::vector<RunOutcome> reference;
  for (const Query& q : queries) {
    reference.push_back(RunAlgorithm(AlgorithmKind::kEnum, g, q));
  }

  ThreadPool pool(4);
  QueryEngineOptions options;
  options.pool = &pool;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  constexpr int kClients = 4;
  std::vector<std::vector<RunOutcome>> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(
          [&, c] { results[c] = engine->ServeBatch(queries); });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], results[c][i], "concurrent client");
    }
  }
  EXPECT_EQ(engine->stats().queries_served, kClients * queries.size());
  EXPECT_EQ(engine->stats().batches, static_cast<uint64_t>(kClients));
}

TEST(QueryEngineIndexTest, IndexAnswersPointLookups) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  const PhcIndex* index = engine->index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->max_k(), stats.kmax);

  const Window window{1, g.num_timestamps()};
  std::vector<bool> in_core = ComputeWindowCoreVertices(g, 2, window);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(index->VertexInCore(u, window, 2), in_core[u]) << "u=" << u;
  }

  auto plain = QueryEngine::Create(g);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->index(), nullptr);
}

TEST(QueryEngineIndexTest, PreloadedCappedIndexIsRejected) {
  // Admission reads k > max_k() as "no such core", which a capped index
  // cannot prove: Create must refuse one rather than reject real cores.
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  ASSERT_GT(stats.kmax, 2u);
  auto capped = PhcIndex::Build(g, g.FullRange(), PhcBuildOptions{2});
  ASSERT_TRUE(capped.ok());
  ASSERT_FALSE(capped->complete());
  QueryEngineOptions options;
  options.preloaded_index = &*capped;
  auto engine = QueryEngine::Create(g, options);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryEngineAsyncTest, SubmitAsyncMatchesServeBatch) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    QueryEngineOptions options;
    options.pool = &pool;
    auto engine = QueryEngine::Create(g, options);
    ASSERT_TRUE(engine.ok());
    std::vector<RunOutcome> sync = engine->ServeBatch(queries);
    engine->ClearCache();  // async run must execute, not replay
    std::future<BatchResult> future = engine->SubmitAsync(queries);
    BatchResult async = future.get();
    ASSERT_EQ(async.outcomes.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(sync[i], async.outcomes[i], "async");
    }
    EXPECT_EQ(engine->stats().async_batches, 1u);
  }
}

TEST(QueryEngineAsyncTest, ManyOverlappingSubmissionsAllComplete) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  ThreadPool pool(4);
  QueryEngineOptions options;
  options.pool = &pool;
  options.async_queue_capacity = 2;  // tiny bound: forces backpressure
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  std::vector<std::future<BatchResult>> futures;
  for (int b = 0; b < 16; ++b) futures.push_back(engine->SubmitAsync(queries));
  for (std::future<BatchResult>& f : futures) {
    BatchResult result = f.get();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], result.outcomes[i], "overlapping");
    }
  }
  EXPECT_EQ(engine->stats().async_batches, 16u);
}

TEST(QueryEngineAsyncTest, CompletionQueueDeliversTaggedResults) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  ThreadPool pool(4);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  BatchCompletionQueue cq(8);
  constexpr uint64_t kBatches = 6;
  for (uint64_t tag = 0; tag < kBatches; ++tag) {
    engine->Submit({queries}, cq.CompletionFor(100 + tag));
  }
  uint64_t seen = 0;
  std::set<uint64_t> tags;
  BatchResult result;
  while (seen < kBatches && cq.Next(&result)) {
    ++seen;
    tags.insert(result.tag);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameResults(reference[i], result.outcomes[i], "cq");
    }
  }
  EXPECT_EQ(seen, kBatches);
  EXPECT_EQ(tags.size(), kBatches);  // every tag delivered exactly once
  EXPECT_EQ(*tags.begin(), 100u);
  engine->DrainAsync();
}

TEST(QueryEngineAsyncTest, EmptyBatchCompletesImmediately) {
  TemporalGraph g = ServeGraph();
  auto engine = QueryEngine::Create(g);
  ASSERT_TRUE(engine.ok());
  BatchResult result = engine->SubmitAsync({}).get();
  EXPECT_TRUE(result.outcomes.empty());
}

TEST(QueryEngineAsyncTest, DestructorDrainsInFlightBatches) {
  TemporalGraph g = ServeGraph();
  GraphStats stats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, stats.kmax);
  ThreadPool pool(4);
  std::vector<std::future<BatchResult>> futures;
  {
    QueryEngineOptions options;
    options.pool = &pool;
    auto engine = QueryEngine::Create(g, options);
    ASSERT_TRUE(engine.ok());
    for (int b = 0; b < 8; ++b) {
      futures.push_back(engine->SubmitAsync(queries));
    }
    // The engine leaves scope with batches in flight: its destructor must
    // block until every future is fulfillable.
  }
  for (std::future<BatchResult>& f : futures) {
    BatchResult result = f.get();
    EXPECT_EQ(result.outcomes.size(), queries.size());
    for (const RunOutcome& out : result.outcomes) {
      (void)out;  // fulfilled — that is the assertion
    }
  }
}

// --- robustness: deadlines, shedding, completion-queue shutdown ------------

TEST(QueryEngineDeadlineTest, ExpiredDeadlineTimesOutWithoutTouchingIndex) {
  TemporalGraph g = ServeGraph();
  QueryEngineOptions options;
  options.build_index = true;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  const Query query{2, Window{1, g.num_timestamps() / 2}};
  const Deadline expired = Deadline::AfterSeconds(-1.0);

  // Cache-miss path: nothing is cached yet, and the rejection must not
  // consult the cache, the admission index, or the miss pipeline.
  RunOutcome out = engine->ServeBatch({query}, expired)[0];
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  ServeStats stats = engine->stats();
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);  // the cache was never even consulted
  EXPECT_EQ(stats.index_rejections, 0u);
  EXPECT_EQ(stats.deadlines_expired, 1u);

  // Cache-hit path: serve it for real first, then the expired deadline must
  // still answer Timeout without replaying the cached outcome.
  RunOutcome real = engine->ServeBatch({query})[0];
  ASSERT_TRUE(real.status.ok());
  const uint64_t hits_before = engine->stats().cache_hits;
  out = engine->ServeBatch({query}, expired)[0];
  EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, hits_before);  // no lookup happened
  EXPECT_EQ(stats.deadlines_expired, 2u);

  // Sanity: an unexpired deadline serves the real (cached) outcome.
  out = engine->ServeBatch({query}, Deadline::AfterSeconds(30.0))[0];
  ASSERT_TRUE(out.status.ok());
  ExpectSameResults(real, out, "unexpired deadline");
}

TEST(QueryEngineDeadlineTest, ServeBatchWithExpiredDeadlineAllTimeout) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  auto engine = QueryEngine::Create(g);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> outcomes =
      engine->ServeBatch(queries, Deadline::AfterSeconds(-1.0));
  ASSERT_EQ(outcomes.size(), queries.size());
  for (const RunOutcome& out : outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine->stats().executed, 0u);
  EXPECT_EQ(engine->stats().deadlines_expired, 1u);
}

TEST(QueryEngineDeadlineTest, SubmitAsyncExpiredDeadlineSettlesWithTimeout) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  BatchResult result =
      engine->SubmitAsync(queries, Deadline::AfterSeconds(-1.0)).get();
  ASSERT_EQ(result.outcomes.size(), queries.size());
  for (const RunOutcome& out : result.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine->stats().deadlines_expired, 1u);
  EXPECT_EQ(engine->stats().executed, 0u);
}

TEST(QueryEngineDeadlineTest, BatchExpiringInQueueIsDroppedAtDispatch) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  // Block every pool worker so the dispatcher cannot run until released;
  // the batch's deadline dies while it sits in the request queue.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  std::future<BatchResult> future =
      engine->SubmitAsync(queries, Deadline::AfterSeconds(0.05));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  release.set_value();
  BatchResult result = future.get();
  for (const RunOutcome& out : result.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kTimeout);
  }
  EXPECT_EQ(engine->stats().deadlines_expired, 1u);
  EXPECT_EQ(engine->stats().executed, 0u);
}

TEST(QueryEngineShedTest, FullQueueShedsLeastRemainingDeadline) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  options.async_queue_capacity = 1;  // one queued batch, then the contest
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  std::vector<RunOutcome> reference = engine->ServeBatch(queries);
  engine->ClearCache();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  // A fills the queue; B (more remaining deadline) evicts it; C (least
  // remaining of all) loses its own contest and is rejected. Throughout,
  // no submission blocks — the pool is wedged until `release`.
  std::future<BatchResult> a =
      engine->SubmitAsync(queries, Deadline::AfterSeconds(5.0));
  std::future<BatchResult> b =
      engine->SubmitAsync(queries, Deadline::AfterSeconds(50.0));
  std::future<BatchResult> c =
      engine->SubmitAsync(queries, Deadline::AfterSeconds(0.5));
  // A and C settle without the pool running at all.
  BatchResult shed_a = a.get();
  BatchResult shed_c = c.get();
  for (const RunOutcome& out : shed_a.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  for (const RunOutcome& out : shed_c.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  release.set_value();
  BatchResult served = b.get();
  ASSERT_EQ(served.outcomes.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResults(reference[i], served.outcomes[i], "survivor");
  }
  ServeStats stats = engine->stats();
  EXPECT_EQ(stats.batches_shed, 2u);
  EXPECT_EQ(stats.async_batches, 3u);
}

TEST(QueryEngineShedTest, UnlimitedDeadlineBatchIsNeverEvicted) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  options.async_queue_capacity = 1;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  for (int w = 0; w < 2; ++w) {
    pool.Submit([gate] { gate.wait(); });
  }
  std::future<BatchResult> unlimited = engine->SubmitAsync(queries);
  std::future<BatchResult> finite =
      engine->SubmitAsync(queries, Deadline::AfterSeconds(50.0));
  BatchResult shed = finite.get();  // the finite batch loses to unlimited
  for (const RunOutcome& out : shed.outcomes) {
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  }
  release.set_value();
  BatchResult served = unlimited.get();
  EXPECT_EQ(served.outcomes.size(), queries.size());
  EXPECT_EQ(engine->stats().batches_shed, 1u);
}

TEST(BatchCompletionQueueTest, ShutdownUnblocksBlockedDeliver) {
  auto cq = std::make_unique<BatchCompletionQueue>(1);
  cq->Deliver(BatchResult{});  // fills the queue
  std::thread delivering([&] {
    cq->Deliver(BatchResult{});  // blocks on the full queue until Shutdown
  });
  // Bias toward the delivery genuinely blocking before Shutdown lands (both
  // interleavings are valid; this makes the interesting one overwhelmingly
  // likely).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cq->Shutdown();  // must unblock the stuck Deliver and wait it out
  delivering.join();
  cq.reset();  // destructor-while-delivering regression: safe after Shutdown
}

TEST(BatchCompletionQueueTest, ShutdownWithEngineStillDelivering) {
  TemporalGraph g = ServeGraph();
  GraphStats gstats = ComputeGraphStats(g);
  std::vector<Query> queries = MixedQueries(g, gstats.kmax);
  ThreadPool pool(2);
  QueryEngineOptions options;
  options.pool = &pool;
  auto engine = QueryEngine::Create(g, options);
  ASSERT_TRUE(engine.ok());
  auto cq = std::make_unique<BatchCompletionQueue>(1);
  // More finished batches than the queue holds, and no consumer: deliveries
  // beyond the first wedge pool workers inside Deliver.
  for (uint64_t tag = 0; tag < 4; ++tag) {
    engine->Submit({queries}, cq->CompletionFor(tag));
  }
  cq->Shutdown();        // unblocks any stuck Deliver (results dropped)
  engine->DrainAsync();  // every batch settles; no Deliver can start later
  cq.reset();            // and destroying the queue is now safe
}

}  // namespace
}  // namespace tkc
