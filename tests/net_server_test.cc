// TkcServer lifecycle and wire correctness: round trips against the
// engine's own answers (the determinism contract crosses the wire intact),
// pipelining, multiple connections, the stats frame, and the shutdown-
// ordering regressions — destroying a server mid-stream, and
// LiveQueryEngine::Shutdown()/DrainAsync() while a server still holds the
// completion queue. Runs under asan/ubsan in CI, where any teardown race
// turns into a hard failure.

#include "net/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/generators.h"
#include "net/client.h"
#include "net/wire_format.h"
#include "serve/snapshot.h"
#include "util/thread_pool.h"

namespace tkc {
namespace {

std::unique_ptr<LiveQueryEngine> MakeLive(ThreadPool* pool,
                                          size_t async_queue_capacity = 64) {
  TemporalGraph graph = GenerateUniformRandom(24, 160, 16, 11);
  LiveEngineOptions options;
  options.engine.pool = pool;
  options.async_queue_capacity = async_queue_capacity;
  auto live = LiveQueryEngine::Create(std::move(graph), options);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(*live);
}

std::vector<Query> SomeQueries() {
  return {{1, {1, 8}}, {2, {2, 12}}, {3, {1, 16}}, {2, {5, 9}}, {4, {1, 16}}};
}

void ExpectMatchesEngine(const net::ClientResponse& response,
                         const BatchResult& direct) {
  ASSERT_EQ(response.verdicts.size(), direct.outcomes.size());
  EXPECT_EQ(response.snapshot_version, direct.snapshot_version);
  for (size_t i = 0; i < direct.outcomes.size(); ++i) {
    const net::VerdictFrame& v = response.verdicts[i];
    const RunOutcome& o = direct.outcomes[i];
    EXPECT_EQ(v.query_index, i);
    EXPECT_EQ(net::StatusCodeFromWire(v.status_code), o.status.code());
    EXPECT_EQ(v.num_cores, o.num_cores);
    EXPECT_EQ(v.result_size_edges, o.result_size_edges);
    EXPECT_EQ(v.vct_size, o.vct_size);
    EXPECT_EQ(v.ecs_size, o.ecs_size);
  }
}

TEST(TkcServerTest, StartsOnEphemeralPortAndStopsIdempotently) {
  ThreadPool pool(2);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT((*server)->port(), 0);
  const net::ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.connections_accepted, 0u);
  EXPECT_EQ(stats.batches_submitted, 0u);
  (*server)->Stop();
  (*server)->Stop();  // idempotent; destructor will run it a third time
}

TEST(TkcServerTest, RejectsNullEngine) {
  auto server = net::TkcServer::Start(nullptr);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(TkcServerTest, WireAnswersMatchDirectEngineAnswers) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::vector<Query> queries = SomeQueries();
  const BatchResult direct = live->ServeBatch(queries);
  auto response = (*client)->Query(queries);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ExpectMatchesEngine(*response, direct);

  // Invalid inputs cross the wire as explicit statuses, same as direct.
  const std::vector<Query> invalid = {{0, {1, 4}}, {2, {9, 3}}};
  const BatchResult direct_invalid = live->ServeBatch(invalid);
  auto response_invalid = (*client)->Query(invalid);
  ASSERT_TRUE(response_invalid.ok()) << response_invalid.status().ToString();
  ExpectMatchesEngine(*response_invalid, direct_invalid);
}

TEST(TkcServerTest, PipelinedRequestsResolveInAnyWaitOrder) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok());
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  const std::vector<Query> queries = SomeQueries();
  const BatchResult direct = live->ServeBatch(queries);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = (*client)->Send(queries);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // Wait in reverse: responses for other requests buffer client-side.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    auto response = (*client)->Wait(*it);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->request_id, *it);
    ExpectMatchesEngine(*response, direct);
  }
}

TEST(TkcServerTest, ManyConnectionsShareOneServer) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok());

  const std::vector<Query> queries = SomeQueries();
  const BatchResult direct = live->ServeBatch(queries);
  std::vector<std::unique_ptr<net::TkcClient>> clients;
  for (int c = 0; c < 5; ++c) {
    auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(*client));
  }
  for (auto& client : clients) {
    auto response = client->Query(queries);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectMatchesEngine(*response, direct);
  }
  for (auto& client : clients) client->Close();
  (*server)->Stop();
  const net::ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.connections_accepted, 5u);
  EXPECT_EQ(stats.connections_accepted,
            stats.connections_closed + stats.connections_dropped);
  EXPECT_EQ(stats.batches_submitted, 5u);
  EXPECT_EQ(stats.batches_completed, stats.batches_submitted);
  EXPECT_EQ(stats.batches_completed,
            stats.responses_streamed + stats.responses_dropped);
  EXPECT_EQ(stats.responses_streamed, 5u);
}

TEST(TkcServerTest, StatsFrameReportsServerCounters) {
  ThreadPool pool(2);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok());
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  auto response = (*client)->Query(SomeQueries());
  ASSERT_TRUE(response.ok());
  auto stats = (*client)->FetchStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->connections_accepted, 1u);
  EXPECT_EQ(stats->requests_received, 1u);
  EXPECT_EQ(stats->batches_submitted, 1u);
  EXPECT_EQ(stats->batches_completed, 1u);
  EXPECT_EQ(stats->responses_streamed, 1u);
  EXPECT_EQ(stats->stats_requests, 1u);
  EXPECT_GT(stats->frames_parsed, 0u);
  EXPECT_GT(stats->bytes_read, 0u);
  EXPECT_GT(stats->bytes_written, 0u);
  EXPECT_EQ(stats->frames_rejected, 0u);
  EXPECT_EQ(stats->errors_sent, 0u);
}

TEST(TkcServerTest, HalfCloseDrainsInFlightThenClosesCleanly) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok());
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  auto id = (*client)->Send(SomeQueries());
  ASSERT_TRUE(id.ok());
  (*client)->FinishWrites();  // server sees EOF with a batch in flight
  auto response = (*client)->Wait(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->verdicts.size(), SomeQueries().size());
  // The server settles the batch, flushes, then closes its side *cleanly*
  // (connections_closed, not dropped). Poll briefly: the close lands on
  // the sweep right after the response streams.
  bool closed = false;
  for (int i = 0; i < 200 && !closed; ++i) {
    closed = (*server)->stats().connections_closed == 1;
    if (!closed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(closed);
  (*client)->Close();
  (*server)->Stop();
  const net::ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.batches_completed, 1u);
  EXPECT_EQ(stats.responses_streamed, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_dropped, 0u);
}

// The destroy-during-streaming regression (satellite of ISSUE 8): tear the
// server down the instant a burst of batches is in flight. Stop() must
// drain the engine's deliveries into the server's completion queue before
// retiring it — under asan, getting the order wrong is a use-after-free.
TEST(TkcServerTest, StopWhileBatchesAreStreamingIsSafe) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool, /*async_queue_capacity=*/4);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok());
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  const std::vector<Query> queries = SomeQueries();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE((*client)->Send(queries).ok());
  }
  (*server)->Stop();  // responses may be mid-stream; none may leak or race
  const net::ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.batches_submitted, stats.batches_completed);
  EXPECT_EQ(stats.batches_completed,
            stats.responses_streamed + stats.responses_dropped);
  EXPECT_EQ(stats.connections_accepted,
            stats.connections_closed + stats.connections_dropped);
  // The engine survives its front end: direct serving still works.
  const BatchResult direct = live->ServeBatch(queries);
  EXPECT_EQ(direct.outcomes.size(), queries.size());
}

// LiveQueryEngine::Shutdown() while a server still holds the completion
// queue: Shutdown now quiesces the async path (DrainAsync), so it must be
// safe in any order relative to server teardown — and serving must stay
// available afterwards.
TEST(TkcServerTest, EngineShutdownWhileServerHoldsCompletionQueue) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool);
  auto server = net::TkcServer::Start(live.get());
  ASSERT_TRUE(server.ok());
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  const std::vector<Query> queries = SomeQueries();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = (*client)->Send(queries);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  live->Shutdown();  // quiesces async deliveries; server still running
  live->DrainAsync();
  live->DrainAsync();  // idempotent, callable repeatedly

  // Batches submitted before (and after) Shutdown still answer over the
  // wire: Shutdown stops the *update* path, not serving.
  for (uint64_t id : ids) {
    auto response = (*client)->Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->verdicts.size(), queries.size());
  }
  auto after = (*client)->Query(queries);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  // But updates are rejected now.
  EXPECT_EQ(live->ApplyUpdates({{1, 2, 3}}).get().code(),
            StatusCode::kFailedPrecondition);
  (*server)->Stop();
}

// Destruction-order torture: engine Shutdown, server destroyed, engine
// destroyed — with batches in flight at every step. Any delivery into a
// freed queue is an asan failure.
TEST(TkcServerTest, TeardownOrderTortureWithInflightBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    auto live = MakeLive(&pool, /*async_queue_capacity=*/4);
    auto server_or = net::TkcServer::Start(live.get());
    ASSERT_TRUE(server_or.ok());
    std::unique_ptr<net::TkcServer> server = std::move(*server_or);
    auto client = net::TkcClient::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE((*client)->Send(SomeQueries()).ok());
    }
    if (round % 2 == 0) live->Shutdown();  // engine quiesce first...
    server.reset();                        // ...or server teardown first
    live.reset();
  }
}

}  // namespace
}  // namespace tkc
