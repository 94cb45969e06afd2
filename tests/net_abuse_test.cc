// Connection-abuse battery: clients that misbehave without ever sending a
// malformed byte. A slow reader that lets the server's outbound buffer
// fill (read-pause backpressure), an abrupt disconnect with batches still
// executing (late verdicts settle as responses_dropped), a half-open
// socket that never speaks (idle reap), wire-level deadline expiry under a
// backed-up engine queue (shed/timeout verdicts cross the wire exactly as
// in-process), and the net.accept_fail / net.write_stall fault points.
// After every scenario the server counters and the engine's update
// accounting must balance. Runs under asan/ubsan in CI (`ctest -L net`).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "serve/snapshot.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace tkc {
namespace {

StatusOr<std::unique_ptr<LiveQueryEngine>> MakeLive(
    ThreadPool* pool, size_t async_queue_capacity = 64) {
  TemporalGraph graph = GenerateUniformRandom(24, 160, 16, 11);
  LiveEngineOptions options;
  options.engine.pool = pool;
  options.async_queue_capacity = async_queue_capacity;
  return LiveQueryEngine::Create(std::move(graph), options);
}

std::vector<Query> SomeQueries() {
  return {{1, {1, 8}}, {2, {2, 12}}, {3, {1, 16}}, {2, {5, 9}}, {4, {1, 16}}};
}

/// Polls the server's stats until `done` says the counters settled, or the
/// deadline passes. Abuse scenarios end asynchronously (the server notices
/// a dead peer on its own schedule), so assertions wait for quiescence
/// instead of assuming it.
template <typename Predicate>
net::ServerStats AwaitStats(net::TkcServer* server, Predicate done,
                            int max_wait_ms = 5000) {
  net::ServerStats stats = server->stats();
  for (int waited = 0; !done(stats) && waited < max_wait_ms; waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = server->stats();
  }
  return stats;
}

void ExpectBalanced(const net::ServerStats& stats) {
  EXPECT_EQ(stats.batches_submitted, stats.batches_completed);
  EXPECT_EQ(stats.batches_completed,
            stats.responses_streamed + stats.responses_dropped);
  EXPECT_EQ(stats.connections_accepted,
            stats.connections_closed + stats.connections_dropped);
}

// A client that pipelines a burst of requests and only then starts
// reading. The server's outbound buffer must absorb the backlog (pausing
// reads past max_outbound_bytes rather than buffering without bound) and
// every response must still arrive, complete and in order per batch.
TEST(NetAbuseTest, SlowReaderGetsEveryResponseUnderBackpressure) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool);
  ASSERT_TRUE(live.ok());
  net::ServerOptions options;
  options.max_outbound_bytes = 1024;  // a few verdict frames deep, no more
  auto server = net::TkcServer::Start(live->get(), options);
  ASSERT_TRUE(server.ok());

  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const std::vector<Query> queries = SomeQueries();
  const BatchResult direct = (*live)->ServeBatch(queries);

  constexpr int kBatches = 24;
  std::vector<uint64_t> ids;
  for (int b = 0; b < kBatches; ++b) {
    auto id = (*client)->Send(queries);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  // Let the responses pile up server-side before reading a single byte:
  // with ~75 bytes per verdict frame this burst far exceeds the 1 KiB
  // outbound cap, so the read-pause path has to engage for the server to
  // survive it without unbounded memory.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  for (uint64_t id : ids) {
    auto response = (*client)->Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->verdicts.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(response->verdicts[i].num_cores, direct.outcomes[i].num_cores);
      EXPECT_EQ(response->verdicts[i].result_size_edges,
                direct.outcomes[i].result_size_edges);
    }
  }
  (*client)->Close();
  // Wait for the event loop to notice the EOF (otherwise Stop() races it
  // and tears the connection down as dropped rather than closed).
  const net::ServerStats stats =
      AwaitStats(server->get(), [](const net::ServerStats& s) {
        return s.connections_closed == 1;
      });
  (*server)->Stop();

  EXPECT_EQ(stats.requests_received, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.responses_streamed, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.responses_dropped, 0u);
  EXPECT_EQ(stats.connections_dropped, 0u);
  EXPECT_EQ(stats.connections_closed, 1u);
  ExpectBalanced((*server)->stats());
}

// Abrupt disconnect with batches still executing: the client vanishes, the
// engine keeps computing, and every late verdict must settle as
// responses_dropped — counted, not leaked, not crashed on. Updates applied
// concurrently must also all land (the updater never sees the abuse).
TEST(NetAbuseTest, AbruptDisconnectSettlesInFlightBatchesAsDropped) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool, /*async_queue_capacity=*/1);
  ASSERT_TRUE(live.ok());
  auto server = net::TkcServer::Start(live->get());
  ASSERT_TRUE(server.ok());

  constexpr uint64_t kBatches = 16;
  {
    auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t b = 0; b < kBatches; ++b) {
      auto id = (*client)->Send(SomeQueries());
      ASSERT_TRUE(id.ok());
    }
    (*client)->Close();  // gone before reading one byte
  }
  // Meanwhile, snapshot swaps keep landing.
  ASSERT_TRUE((*live)->ApplyUpdates({{2, 7, 17}, {3, 9, 18}}).get().ok());

  // How many requests the server read, and which verdicts were streamed
  // into the dying socket rather than dropped, depends on when the peer's
  // reset lands: it discards whatever the server has not read yet. So the
  // wait and the assertions hold the accounting invariants, not counts:
  // the connection settled, and every request read was submitted,
  // completed, and either streamed or dropped.
  const net::ServerStats stats =
      AwaitStats(server->get(), [](const net::ServerStats& s) {
        return s.connections_accepted == 1 &&
               s.connections_closed + s.connections_dropped == 1 &&
               s.requests_received >= 1 &&
               s.requests_received == s.batches_submitted &&
               s.batches_submitted == s.batches_completed &&
               s.batches_completed ==
                   s.responses_streamed + s.responses_dropped;
      });
  // The server answers nothing before it has read a request, so the reset
  // can only come after at least one read.
  EXPECT_GE(stats.requests_received, 1u);
  EXPECT_LE(stats.requests_received, kBatches);
  EXPECT_EQ(stats.requests_received, stats.batches_submitted);
  EXPECT_EQ(stats.batches_submitted, stats.batches_completed);
  EXPECT_EQ(stats.connections_accepted, 1u);
  ExpectBalanced(stats);

  const LiveStats live_stats = (*live)->stats();
  EXPECT_EQ(live_stats.failed_updates, 0u);
  EXPECT_GE(live_stats.swaps, 1u);
  (*server)->Stop();
  ExpectBalanced((*server)->stats());
}

// A half-open socket that connects and never sends a byte must be reaped
// by the idle timeout as connections_dropped — not held forever.
TEST(NetAbuseTest, HalfOpenSocketIsReapedByIdleTimeout) {
  ThreadPool pool(2);
  auto live = MakeLive(&pool);
  ASSERT_TRUE(live.ok());
  net::ServerOptions options;
  options.idle_timeout_seconds = 0.05;
  auto server = net::TkcServer::Start(live->get(), options);
  ASSERT_TRUE(server.ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons((*server)->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const net::ServerStats stats =
      AwaitStats(server->get(), [](const net::ServerStats& s) {
        return s.connections_dropped == 1;
      });
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_dropped, 1u);
  ::close(fd);

  // An *active* client under the same timeout is not reaped mid-request.
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto response = (*client)->Query(SomeQueries());
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  (*client)->Close();
  (*server)->Stop();
  ExpectBalanced((*server)->stats());
}

// Wire deadlines behave exactly like in-process deadlines: with the engine
// queue backed up and a 1 ms budget per batch, some batches are shed by
// PushOrEvict (ResourceExhausted) or expire before execution (Timeout) —
// and those verdicts arrive over the wire as explicit statuses, counted by
// the server, never as silence.
TEST(NetAbuseTest, WireDeadlineExpiryShedsExplicitlyOverTheWire) {
  ThreadPool pool(4);
  auto live = MakeLive(&pool, /*async_queue_capacity=*/1);
  ASSERT_TRUE(live.ok());
  auto server = net::TkcServer::Start(live->get());
  ASSERT_TRUE(server.ok());

  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  constexpr int kBatches = 32;
  std::vector<uint64_t> ids;
  for (int b = 0; b < kBatches; ++b) {
    auto id = (*client)->Send(SomeQueries(), /*deadline_ms=*/1);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  uint64_t explicit_verdicts = 0;
  for (uint64_t id : ids) {
    auto response = (*client)->Wait(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    for (const net::VerdictFrame& verdict : response->verdicts) {
      const StatusCode code = net::StatusCodeFromWire(verdict.status_code);
      // The whole point: a blown wire deadline is an explicit verdict, one
      // of exactly these — never a hang, never a fabricated answer.
      ASSERT_TRUE(code == StatusCode::kOk || code == StatusCode::kTimeout ||
                  code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kInvalidArgument)
          << "unexpected status " << static_cast<int>(code);
      if (code == StatusCode::kTimeout ||
          code == StatusCode::kResourceExhausted) {
        ++explicit_verdicts;
      }
    }
  }
  (*client)->Close();
  (*server)->Stop();

  const net::ServerStats stats = (*server)->stats();
  // 32 pipelined batches against a queue of depth 1 on 1 ms budgets: the
  // backlog cannot clear in time, so shedding must have engaged.
  EXPECT_GT(explicit_verdicts, 0u);
  EXPECT_GT(stats.batches_shed + stats.deadlines_expired, 0u);
  ExpectBalanced(stats);
}

// net.accept_fail: the listener accepts and immediately closes, counting
// accept_failures; once the schedule is exhausted service resumes.
TEST(NetAbuseTest, AcceptFailFaultDropsHandshakesThenRecovers) {
  ThreadPool pool(2);
  auto live = MakeLive(&pool);
  ASSERT_TRUE(live.ok());
  auto server = net::TkcServer::Start(live->get());
  ASSERT_TRUE(server.ok());

  {
    ScopedFault fault(kFaultNetAcceptFail, {1.0, 42, 2});
    for (int i = 0; i < 2; ++i) {
      // The TCP handshake itself succeeds (backlog), so Connect returns a
      // client — whose first round-trip then reports the closed socket.
      auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok());
      auto response = (*client)->Query(SomeQueries());
      EXPECT_FALSE(response.ok());
    }
    const net::ServerStats stats =
        AwaitStats(server->get(), [](const net::ServerStats& s) {
          return s.accept_failures == 2;
        });
    EXPECT_EQ(stats.accept_failures, 2u);
    EXPECT_EQ(fault.stats().fires, 2u);
  }

  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto response = (*client)->Query(SomeQueries());
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  (*client)->Close();
  (*server)->Stop();
  ExpectBalanced((*server)->stats());
}

// net.write_stall: a stalled send delays a response by a poll round but
// never corrupts or drops it — the wire answers stay oracle-exact.
TEST(NetAbuseTest, WriteStallFaultDelaysButNeverCorruptsResponses) {
  ThreadPool pool(2);
  auto live = MakeLive(&pool);
  ASSERT_TRUE(live.ok());
  auto server = net::TkcServer::Start(live->get());
  ASSERT_TRUE(server.ok());

  ScopedFault fault(kFaultNetWriteStall, {0.5, 7, 8});
  auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  const std::vector<Query> queries = SomeQueries();
  const BatchResult direct = (*live)->ServeBatch(queries);
  for (int round = 0; round < 12; ++round) {
    auto response = (*client)->Query(queries);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->verdicts.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(response->verdicts[i].num_cores, direct.outcomes[i].num_cores);
      EXPECT_EQ(response->verdicts[i].result_size_edges,
                direct.outcomes[i].result_size_edges);
    }
  }
  EXPECT_GT(fault.stats().fires, 0u);
  (*client)->Close();
  (*server)->Stop();
  ExpectBalanced((*server)->stats());
}

}  // namespace
}  // namespace tkc
