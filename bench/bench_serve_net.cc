// Network serving benchmark (net/server.h): starts a TkcServer over a
// LiveQueryEngine on a loopback socket and drives it with closed-loop
// client threads, reporting throughput and per-call latency percentiles at
// several connection counts — on stdout as a table and as machine-readable
// JSON (default BENCH_serve_net.json) so future PRs can track the wire
// path's perf trajectory alongside BENCH_serve_throughput.json.
//
// Two modes, emitted as separate records:
//   * latency  — `connections` client threads each issue `calls` pipelined
//     round trips of `queries-per-call` queries with no deadline; per-call
//     wall times give p50/p99, the wall clock of the whole burst gives qps.
//     Every wire verdict is checked field-for-field against the engine's
//     own direct ServeBatch answer — any drift flips identical:false and
//     fails the run.
//   * overload — a fresh engine with a 2-slot async queue, one client
//     pipelining every batch up front on 1 ms wire deadlines. The server
//     must shed by deadline over the wire exactly as in-process: every
//     verdict is OK or an explicit Timeout/ResourceExhausted, shed_ratio
//     records how much load the deadline policy refused, p99_ms bounds the
//     time-to-verdict (verdicts must keep flowing while shedding).
//
// Flags (env fallbacks TKC_<UPPER>): --vertices --edges --timestamps
// --seed --queries-per-call --calls --overload-batches --threads --reps
// --out. --smoke / TKC_BENCH_SMOKE=1 shrinks everything to CI scale.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "datasets/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "serve/snapshot.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tkc {
namespace {

bool VerdictMatches(const net::VerdictFrame& verdict,
                    const RunOutcome& reference) {
  return net::StatusCodeFromWire(verdict.status_code) ==
             reference.status.code() &&
         verdict.num_cores == reference.num_cores &&
         verdict.result_size_edges == reference.result_size_edges &&
         verdict.vct_size == reference.vct_size &&
         verdict.ecs_size == reference.ecs_size;
}

double PercentileMs(std::vector<double>* seconds, double pct) {
  if (seconds->empty()) return 0;
  std::sort(seconds->begin(), seconds->end());
  const size_t idx = static_cast<size_t>(
      pct * static_cast<double>(seconds->size() - 1) + 0.5);
  return (*seconds)[idx] * 1000.0;
}

}  // namespace
}  // namespace tkc

int main(int argc, char** argv) {
  using namespace tkc;
  using namespace tkc::bench;

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "flag error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  const bool smoke = SmokeModeRequested(flags);
  const uint32_t vertices =
      static_cast<uint32_t>(flags.GetInt("vertices", smoke ? 160 : 200));
  const uint32_t edges =
      static_cast<uint32_t>(flags.GetInt("edges", smoke ? 4500 : 8000));
  const uint32_t timestamps =
      static_cast<uint32_t>(flags.GetInt("timestamps", smoke ? 64 : 96));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const uint32_t queries_per_call = static_cast<uint32_t>(
      flags.GetInt("queries-per-call", smoke ? 16 : 24));
  const uint32_t calls =
      static_cast<uint32_t>(flags.GetInt("calls", smoke ? 24 : 64));
  const uint32_t overload_batches = static_cast<uint32_t>(
      flags.GetInt("overload-batches", smoke ? 64 : 192));
  const int pool_threads =
      std::max(1, static_cast<int>(flags.GetInt("threads", 2)));
  const int reps = static_cast<int>(flags.GetInt("reps", smoke ? 1 : 3));
  const std::string out_path = flags.GetString("out", "BENCH_serve_net.json");

  SyntheticSpec graph_spec;
  graph_spec.name = "serve_net";
  graph_spec.num_vertices = vertices;
  graph_spec.num_edges = edges;
  graph_spec.num_timestamps = timestamps;
  graph_spec.burstiness = 0.3;
  graph_spec.seed = seed;
  TemporalGraph g = GenerateSynthetic(graph_spec);
  GraphStats stats = ComputeGraphStats(g);

  // Distinct queries at the serve bench's operating points; one wire call
  // carries all of them, so a call is a real batch, not a single probe.
  std::vector<Query> uniques;
  const std::pair<double, double> operating_points[] = {
      {0.30, 0.10}, {0.20, 0.10}, {0.20, 0.05}, {0.30, 0.20}};
  int point = 0;
  for (const auto& [kf, rf] : operating_points) {
    if (uniques.size() >= queries_per_call) break;
    WorkloadSpec spec;
    spec.k_fraction = kf;
    spec.range_fraction = rf;
    spec.num_queries = (queries_per_call + 1) / 2;
    spec.seed = seed + point++;
    auto queries = GenerateQueries(g, stats.kmax, spec);
    if (!queries.ok()) continue;
    for (const Query& q : *queries) {
      if (uniques.size() < queries_per_call) uniques.push_back(q);
    }
  }
  if (uniques.empty()) {
    std::fprintf(stderr, "workload: no core-containing query ranges found\n");
    return 1;
  }

  std::printf(
      "=== Net serving: %u vertices, %u edges, %u timestamps, kmax=%u; "
      "%zu queries/call x%u calls/connection, pool=%d, best of %d ===\n",
      vertices, edges, timestamps, stats.kmax, uniques.size(), calls,
      pool_threads, reps);

  ThreadPool pool(pool_threads);
  JsonRecords records;
  bool all_identical = true;

  // ---- latency mode -------------------------------------------------------
  {
    LiveEngineOptions engine_options;
    engine_options.engine.pool = &pool;
    auto live = LiveQueryEngine::Create(g, engine_options);
    if (!live.ok()) {
      std::fprintf(stderr, "engine: %s\n", live.status().ToString().c_str());
      return 1;
    }
    auto server = net::TkcServer::Start(live->get());
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    const uint16_t port = (*server)->port();
    const BatchResult reference = (*live)->ServeBatch(uniques);

    TextTable table;
    table.SetHeader(
        {"Connections", "q/s", "p50 ms", "p99 ms", "scaling", "identical"});
    double qps_1conn = 0;
    for (int connections : {1, 2, 8}) {
      double best_seconds = -1;
      std::vector<double> call_seconds;
      std::atomic<bool> identical{true};
      for (int r = 0; r < reps; ++r) {
        std::vector<std::vector<double>> per_thread(connections);
        std::vector<std::thread> threads;
        WallTimer timer;
        for (int c = 0; c < connections; ++c) {
          threads.emplace_back([&, c] {
            auto client = net::TkcClient::Connect("127.0.0.1", port);
            if (!client.ok()) {
              identical.store(false);
              return;
            }
            per_thread[c].reserve(calls);
            for (uint32_t call = 0; call < calls; ++call) {
              WallTimer call_timer;
              auto response = (*client)->Query(uniques);
              per_thread[c].push_back(call_timer.ElapsedSeconds());
              if (!response.ok() ||
                  response->verdicts.size() != uniques.size()) {
                identical.store(false);
                return;
              }
              for (size_t i = 0; i < uniques.size(); ++i) {
                if (!VerdictMatches(response->verdicts[i],
                                    reference.outcomes[i])) {
                  identical.store(false);
                }
              }
            }
            (*client)->Close();
          });
        }
        for (auto& t : threads) t.join();
        const double seconds = timer.ElapsedSeconds();
        if (best_seconds < 0 || seconds < best_seconds) {
          best_seconds = seconds;
          call_seconds.clear();
          for (const auto& v : per_thread) {
            call_seconds.insert(call_seconds.end(), v.begin(), v.end());
          }
        }
      }
      const uint64_t total_queries = static_cast<uint64_t>(connections) *
                                     calls * uniques.size();
      const double qps =
          best_seconds > 0 ? static_cast<double>(total_queries) / best_seconds
                           : 0;
      if (connections == 1) qps_1conn = qps;
      const double scaling = qps_1conn > 0 ? qps / qps_1conn : 0;
      std::vector<double> p50_input = call_seconds;
      const double p50_ms = PercentileMs(&p50_input, 0.50);
      const double p99_ms = PercentileMs(&call_seconds, 0.99);
      all_identical = all_identical && identical.load();

      char scaling_cell[32];
      std::snprintf(scaling_cell, sizeof(scaling_cell), "%.2fx", scaling);
      table.AddRow({TextTable::Cell(static_cast<uint64_t>(connections)),
                    TextTable::Cell(qps, 1), TextTable::Cell(p50_ms, 4),
                    TextTable::Cell(p99_ms, 4), scaling_cell,
                    identical.load() ? "yes" : "NO"});

      records.BeginRecord();
      records.Add("bench", std::string("serve_net"));
      records.Add("mode", std::string("latency"));
      records.Add("vertices", static_cast<uint64_t>(vertices));
      records.Add("edges", static_cast<uint64_t>(edges));
      records.Add("timestamps", static_cast<uint64_t>(timestamps));
      records.Add("queries_per_call",
                  static_cast<uint64_t>(uniques.size()));
      records.Add("calls_per_connection", static_cast<uint64_t>(calls));
      records.Add("threads", pool_threads);
      records.Add("connections", connections);
      records.Add("seconds", best_seconds);
      records.Add("qps", qps);
      records.Add("p50_ms", p50_ms);
      records.Add("p99_ms", p99_ms);
      records.Add("p99_over_p50", p50_ms > 0 ? p99_ms / p50_ms : 0.0);
      records.Add("scaling", scaling);
      records.Add("identical", identical.load());
    }
    table.Print();
    const net::ServerStats server_stats = (*server)->stats();
    (*server)->Stop();
    std::printf(
        "server: %llu requests, %llu responses streamed, %llu bytes out\n",
        static_cast<unsigned long long>(server_stats.requests_received),
        static_cast<unsigned long long>(server_stats.responses_streamed),
        static_cast<unsigned long long>(server_stats.bytes_written));
  }

  // ---- overload mode ------------------------------------------------------
  {
    LiveEngineOptions engine_options;
    engine_options.engine.pool = &pool;
    engine_options.async_queue_capacity = 2;
    auto live = LiveQueryEngine::Create(g, engine_options);
    if (!live.ok()) {
      std::fprintf(stderr, "engine: %s\n", live.status().ToString().c_str());
      return 1;
    }
    auto server = net::TkcServer::Start(live->get());
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    auto client = net::TkcClient::Connect("127.0.0.1", (*server)->port());
    if (!client.ok()) {
      std::fprintf(stderr, "client: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }

    bool overload_clean = true;
    uint64_t explicit_verdicts = 0;
    uint64_t ok_verdicts = 0;
    uint64_t total_verdicts = 0;
    std::vector<uint64_t> ids;
    std::vector<double> send_seconds;
    std::vector<double> verdict_seconds;
    ids.reserve(overload_batches);
    send_seconds.reserve(overload_batches);
    WallTimer overload_timer;
    for (uint32_t b = 0; b < overload_batches; ++b) {
      auto id = (*client)->Send(uniques, /*deadline_ms=*/1);
      if (!id.ok()) {
        overload_clean = false;
        break;
      }
      ids.push_back(*id);
      send_seconds.push_back(overload_timer.ElapsedSeconds());
    }
    for (size_t b = 0; b < ids.size(); ++b) {
      auto response = (*client)->Wait(ids[b]);
      if (!response.ok()) {
        overload_clean = false;
        break;
      }
      verdict_seconds.push_back(overload_timer.ElapsedSeconds() -
                                send_seconds[b]);
      for (const net::VerdictFrame& verdict : response->verdicts) {
        ++total_verdicts;
        const StatusCode code = net::StatusCodeFromWire(verdict.status_code);
        if (code == StatusCode::kOk) {
          ++ok_verdicts;
        } else if (code == StatusCode::kTimeout ||
                   code == StatusCode::kResourceExhausted) {
          ++explicit_verdicts;
        } else {
          // A blown wire deadline must surface as one of exactly those two
          // statuses — anything else is a contract violation.
          overload_clean = false;
        }
      }
    }
    (*client)->Close();
    (*server)->Stop();
    const net::ServerStats overload_stats = (*server)->stats();
    overload_clean = overload_clean &&
                     total_verdicts ==
                         static_cast<uint64_t>(ids.size()) * uniques.size();
    all_identical = all_identical && overload_clean;

    const double shed_ratio =
        total_verdicts > 0
            ? static_cast<double>(explicit_verdicts) /
                  static_cast<double>(total_verdicts)
            : 0;
    const double verdict_p99_ms = PercentileMs(&verdict_seconds, 0.99);
    std::printf(
        "\noverload (%u batches, 1 ms deadlines, 2-slot queue): "
        "%.0f%% shed/timeout, %llu ok, verdict p99 %.3f ms, "
        "server shed=%llu expired=%llu — %s\n",
        overload_batches, shed_ratio * 100,
        static_cast<unsigned long long>(ok_verdicts), verdict_p99_ms,
        static_cast<unsigned long long>(overload_stats.batches_shed),
        static_cast<unsigned long long>(overload_stats.deadlines_expired),
        overload_clean ? "clean" : "VIOLATION");

    records.BeginRecord();
    records.Add("bench", std::string("serve_net"));
    records.Add("mode", std::string("overload"));
    records.Add("connections", 1);
    records.Add("batches", static_cast<uint64_t>(overload_batches));
    records.Add("queries_per_call", static_cast<uint64_t>(uniques.size()));
    records.Add("threads", pool_threads);
    records.Add("shed_ratio", shed_ratio);
    records.Add("ok_verdicts", ok_verdicts);
    records.Add("p99_ms", verdict_p99_ms);
    records.Add("batches_shed", overload_stats.batches_shed);
    records.Add("deadlines_expired", overload_stats.deadlines_expired);
    records.Add("identical", overload_clean);
  }

  if (records.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "ERROR: a wire verdict violated the serving contract\n");
    return 1;
  }
  return 0;
}
