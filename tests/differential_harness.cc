#include "tests/differential_harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datasets/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/snapshot.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vct/index_io.h"
#include "workload/query_workload.h"

namespace tkc {

namespace {

/// Result-field bit-identity of a served outcome: status code, core count
/// and result size against the naive oracle, and |VCT| and |ECS| against
/// RunAlgorithm(kEnum) on the same graph version — the oracle reports no
/// sizes, and a served miss may read them off the engine's index instead of
/// building them. Timings are each path's own and are not compared.
bool SameResults(const RunOutcome& engine, const RunOutcome& oracle,
                 const RunOutcome& reference) {
  if (engine.status.code() != oracle.status.code()) return false;
  if (!engine.status.ok()) return true;  // same failure class is enough
  return engine.num_cores == oracle.num_cores &&
         engine.result_size_edges == oracle.result_size_edges &&
         engine.vct_size == reference.vct_size &&
         engine.ecs_size == reference.ecs_size;
}

std::string DescribeMismatch(const DifferentialConfig& config,
                             uint64_t version, const Query& query,
                             const RunOutcome& engine,
                             const RunOutcome& oracle,
                             const RunOutcome& reference) {
  std::ostringstream out;
  out << "seed=" << config.seed << " threads=" << config.threads
      << " version=" << version << " k=" << query.k << " range=["
      << query.range.start << "," << query.range.end << "]: engine {"
      << engine.status.ToString() << ", cores=" << engine.num_cores
      << ", |R|=" << engine.result_size_edges << "} vs oracle {"
      << oracle.status.ToString() << ", cores=" << oracle.num_cores
      << ", |R|=" << oracle.result_size_edges << "}";
  out << "; |VCT| " << engine.vct_size << " vs Enum " << reference.vct_size;
  out << ", |ECS| " << engine.ecs_size << " vs Enum " << reference.ecs_size;
  return out.str();
}

/// One submitted query batch awaiting its result (via whichever API).
struct PendingBatch {
  std::vector<Query> queries;
  std::optional<std::future<BatchResult>> future;  // async-future flavor
  std::optional<BatchResult> result;               // sync flavor (immediate)
  bool via_completion_queue = false;               // result arrives tagged
  int wire_client = -1;                            // net mode: client index
  uint64_t wire_request_id = 0;                    // net mode: request id
};

/// Rebuilds the engine-shaped result a wire response carries: the verdict
/// frame transports exactly the determinism-contract fields (status code,
/// num_cores, result_size_edges, vct_size, ecs_size), which is everything
/// SameResults compares.
BatchResult WireToBatchResult(const net::ClientResponse& response) {
  BatchResult result;
  result.snapshot_version = response.snapshot_version;
  result.outcomes.reserve(response.verdicts.size());
  for (const net::VerdictFrame& v : response.verdicts) {
    RunOutcome outcome;
    outcome.status = v.status_code == 0
                         ? Status::OK()
                         : Status(net::StatusCodeFromWire(v.status_code),
                                  "wire verdict");
    outcome.num_cores = v.num_cores;
    outcome.result_size_edges = v.result_size_edges;
    outcome.vct_size = v.vct_size;
    outcome.ecs_size = v.ecs_size;
    result.outcomes.push_back(outcome);
  }
  return result;
}

/// The statuses a fault-mode outcome may carry instead of an oracle-exact
/// answer: an explicit, caller-visible verdict. Anything else must match
/// the oracle bit for bit.
bool IsExplicitVerdict(StatusCode code) {
  return code == StatusCode::kTimeout ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kFailedPrecondition;
}

}  // namespace

namespace {

/// Positive-integer value of `name`, or 0 when unset/invalid.
uint32_t PositiveEnv(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || v <= 0) return 0;
  return static_cast<uint32_t>(v);
}

}  // namespace

uint32_t DifferentialScenarioCount(uint32_t default_count,
                                   const char* env_name) {
  if (env_name != nullptr) {
    if (uint32_t v = PositiveEnv(env_name)) return v;
  }
  if (uint32_t v = PositiveEnv("TKC_DIFF_SCENARIOS")) return v;
  return default_count;
}

DifferentialReport RunDifferentialScenario(const DifferentialConfig& config) {
  DifferentialReport report;
  Rng rng(SplitMix64(config.seed * 0x9e3779b97f4a7c15ULL + config.threads));

  // --- Seeded inputs: graph, update stream, query stream. ---------------
  const uint32_t n = 8 + static_cast<uint32_t>(rng.NextBounded(28));
  const uint32_t m = 40 + static_cast<uint32_t>(rng.NextBounded(180));
  const uint32_t T = 8 + static_cast<uint32_t>(rng.NextBounded(22));
  TemporalGraph initial = GenerateUniformRandom(n, m, T, config.seed);
  const Timestamp t0 = initial.num_timestamps();

  std::vector<std::vector<RawTemporalEdge>> updates(config.num_update_events);
  for (auto& batch : updates) {
    const uint32_t count =
        1 + static_cast<uint32_t>(
                rng.NextBounded(std::max(1u, config.max_edges_per_update)));
    for (uint32_t i = 0; i < count; ++i) {
      RawTemporalEdge e;
      // A few ids beyond the initial vertex pool: updates may introduce
      // vertices. Raw times may duplicate existing timestamps or mint new
      // ones before/inside/after the current span (compaction shifts).
      e.u = static_cast<VertexId>(rng.NextBounded(n + 3));
      e.v = static_cast<VertexId>(rng.NextBounded(n + 3));
      e.raw_time = rng.NextInRange(1, T + 3);
      batch.push_back(e);
    }
  }

  auto make_batch = [&]() {
    const uint32_t count =
        1 + static_cast<uint32_t>(
                rng.NextBounded(std::max(1u, config.max_queries_per_batch)));
    std::vector<Query> queries;
    queries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      Query q;
      q.k = static_cast<uint32_t>(rng.NextBounded(7));  // k=0: invalid input
      const Timestamp start =
          1 + static_cast<Timestamp>(rng.NextBounded(t0));
      const Timestamp end =
          start + static_cast<Timestamp>(rng.NextBounded(t0 - start + 1));
      q.range = Window{start, end};
      if (rng.NextBool(0.05)) q.range = Window{end + 1, start};  // invalid
      if (rng.NextBool(0.2) && !queries.empty()) {
        q = queries[rng.NextBounded(queries.size())];  // in-batch duplicate
      }
      queries.push_back(q);
    }
    return queries;
  };

  // --- Engine under test, with seed-varied serving options. -------------
  ThreadPool pool(config.threads);
  LiveEngineOptions options;
  options.engine.pool = &pool;
  options.engine.build_index = rng.NextBool(0.5);
  options.engine.cache_capacity = rng.NextBool(0.25) ? 0 : 64;
  options.engine.async_queue_capacity = 4;  // small: exercise backpressure
  options.update_queue_capacity = 4;
  // Incremental mode exists to validate the delta-aware index maintenance,
  // so there must be an index to maintain.
  if (config.incremental) options.engine.build_index = true;

  // Fault mode: arm the injection points with scenario-seeded schedules and
  // switch the updater's retry/backoff on. rebuild.fail at 0.4 against 2
  // attempts means a cycle retries 40% of the time and exhausts 16% of the
  // time, so most cycles land while about one in six fails its batch — both
  // paths stay exercised, and the fault sweep's first few seeds already
  // include an exhausted cycle.
  std::optional<ScopedFault> rebuild_fault;
  std::optional<ScopedFault> queue_fault;
  std::optional<ScopedFault> slow_fault;
  if (config.faults) {
    options.max_rebuild_attempts = 2;
    options.retry_backoff_initial_ms = 0.2;
    options.retry_backoff_max_ms = 2.0;
    options.retry_jitter_seed = config.seed;
    rebuild_fault.emplace(kFaultRebuildFail,
                          FaultSchedule{0.4, config.seed * 31 + 1, 0});
    queue_fault.emplace(kFaultQueueFull,
                        FaultSchedule{0.15, config.seed * 31 + 2, 0});
    slow_fault.emplace(kFaultDispatchSlowWorker,
                       FaultSchedule{0.05, config.seed * 31 + 3, 0});
  }
  // Net mode: arm the short-read stressor — when it fires, the server's
  // recv delivers one byte, so frames reassemble from arbitrary fragments.
  // Verdict-neutral by contract: it may delay answers, never change them.
  std::optional<ScopedFault> read_short_fault;
  if (config.net) {
    read_short_fault.emplace(kFaultNetReadShort,
                             FaultSchedule{0.2, config.seed * 31 + 4, 0});
  }
  auto pick_deadline = [&]() {
    if (!config.faults) return Deadline();
    const double roll = rng.NextDouble();
    if (roll < 0.55) return Deadline();                    // unlimited
    if (roll < 0.80) return Deadline::AfterSeconds(30.0);  // generous
    if (roll < 0.90) return Deadline::AfterSeconds(-1.0);  // already expired
    return Deadline::AfterSeconds(0.002);                  // racing the work
  };

  std::vector<PendingBatch> batches;
  std::vector<std::future<Status>> update_futures;
  std::vector<bool> update_applied(updates.size(), false);
  BatchCompletionQueue completions(64);
  size_t cq_submissions = 0;
  {
    auto live_or = LiveQueryEngine::Create(initial, options);
    if (!live_or.ok()) {
      report.mismatches = 1;
      report.first_mismatch =
          "engine creation failed: " + live_or.status().ToString();
      return report;
    }
    LiveQueryEngine& live = **live_or;

    // Net mode: front the engine with a loopback server and a few client
    // connections; query batches round-robin across them so one scenario
    // exercises connection multiplexing, not just one stream.
    std::unique_ptr<net::TkcServer> server;
    std::vector<std::unique_ptr<net::TkcClient>> clients;
    if (config.net) {
      net::ServerOptions server_options;
      server_options.completion_queue_capacity = 8;  // small: exercise flow
      auto server_or = net::TkcServer::Start(&live, server_options);
      if (!server_or.ok()) {
        report.mismatches = 1;
        report.first_mismatch =
            "server start failed: " + server_or.status().ToString();
        return report;
      }
      server = std::move(*server_or);
      const size_t num_clients = 1 + config.seed % 3;
      for (size_t c = 0; c < num_clients; ++c) {
        auto client_or = net::TkcClient::Connect("127.0.0.1", server->port());
        if (!client_or.ok()) {
          report.mismatches = 1;
          report.first_mismatch =
              "client connect failed: " + client_or.status().ToString();
          return report;
        }
        clients.push_back(std::move(*client_or));
      }
    }

    // Incremental mode: await the swap, then prove the incrementally
    // maintained index (reused slices included) is bit-identical — slice
    // by slice — to building from scratch on the swapped-in graph.
    auto apply_and_verify = [&](const std::vector<RawTemporalEdge>& batch,
                                size_t batch_index) {
      Status status = live.ApplyUpdates(batch).get();
      if (!status.ok()) {
        ++report.failed_updates;
        return;
      }
      update_applied[batch_index] = true;
      std::shared_ptr<const GraphSnapshot> snap = live.snapshot();
      const PhcIndex* index = snap->engine().index();
      if (index == nullptr) {
        ++report.mismatches;
        if (report.first_mismatch.empty()) {
          report.first_mismatch = "incremental mode lost the admission index";
        }
        return;
      }
      PhcBuildOptions build;
      build.pool = &pool;
      auto fresh =
          PhcIndex::Build(snap->graph(), snap->graph().FullRange(), build);
      const bool same = fresh.ok() && *index == *fresh;
      if (fresh.ok()) report.slices_checked += fresh->max_k();
      if (!same) {
        ++report.mismatches;
        if (report.first_mismatch.empty()) {
          // Identify the first offending slice for a reproducible report.
          uint32_t bad_k = 0;
          if (fresh.ok() && index->max_k() == fresh->max_k()) {
            for (uint32_t k = 1; k <= fresh->max_k(); ++k) {
              if (!(index->Slice(k) == fresh->Slice(k))) {
                bad_k = k;
                break;
              }
            }
          }
          std::ostringstream out;
          out << "seed=" << config.seed << " threads=" << config.threads
              << " version=" << snap->version()
              << ": incrementally maintained index differs from a "
                 "from-scratch build"
              << (bad_k > 0 ? " at slice k=" + std::to_string(bad_k)
                            : std::string(" (shape)"));
          report.first_mismatch = out.str();
        }
      }
      // Emergence tables: each slice's table — carried with a reused slice
      // or derived for a rebuilt or stitched one — must equal the
      // from-scratch index's.
      if (fresh.ok() && index->max_k() == fresh->max_k()) {
        for (uint32_t k = 1; k <= fresh->max_k(); ++k) {
          const std::span<const Timestamp> table = index->EmergenceTable(k);
          const std::span<const Timestamp> expected = fresh->EmergenceTable(k);
          ++report.tables_checked;
          if (!std::equal(table.begin(), table.end(), expected.begin(),
                          expected.end())) {
            ++report.mismatches;
            if (report.first_mismatch.empty()) {
              std::ostringstream out;
              out << "seed=" << config.seed << " threads=" << config.threads
                  << " version=" << snap->version()
                  << ": emergence table differs from a from-scratch table "
                     "at k="
                  << k;
              report.first_mismatch = out.str();
            }
          }
        }
      }
    };
    auto apply_update = [&](size_t index) {
      if (config.incremental) {
        apply_and_verify(updates[index], index);
        return;
      }
      update_futures.push_back(live.ApplyUpdates(updates[index]));
      // Fault mode awaits each batch, so every rebuild cycle applies
      // exactly one batch: which cycles exhaust their retries is then
      // decided by the seeded rebuild.fail stream alone, not by how the
      // updater happened to coalesce batches under load.
      if (config.faults) update_futures.back().wait();
    };

    // --- Drive: interleave submissions with snapshot swaps. -------------
    // Updates fire immediately after async submissions, so swaps overlap
    // batches still in flight. (In incremental and fault mode each update
    // is awaited before driving on; query batches still overlap the
    // swaps.)
    size_t next_update = 0;
    const uint32_t batches_per_update =
        std::max(1u, config.num_query_batches /
                         std::max(1u, config.num_update_events));
    for (uint32_t b = 0; b < config.num_query_batches; ++b) {
      PendingBatch pending;
      pending.queries = make_batch();
      const Deadline deadline = pick_deadline();
      if (config.net) {
        // Mostly-unlimited wire deadlines, with an occasional 1 ms budget
        // racing the work: the verdict is then either still oracle-exact
        // or an explicit Timeout/ResourceExhausted — never silence.
        const uint32_t deadline_ms = rng.NextBool(0.15) ? 1 : 0;
        const int client = static_cast<int>(b % clients.size());
        auto sent = clients[client]->Send(pending.queries, deadline_ms);
        if (!sent.ok()) {
          ++report.mismatches;
          if (report.first_mismatch.empty()) {
            report.first_mismatch =
                "wire send failed: " + sent.status().ToString();
          }
        } else {
          pending.wire_client = client;
          pending.wire_request_id = *sent;
        }
      } else {
        switch (b % 3) {
          case 0:
            pending.future = live.SubmitAsync(pending.queries, deadline);
            break;
          case 1:
            live.Submit({pending.queries, deadline},
                        completions.CompletionFor(batches.size()));
            pending.via_completion_queue = true;
            ++cq_submissions;
            break;
          case 2:
            pending.result = live.ServeBatch(pending.queries, deadline);
            break;
        }
      }
      batches.push_back(std::move(pending));
      if ((b + 1) % batches_per_update == 0 && next_update < updates.size()) {
        apply_update(next_update);
        ++next_update;
      }
    }
    while (next_update < updates.size()) {
      apply_update(next_update);
      ++next_update;
    }

    // --- Collect every result. ------------------------------------------
    for (PendingBatch& pending : batches) {
      if (pending.future.has_value()) pending.result = pending.future->get();
      if (pending.wire_client >= 0) {
        auto response = clients[pending.wire_client]->Wait(
            pending.wire_request_id);
        if (!response.ok()) {
          ++report.mismatches;
          if (report.first_mismatch.empty()) {
            report.first_mismatch =
                "wire response failed: " + response.status().ToString();
          }
          continue;
        }
        pending.result = WireToBatchResult(*response);
        ++report.wire_responses;
      }
    }
    for (size_t i = 0; i < cq_submissions; ++i) {
      BatchResult result;
      if (!completions.Next(&result)) break;
      batches[result.tag].result = std::move(result);
    }
    for (size_t i = 0; i < update_futures.size(); ++i) {
      Status status = update_futures[i].get();
      if (status.ok()) {
        update_applied[i] = true;
      } else {
        ++report.failed_updates;
        // Fault mode tolerates injected failures, but only ones announced
        // with an explicit status (the injected transient surfaces as
        // Internal once retries exhaust).
        if (config.faults && !IsExplicitVerdict(status.code()) &&
            status.code() != StatusCode::kInternal) {
          ++report.mismatches;
          if (report.first_mismatch.empty()) {
            report.first_mismatch =
                "failed update carries a non-explicit status: " +
                status.ToString();
          }
        }
      }
    }
    const LiveStats live_stats = live.stats();
    report.swaps = live_stats.swaps;
    report.slices_reused = live_stats.update.slices_reused;
    report.slices_rebuilt = live_stats.update.slices_rebuilt;
    report.suffix_rebuilds = live_stats.update.suffix_rebuilds;
    report.rows_reused = live_stats.update.rows_reused;
    report.batches_coalesced = live_stats.update.batches_coalesced;
    report.cache_entries_carried = live_stats.update.cache_entries_carried;
    report.emergence_tables_carried =
        live_stats.update.emergence_tables_carried;
    report.rebuild_retries = live_stats.update.rebuild_retries;
    report.updates_applied = live_stats.update.batches_applied;
    // Updater accounting invariants: every batch the updater picked up is
    // applied xor failed, and coalescing never claims more riders than
    // there were settled batches. Every update future was awaited above,
    // so the counters are quiescent here.
    const UpdateStats& u = live_stats.update;
    const uint64_t settled = u.batches_applied + live_stats.failed_updates;
    if (settled != u.batches_submitted || u.batches_coalesced > settled) {
      ++report.mismatches;
      if (report.first_mismatch.empty()) {
        std::ostringstream out;
        out << "seed=" << config.seed << " threads=" << config.threads
            << ": update accounting broken: submitted="
            << u.batches_submitted << " applied=" << u.batches_applied
            << " failed=" << live_stats.failed_updates
            << " coalesced=" << u.batches_coalesced;
        report.first_mismatch = out.str();
      }
    }

    // Net mode teardown: close every client, stop the server, then hold it
    // to its quiesced counter invariants — every batch the wire submitted
    // must be accounted, streamed or dropped, and every connection settled.
    if (config.net) {
      for (auto& client : clients) client->Close();
      server->Stop();
      const net::ServerStats wire = server->stats();
      const bool balanced =
          wire.batches_submitted == wire.batches_completed &&
          wire.batches_completed ==
              wire.responses_streamed + wire.responses_dropped &&
          wire.connections_accepted ==
              wire.connections_closed + wire.connections_dropped &&
          wire.requests_received == wire.batches_submitted;
      if (!balanced) {
        ++report.mismatches;
        if (report.first_mismatch.empty()) {
          std::ostringstream out;
          out << "seed=" << config.seed << " threads=" << config.threads
              << ": server accounting broken: submitted="
              << wire.batches_submitted
              << " completed=" << wire.batches_completed
              << " streamed=" << wire.responses_streamed
              << " dropped=" << wire.responses_dropped
              << " accepted=" << wire.connections_accepted
              << " closed=" << wire.connections_closed
              << " conn_dropped=" << wire.connections_dropped
              << " requests=" << wire.requests_received;
          report.first_mismatch = out.str();
        }
      }
    }
  }  // engine destroyed: updater joined, every snapshot's batches drained

  if (!config.faults && report.failed_updates > 0) {
    report.first_mismatch = "an ApplyUpdates batch failed";
    return report;
  }

  // --- Replay the version chain and compare against the oracle. ---------
  // Version V is the initial graph plus the first V *applied* batches in
  // submission order: a failed (fault mode: injected) cycle advances no
  // version, so its batches are skipped in the replay.
  std::vector<TemporalGraph> chain;
  chain.push_back(initial);
  for (size_t i = 0; i < updates.size(); ++i) {
    if (!update_applied[i]) continue;
    auto next = chain.back().AppendEdges(updates[i]);
    if (!next.ok()) {
      report.mismatches = 1;
      report.first_mismatch =
          "chain replay failed: " + next.status().ToString();
      return report;
    }
    chain.push_back(std::move(next->graph));
  }

  std::set<uint64_t> versions;
  for (const PendingBatch& pending : batches) {
    if (!pending.result.has_value()) {
      ++report.mismatches;
      if (report.first_mismatch.empty()) {
        report.first_mismatch = "a submitted batch never delivered a result";
      }
      continue;
    }
    const BatchResult& result = *pending.result;
    if (result.snapshot_version >= chain.size() ||
        result.outcomes.size() != pending.queries.size()) {
      ++report.mismatches;
      if (report.first_mismatch.empty()) {
        report.first_mismatch = "result shape/version out of range";
      }
      continue;
    }
    versions.insert(result.snapshot_version);
    const TemporalGraph& graph = chain[result.snapshot_version];
    for (size_t i = 0; i < pending.queries.size(); ++i) {
      // Fault/net mode: an explicit verdict (shed, expired, shutdown) is a
      // legitimate terminal answer — everything else must be oracle-exact.
      if ((config.faults || config.net) &&
          IsExplicitVerdict(result.outcomes[i].status.code())) {
        ++report.explicit_outcomes;
        continue;
      }
      const RunOutcome oracle =
          RunAlgorithm(AlgorithmKind::kNaive, graph, pending.queries[i]);
      const RunOutcome reference =
          RunAlgorithm(AlgorithmKind::kEnum, graph, pending.queries[i]);
      ++report.queries_checked;
      if (!SameResults(result.outcomes[i], oracle, reference)) {
        ++report.mismatches;
        if (report.first_mismatch.empty()) {
          report.first_mismatch = DescribeMismatch(
              config, result.snapshot_version, pending.queries[i],
              result.outcomes[i], oracle, reference);
        }
      }
    }
  }
  report.versions_served = versions.size();

  if (config.faults) {
    // Index save/load round trip under index_io.corrupt_load: the armed
    // load sees truncated bytes and must surface Status::Corruption — not
    // crash, not silently parse — and the next load (the schedule is a
    // single fire) must round-trip the index bit-identically.
    auto index = PhcIndex::Build(chain.back(), chain.back().FullRange(),
                                 PhcBuildOptions{});
    const std::string path = "tkc_fault_roundtrip_" +
                             std::to_string(config.seed) + "_" +
                             std::to_string(config.threads) + ".phc";
    if (index.ok() && SavePhcIndex(*index, path).ok()) {
      {
        ScopedFault corrupt(kFaultIndexIoCorruptLoad,
                            FaultSchedule{1.0, config.seed, 1});
        auto corrupted = LoadPhcIndex(path);
        if (corrupted.ok() ||
            corrupted.status().code() != StatusCode::kCorruption) {
          ++report.mismatches;
          if (report.first_mismatch.empty()) {
            report.first_mismatch =
                "corrupt_load: truncated index load did not report "
                "Corruption";
          }
        }
      }
      auto reloaded = LoadPhcIndex(path);
      if (!reloaded.ok() || !(*reloaded == *index)) {
        ++report.mismatches;
        if (report.first_mismatch.empty()) {
          report.first_mismatch =
              "corrupt_load: clean reload did not round-trip the index";
        }
      }
      std::remove(path.c_str());
    }
  }
  return report;
}

}  // namespace tkc
