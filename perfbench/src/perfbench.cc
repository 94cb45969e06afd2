// End-to-end benchmark of the temporal k-core server. Starts a TkcServer
// over a LiveQueryEngine in-process (production settings: admission index
// on, 1024-entry cache, a 2-thread serving pool, the default update pool),
// drives it over loopback with closed-loop TkcClient connections and checks
// every verdict field for field against RunAlgorithm(kEnum) on the graph
// version that served it. Every input is drawn from --seed (see
// workload.h).
//
//   tkc_perfbench --workload cold_miss|hot_repeat
//                 --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Each metric is printed by name with its unit; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is 0 only
// when every verdict is right and no operation failed. With --trace 0 the
// metrics are the end-to-end ones, measured untraced. With --trace 1 the
// run is split: an untraced half, then a half that records a span around
// every wire call, then a probe of single calls on one connection and, for
// hot_repeat, a live-ingest phase: the same traffic while an open-loop
// producer ingests an edge batch every 500 ms. Afterwards the recorded calls
// are replayed in-process through serve -> admission -> vct -> core, and
// the ingested batches through graph append -> index rebuild, each call
// wrapped in a span. The per-layer metrics come from those spans and the
// layers' own counters; the spans of replayed requests are written to
// --trace-dir.
//
// Live ingest is a traced phase, not a timed workload of its own: every
// swap empties the cache, and the calls caught in the re-execution storm
// that follows are 1-1.5% of all calls, so a p99 over that traffic sits on
// the knee between hits and storm calls and moves 3-4x as much as the
// machine's speed does.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/enum_algorithm.h"
#include "core/sinks.h"
#include "datasets/registry.h"
#include "graph/graph_stats.h"
#include "measure.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "serve/snapshot.h"
#include "util/mem.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"
#include "workload.h"

namespace perfbench {
namespace {

using tkc::BatchResult;
using tkc::GraphSnapshot;
using tkc::LiveQueryEngine;
using tkc::Query;
using tkc::RawTemporalEdge;
using tkc::ServeStats;
using tkc::TemporalGraph;

constexpr int kServePoolThreads = 2;
// Set-up is timed at least kSetupMinRepeats times and until the set-ups
// add up to kSetupMinSeconds, so a small graph's set-up gets as many
// samples as its noise needs; the median is reported.
constexpr size_t kSetupMinRepeats = 5;
constexpr size_t kSetupMaxRepeats = 25;
constexpr double kSetupMinSeconds = 3.0;
constexpr int kOracleThreads = 4;
constexpr size_t kRecordLimit = 20000;  // traced calls kept for replay
constexpr size_t kSpanReserve = size_t{1} << 19;  // net.call spans per client
// qps and call_p99_ms are robust averages over these.
constexpr int64_t kSubWindowNs = 1000000000;
constexpr double kP99 = 0.99;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Query UnpackQuery(uint64_t packed) {
  Query q;
  q.k = static_cast<uint32_t>(packed >> 48);
  q.range.start = static_cast<tkc::Timestamp>((packed >> 24) & 0xffffff);
  q.range.end = static_cast<tkc::Timestamp>(packed & 0xffffff);
  return q;
}

// --- verdict bookkeeping ---------------------------------------------------

/// The result fields of one verdict — what must equal the oracle.
struct Verdict {
  uint32_t status = 0;
  uint64_t num_cores = 0;
  uint64_t result_size_edges = 0;
  uint64_t vct_size = 0;
  uint64_t ecs_size = 0;
  bool operator==(const Verdict&) const = default;
};

Verdict FromWire(const tkc::net::VerdictFrame& f) {
  return Verdict{f.status_code, f.num_cores, f.result_size_edges, f.vct_size,
                 f.ecs_size};
}

Verdict FromOutcome(const tkc::RunOutcome& o) {
  return Verdict{tkc::net::StatusCodeToWire(o.status.code()), o.num_cores,
                 o.result_size_edges, o.vct_size, o.ecs_size};
}

/// (graph version, packed query): the identity of one expected answer.
struct MemoKey {
  uint64_t version = 0;
  uint64_t query = 0;
  bool operator==(const MemoKey&) const = default;
};
struct MemoKeyHash {
  size_t operator()(const MemoKey& k) const {
    return tkc::SplitMix64(k.query ^ (k.version * 0x9e3779b97f4a7c15ULL));
  }
};
/// First verdict seen per key; later verdicts for the key must repeat it.
using VerdictMemo = std::unordered_map<MemoKey, Verdict, MemoKeyHash>;

// --- closed-loop clients ---------------------------------------------------

/// One wire call kept for the traced run's replay.
struct CallRecord {
  uint64_t request = 0;  ///< unique across connections
  uint64_t span = 0;     ///< its net.call span
  int64_t send_ns = 0;
  int64_t wire_ns = 0;   ///< Send to Wait complete
  uint64_t version = 0;
  bool probe = false;    ///< sent alone: nothing else was on the wire
  std::vector<Query> queries;
};

/// Where a client's next call comes from.
class Traffic {
 public:
  Traffic(const WorkloadSpec& spec, uint32_t window, ColdKeyStream* cold,
          const std::vector<Query>* pool)
      : per_call_(spec.queries_per_call),
        window_(window),
        cold_(cold),
        pool_(pool) {}

  uint32_t window() const { return window_; }

  std::vector<Query> NextCall(tkc::Rng* picks) const {
    if (cold_ != nullptr) return cold_->Next(per_call_);
    std::vector<Query> queries(per_call_);
    for (Query& q : queries) q = (*pool_)[picks->NextBounded(pool_->size())];
    return queries;
  }

 private:
  uint32_t per_call_;
  uint32_t window_;
  ColdKeyStream* cold_;
  const std::vector<Query>* pool_;
};

struct Client {
  uint32_t index = 0;
  std::unique_ptr<tkc::net::TkcClient> conn;
  tkc::Rng picks;
  VerdictMemo memo;
  uint64_t inconsistent = 0;  ///< verdicts disagreeing with an earlier one
  bool broken = false;        ///< transport failed; the connection is gone
  // Measured-phase accounting.
  LatencyHistogram latency;
  uint64_t queries = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  int64_t last_done_ns = 0;
  std::vector<uint64_t> ok_by_window;  ///< OK verdicts per sub-window
  std::vector<LatencyHistogram> latency_by_window;
  // Traced phase only.
  SpanLog spans;
  std::vector<CallRecord> recorded;
};

struct PhaseOptions {
  int64_t end_ns = 0;
  bool measure = false;  ///< account latencies and verdict counts
  bool trace = false;    ///< record a net.call span and keep the call
  bool probe = false;    ///< mark kept calls as sent alone
  int64_t start_ns = 0;  ///< set by RunPhase
};

/// One call on the wire, not yet answered.
struct InFlight {
  uint64_t id = 0;
  int64_t send_ns = 0;
  std::vector<Query> queries;
};

void ClientLoop(Client* c, const Traffic& traffic, const PhaseOptions& opt) {
  std::deque<InFlight> in_flight;
  auto fail = [&](const tkc::Status& status, size_t queries) {
    std::fprintf(stderr, "client %u: transport failure: %s\n", c->index,
                 status.ToString().c_str());
    c->broken = true;
    for (const InFlight& f : in_flight) queries += f.queries.size();
    if (opt.measure) {
      c->queries += queries;
      c->failed += queries;
    }
  };
  while (!c->broken) {
    // Keep the window full until the phase ends, then drain it.
    while (in_flight.size() < traffic.window() && NowNs() < opt.end_ns) {
      InFlight next;
      next.queries = traffic.NextCall(&c->picks);
      next.send_ns = NowNs();
      auto id = c->conn->Send(next.queries);
      if (!id.ok()) {
        fail(id.status(), next.queries.size());
        return;
      }
      next.id = *id;
      in_flight.push_back(std::move(next));
    }
    if (in_flight.empty()) return;
    InFlight call = std::move(in_flight.front());
    in_flight.pop_front();
    std::vector<Query>& queries = call.queries;
    const int64_t t0 = call.send_ns;
    auto response = c->conn->Wait(call.id);
    const int64_t t1 = NowNs();
    if (!response.ok() || response->verdicts.size() != queries.size()) {
      fail(response.ok() ? tkc::Status::Internal("short response")
                         : response.status(),
           queries.size());
      return;
    }
    const uint64_t version = response->snapshot_version;
    uint64_t ok = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Verdict v = FromWire(response->verdicts[i]);
      auto [it, inserted] =
          c->memo.emplace(MemoKey{version, PackQuery(queries[i])}, v);
      if (!inserted && !(it->second == v)) ++c->inconsistent;
      if (v.status == 0) ++ok;
    }
    if (opt.measure) {
      c->latency.Record(Seconds(t1 - t0));
      c->queries += queries.size();
      c->ok += ok;
      c->failed += queries.size() - ok;
      c->last_done_ns = t1;
      const auto window =
          static_cast<size_t>((t1 - opt.start_ns) / kSubWindowNs);
      if (window >= c->ok_by_window.size()) {
        c->ok_by_window.resize(window + 1);
        c->latency_by_window.resize(window + 1);
      }
      c->ok_by_window[window] += ok;
      c->latency_by_window[window].Record(Seconds(t1 - t0));
    }
    if (opt.trace) {
      const uint64_t request = ((uint64_t{c->index} + 1) << 40) | call.id;
      const uint64_t span = c->spans.Add("net.call", request, 0, t0, t1);
      // The few probe calls are always kept: they time the wire alone.
      if (opt.probe || c->recorded.size() < kRecordLimit) {
        c->recorded.push_back(CallRecord{request, span, t0, t1 - t0, version,
                                         opt.probe, std::move(queries)});
      }
    }
  }
}

/// Runs every client until opt.end_ns; returns the options with the
/// phase's start filled in.
PhaseOptions RunPhase(std::span<Client> clients, const Traffic& traffic,
                      PhaseOptions opt) {
  opt.start_ns = NowNs();
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&c, &traffic, &opt] { ClientLoop(&c, traffic, opt); });
  }
  for (std::thread& t : threads) t.join();
  return opt;
}

struct PhaseTotals {
  double qps = 0;
  size_t windows = 0;  ///< sub-windows qps is averaged over (0: whole phase)
  uint64_t queries = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  LatencyHistogram latency;
  /// Median of the sub-windows' p99s; invalid when a sub-window has too
  /// few calls to back a p99 of its own (then the whole phase's is used).
  Percentile window_p99;
};

/// Sums the measured counters of every client and resets them. qps is the
/// interquartile mean and p99 the median over the phase's complete
/// kSubWindowNs windows, so a short stall of the shared machine moves one
/// window, not the figure.
PhaseTotals CollectPhase(std::span<Client> clients, const PhaseOptions& opt) {
  PhaseTotals t;
  // The phase starts a few microseconds after its nominal start: round, so
  // a 25 s phase has 25 windows, not 24.
  const auto windows = static_cast<size_t>(
      (opt.end_ns - opt.start_ns + kSubWindowNs / 100) / kSubWindowNs);
  std::vector<double> window_ok(windows, 0);
  std::vector<LatencyHistogram> window_latency(windows);
  int64_t last = opt.start_ns;
  for (Client& c : clients) {
    t.queries += c.queries;
    t.ok += c.ok;
    t.failed += c.failed;
    t.latency.Merge(c.latency);
    last = std::max(last, c.last_done_ns);
    for (size_t w = 0; w < windows && w < c.ok_by_window.size(); ++w) {
      window_ok[w] += static_cast<double>(c.ok_by_window[w]);
      window_latency[w].Merge(c.latency_by_window[w]);
    }
    c.latency = LatencyHistogram();
    c.ok_by_window.clear();
    c.latency_by_window.clear();
    c.queries = c.ok = c.failed = 0;
  }
  if (windows >= 3) {
    t.windows = windows;
    t.qps = InterquartileMean(window_ok) / Seconds(kSubWindowNs);
  } else {
    t.qps = Ratio(static_cast<double>(t.ok), Seconds(last - opt.start_ns));
  }
  t.window_p99 = MedianTail(window_latency, kP99);
  return t;
}

ServeStats& operator+=(ServeStats& a, const ServeStats& b) {
  a.batches += b.batches;
  a.queries_served += b.queries_served;
  a.cache_hits += b.cache_hits;
  a.cache_misses += b.cache_misses;
  a.cache_evictions += b.cache_evictions;
  a.index_rejections += b.index_rejections;
  a.batch_dedup_hits += b.batch_dedup_hits;
  a.executed += b.executed;
  a.async_batches += b.async_batches;
  a.batches_shed += b.batches_shed;
  a.deadlines_expired += b.deadlines_expired;
  return a;
}

ServeStats operator-(ServeStats a, const ServeStats& b) {
  a.batches -= b.batches;
  a.queries_served -= b.queries_served;
  a.cache_hits -= b.cache_hits;
  a.cache_misses -= b.cache_misses;
  a.cache_evictions -= b.cache_evictions;
  a.index_rejections -= b.index_rejections;
  a.batch_dedup_hits -= b.batch_dedup_hits;
  a.executed -= b.executed;
  a.async_batches -= b.async_batches;
  a.batches_shed -= b.batches_shed;
  a.deadlines_expired -= b.deadlines_expired;
  return a;
}

// --- open-loop update producer ---------------------------------------------

/// Sends one batch every kUpdateIntervalSeconds on a fixed schedule (never
/// waiting for swaps) and, on a second thread, records when each batch's
/// ApplyUpdates future resolves, timed from the batch's scheduled send. It
/// follows the engine from snapshot to snapshot so the serve counters of
/// every version can be summed, while holding only the current one.
class UpdateDriver {
 public:
  UpdateDriver(LiveQueryEngine* live,
               const std::vector<std::vector<RawTemporalEdge>>* batches)
      : live_(live), batches_(batches) {
    Track();
  }
  ~UpdateDriver() { Join(); }
  UpdateDriver(const UpdateDriver&) = delete;
  UpdateDriver& operator=(const UpdateDriver&) = delete;

  void Start(int64_t start_ns, int64_t end_ns) {
    producer_ = std::thread([this, start_ns, end_ns] { Produce(start_ns, end_ns); });
    waiter_ = std::thread([this] { Await(); });
  }

  /// Returns once every sent batch has settled.
  void Join() {
    if (producer_.joinable()) producer_.join();
    if (waiter_.joinable()) waiter_.join();
  }

  /// Serve counters summed over every snapshot published so far.
  ServeStats SumServeStats() TKC_EXCLUDES(mu_) {
    Track();
    tkc::MutexLock lock(mu_);
    ServeStats sum = retired_;
    sum += current_->engine().stats();
    return sum;
  }

  // Written by the threads; read after Join().
  LatencyHistogram visible;  ///< per applied batch
  double max_late_s = 0;          ///< how far behind schedule a send ran
  uint64_t sent = 0;
  uint64_t failed = 0;

 private:
  struct Pending {
    int64_t scheduled_ns = 0;
    std::future<tkc::Status> done;
  };

  void Produce(int64_t start_ns, int64_t end_ns) {
    const auto interval_ns =
        static_cast<int64_t>(kUpdateIntervalSeconds * 1e9);
    for (size_t i = 0; i < batches_->size(); ++i) {
      const int64_t due = start_ns + static_cast<int64_t>(i + 1) * interval_ns;
      if (due >= end_ns) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs()));
      max_late_s = std::max(max_late_s, Seconds(NowNs() - due));
      Pending p{due, live_->ApplyUpdates((*batches_)[i])};
      ++sent;
      tkc::MutexLock lock(mu_);
      queue_.push_back(std::move(p));
      cv_.NotifyAll();
    }
    tkc::MutexLock lock(mu_);
    producing_ = false;
    cv_.NotifyAll();
  }

  void Await() {
    while (true) {
      Pending p;
      {
        tkc::MutexLock lock(mu_);
        while (queue_.empty() && producing_) cv_.Wait(mu_);
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      const tkc::Status status = p.done.get();
      const int64_t now = NowNs();
      if (!status.ok()) {
        ++failed;
        continue;
      }
      visible.Record(Seconds(now - p.scheduled_ns));
      Track();
    }
  }

  /// Moves to the engine's current snapshot, folding the counters of the
  /// one it replaced into retired_ (final once superseded, up to the few
  /// calls still in flight on it).
  void Track() TKC_EXCLUDES(mu_) {
    std::shared_ptr<const GraphSnapshot> now = live_->snapshot();
    tkc::MutexLock lock(mu_);
    if (current_ != nullptr && current_->version() == now->version()) return;
    if (current_ != nullptr) retired_ += current_->engine().stats();
    current_ = std::move(now);
  }

  LiveQueryEngine* live_;
  const std::vector<std::vector<RawTemporalEdge>>* batches_;
  tkc::Mutex mu_;
  tkc::CondVar cv_;
  std::deque<Pending> queue_ TKC_GUARDED_BY(mu_);
  bool producing_ TKC_GUARDED_BY(mu_) = true;
  std::shared_ptr<const GraphSnapshot> current_ TKC_GUARDED_BY(mu_);
  ServeStats retired_ TKC_GUARDED_BY(mu_);
  std::thread producer_;
  std::thread waiter_;
};

// --- traced replay ---------------------------------------------------------

struct ReplayTotals {
  LatencyHistogram submit;  ///< per replayed call
  /// Per probe call: its wire round trip minus its replayed submit.
  std::vector<double> wire_overhead_s;
  uint64_t admissions = 0;
  int64_t admission_ns = 0;
  uint64_t execs = 0;
  int64_t coretime_ns = 0;
  int64_t enum_ns = 0;
  uint64_t vct_entries = 0;
  uint64_t ecs_windows = 0;
  uint64_t cores = 0;
  uint64_t result_edges = 0;
  // Breakdown of serve.submit over the calls whose misses were known.
  int64_t attributed_submit_ns = 0;
  int64_t serve_self_ns = 0;
  uint64_t unattributed = 0;  ///< calls whose miss count defied the model
  uint64_t mismatches = 0;    ///< direct-path answers disagreeing with serve
};

/// Replays recorded calls in-process, in order, until `budget_ns` runs out:
/// the whole call through the serve layer, then — except for probe calls,
/// which time the serve layer alone — for the queries that missed the
/// cache in it, admission, the CoreTime build and the enumeration, each
/// called directly. `cached` holds the keys in the
/// engine's cache: a query misses iff its key is not in it, and the first
/// miss of each key executes (later copies in the call are deduplicated).
/// The engine's miss counter checks that model call by call; being
/// single-threaded, its delta around a submission is that call's. The
/// direct calls redo the work serve.submit did for the misses, so the
/// serve layer's own share of the call is its submit time minus theirs.
void ReplayCalls(LiveQueryEngine* live, const std::vector<CallRecord>& calls,
                 int64_t budget_ns, std::unordered_set<uint64_t>* cached,
                 SpanLog* log, ReplayTotals* out) {
  tkc::VctBuildArena arena;
  const int64_t stop = NowNs() + budget_ns;
  std::shared_ptr<const GraphSnapshot> snap = live->snapshot();
  tkc::QueryEngine& engine = snap->engine();
  for (const CallRecord& call : calls) {
    if (NowNs() >= stop) break;
    std::vector<size_t> leaders;
    uint64_t predicted_misses = 0;
    {
      std::unordered_set<uint64_t> seen;
      for (size_t i = 0; i < call.queries.size(); ++i) {
        const uint64_t key = PackQuery(call.queries[i]);
        if (cached->count(key) != 0) continue;
        ++predicted_misses;
        if (seen.insert(key).second) leaders.push_back(i);
      }
    }
    const uint64_t root = log->Begin("bench.replay", call.request, call.span);
    const uint64_t before = engine.stats().cache_misses;
    const uint64_t submit = log->Begin("serve.submit", call.request, root);
    const BatchResult served = live->SubmitAsync(call.queries).get();
    log->End(submit);
    const int64_t submit_ns =
        log->spans().back().end_ns - log->spans().back().start_ns;
    out->submit.Record(Seconds(submit_ns));
    for (const Query& q : call.queries) cached->insert(PackQuery(q));
    // A probe call is replayed as its wire call ran: back to back with the
    // previous one, with no direct layer calls (and their arena) between.
    if (call.probe) {
      out->wire_overhead_s.push_back(Seconds(call.wire_ns - submit_ns));
      log->End(root);
      continue;
    }
    if (engine.stats().cache_misses - before != predicted_misses) {
      ++out->unattributed;
      log->End(root);
      continue;
    }
    int64_t layers_ns = 0;
    for (size_t i : leaders) {
      const Query& q = call.queries[i];
      const uint64_t adm = log->Begin("serve.admission", call.request, root);
      const bool may_contain = engine.MayContainCore(q.k, q.range);
      log->End(adm);
      const int64_t adm_ns =
          log->spans().back().end_ns - log->spans().back().start_ns;
      out->admission_ns += adm_ns;
      layers_ns += adm_ns;
      ++out->admissions;
      if (!may_contain) continue;
      const uint64_t vct = log->Begin("vct.coretime", call.request, root);
      tkc::VctBuildResult built =
          tkc::BuildVctAndEcs(snap->graph(), q.k, q.range, &arena);
      log->End(vct);
      const int64_t vct_ns =
          log->spans().back().end_ns - log->spans().back().start_ns;
      const uint64_t enm = log->Begin("core.enum", call.request, root);
      tkc::CountingSink sink;
      const tkc::Status status = tkc::EnumerateFromEcs(built.ecs, &sink);
      log->End(enm);
      const int64_t enum_ns =
          log->spans().back().end_ns - log->spans().back().start_ns;
      out->coretime_ns += vct_ns;
      out->enum_ns += enum_ns;
      layers_ns += vct_ns + enum_ns;
      ++out->execs;
      out->vct_entries += built.vct.size();
      out->ecs_windows += built.ecs.size();
      out->cores += sink.num_cores();
      out->result_edges += sink.result_size_edges();
      const tkc::RunOutcome& o = served.outcomes[i];
      if (!status.ok() || sink.num_cores() != o.num_cores ||
          sink.result_size_edges() != o.result_size_edges ||
          built.vct.size() != o.vct_size || built.ecs.size() != o.ecs_size) {
        ++out->mismatches;
      }
    }
    out->attributed_submit_ns += submit_ns;
    out->serve_self_ns += std::max<int64_t>(0, submit_ns - layers_ns);
    log->End(root);
  }
}

/// Microseconds per call to encode and decode one request and its response
/// (AppendQueryRequest, AppendVerdict x n, AppendBatchEnd, FrameParser).
double CodecMicrosPerCall(const std::vector<CallRecord>& calls,
                          const VerdictMemo& memo) {
  if (calls.empty()) return 0;
  const int64_t start = NowNs();
  std::string request_bytes;
  std::string response_bytes;
  tkc::net::Frame frame;
  for (const CallRecord& call : calls) {
    request_bytes.clear();
    response_bytes.clear();
    tkc::net::AppendQueryRequest(
        tkc::net::QueryRequestFrame{call.request, 0, call.queries},
        &request_bytes);
    for (uint32_t i = 0; i < call.queries.size(); ++i) {
      const Verdict& v =
          memo.at(MemoKey{call.version, PackQuery(call.queries[i])});
      tkc::net::AppendVerdict(
          tkc::net::VerdictFrame{call.request, i, v.status, v.num_cores,
                                 v.result_size_edges, v.vct_size, v.ecs_size},
          &response_bytes);
    }
    tkc::net::AppendBatchEnd(
        tkc::net::BatchEndFrame{call.request, call.version,
                                static_cast<uint32_t>(call.queries.size())},
        &response_bytes);
    tkc::net::FrameParser parser;
    parser.Feed(request_bytes.data(), request_bytes.size());
    parser.Feed(response_bytes.data(), response_bytes.size());
    while (parser.Next(&frame) == tkc::net::FrameParser::Result::kFrame) {
    }
  }
  const double us = static_cast<double>(NowNs() - start) * 1e-3;
  return us / static_cast<double>(calls.size());
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit, const std::string& note = "") {
  out->push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit, note});
}

std::string PercentileNote(const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.2f of %zu samples%s", p.rank * 100,
                p.samples, p.valid ? "" : ", too few samples: maximum");
  return buf;
}

/// The percentile rule, falling back to the maximum when too few samples.
Percentile Tail(const LatencyHistogram& samples, double target) {
  Percentile p = samples.Tail(target);
  if (!p.valid && samples.count() > 0) {
    p = samples.Tail(1.0, 0);
    p.valid = false;
  }
  return p;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMiB() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across exec, so a large
  // parent (such as the Python launcher) would set its floor.
  return static_cast<double>(tkc::ReadVmHWMBytes()) / kMiB;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  auto graph_or = tkc::GenerateByName(spec.dataset, spec.scale);
  if (!graph_or.ok()) {
    std::fprintf(stderr, "dataset: %s\n", graph_or.status().ToString().c_str());
    return 1;
  }
  const TemporalGraph graph = std::move(graph_or).value();
  const uint32_t kmax = tkc::ComputeGraphStats(graph).kmax;
  const tkc::Timestamp tmax = graph.num_timestamps();
  std::printf("workload %s: %s@%.2f |V|=%u |E|=%u tmax=%u kmax=%u seed=%llu "
              "seconds=%.1f trace=%d\n",
              spec.name, spec.dataset, spec.scale, graph.num_vertices(),
              graph.num_edges(), tmax, kmax,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // Seeded inputs.
  ColdKeyStream cold(StreamSeed(args.seed, 1), kmax, tmax);
  const std::vector<Query> pool =
      DrawKeyPool(StreamSeed(args.seed, 2), kmax, tmax, kKeyPoolSize);
  // Warm-up runs the workload's own traffic off the clock, so the timed
  // window starts in steady state.
  const double warmup_s = std::min(1.0, args.seconds / 5);
  // The live-ingest phase: four batches per second of --seconds (100 at
  // 25 s, enough for update_visible_p90_ms to keep 10 samples beyond it).
  const uint32_t ingest_batches =
      spec.ingest && args.trace
          ? static_cast<uint32_t>(std::max(4.0, 4 * args.seconds))
          : 0;
  const std::vector<std::vector<RawTemporalEdge>> batches =
      DrawUpdateBatches(graph, StreamSeed(args.seed, 3), ingest_batches);
  ColdKeyStream* cold_keys = spec.cold_keys ? &cold : nullptr;
  const Traffic traffic(spec, spec.window, cold_keys, &pool);
  // The traced run's probe: one call at a time on one connection, so its
  // round trips hold no queueing behind other calls.
  const Traffic alone(spec, 1, cold_keys, &pool);

  // Set-up: engine (PHC index + emergence tables) plus server start, timed
  // repeatedly; the last one serves the run. Each set-up gets a fresh
  // serving pool (created off the clock), so the median spans several
  // placements of its threads on the machine's cores, not just one.
  tkc::LiveEngineOptions options;
  options.engine.build_index = true;
  options.engine.cache_capacity = 1024;
  std::unique_ptr<tkc::ThreadPool> serve_pool;
  std::unique_ptr<LiveQueryEngine> live;
  std::unique_ptr<tkc::net::TkcServer> server;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  while (setup_s.size() < kSetupMinRepeats ||
         (setup_total_s < kSetupMinSeconds &&
          setup_s.size() < kSetupMaxRepeats)) {
    server.reset();
    live.reset();
    serve_pool = std::make_unique<tkc::ThreadPool>(kServePoolThreads);
    options.engine.pool = serve_pool.get();
    TemporalGraph copy = graph;
    const int64_t t0 = NowNs();
    auto live_or = LiveQueryEngine::Create(std::move(copy), options);
    if (!live_or.ok()) {
      std::fprintf(stderr, "engine: %s\n", live_or.status().ToString().c_str());
      return 1;
    }
    live = std::move(live_or).value();
    auto server_or = tkc::net::TkcServer::Start(live.get());
    if (!server_or.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   server_or.status().ToString().c_str());
      return 1;
    }
    server = std::move(server_or).value();
    setup_s.push_back(Seconds(NowNs() - t0));
    setup_total_s += setup_s.back();
  }

  std::vector<Client> clients(spec.connections);
  for (uint32_t i = 0; i < spec.connections; ++i) {
    clients[i].index = i;
    clients[i].picks = tkc::Rng(StreamSeed(args.seed, 100 + i));
    clients[i].spans = SpanLog((uint64_t{i} + 1) << 40);
    // Reserved up front so the traced half pays for recording spans, not
    // for regrowing the log.
    if (args.trace) clients[i].spans.Reserve(kSpanReserve);
    auto conn = tkc::net::TkcClient::Connect("127.0.0.1", server->port());
    if (!conn.ok()) {
      std::fprintf(stderr, "client: %s\n", conn.status().ToString().c_str());
      return 1;
    }
    clients[i].conn = std::move(conn).value();
  }

  // Warm-up: the key pool into the cache, then the workload's traffic.
  if (!spec.cold_keys) {
    for (size_t i = 0; i < pool.size(); i += spec.queries_per_call) {
      const size_t end = std::min(pool.size(), i + spec.queries_per_call);
      auto r = clients[0].conn->Query(
          std::vector<Query>(pool.begin() + i, pool.begin() + end));
      if (!r.ok()) {
        std::fprintf(stderr, "warm-up: %s\n", r.status().ToString().c_str());
        return 1;
      }
    }
  }
  UpdateDriver updates(live.get(), &batches);
  const auto window_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t warmup_start = NowNs();
  const int64_t timed_start =
      warmup_start + static_cast<int64_t>(warmup_s * 1e9);
  RunPhase(clients, traffic, PhaseOptions{timed_start});

  // Timed phase. Untraced: one window. Traced: an untraced half, then a
  // traced half (the qps difference is the tracing overhead), then a short
  // probe of single calls on one connection, then the live-ingest phase.
  const ServeStats serve_before = updates.SumServeStats();
  PhaseTotals untraced;
  PhaseTotals traced;
  PhaseTotals probe;
  PhaseTotals ingest;
  if (!args.trace) {
    const PhaseOptions phase = RunPhase(
        clients, traffic, PhaseOptions{timed_start + window_ns, true});
    untraced = CollectPhase(clients, phase);
  } else {
    const int64_t half = timed_start + window_ns / 2;
    PhaseOptions phase = RunPhase(clients, traffic, PhaseOptions{half, true});
    untraced = CollectPhase(clients, phase);
    phase = RunPhase(clients, traffic,
                     PhaseOptions{timed_start + window_ns, true, true});
    traced = CollectPhase(clients, phase);
  }
  const int64_t timed_end = NowNs();
  if (args.trace) {
    const auto probe_ns =
        static_cast<int64_t>(std::max(1.0, args.seconds / 10) * 1e9);
    const PhaseOptions phase =
        RunPhase(std::span<Client>(clients).first(1), alone,
                 PhaseOptions{NowNs() + probe_ns, true, true, true});
    probe = CollectPhase(clients, phase);
  }
  if (!batches.empty()) {
    // The producer sends every batch before the clients stop; Join waits
    // for the last swaps to land.
    const int64_t start = NowNs();
    const int64_t end =
        start + static_cast<int64_t>((static_cast<double>(batches.size()) +
                                      1) * kUpdateIntervalSeconds * 1e9);
    updates.Start(start, end);
    const PhaseOptions phase =
        RunPhase(clients, traffic, PhaseOptions{end, true});
    ingest = CollectPhase(clients, phase);
    updates.Join();
  }
  // Before the oracle: its parallel arenas are the benchmark's, not the
  // server's.
  const double peak_rss_mb = PeakRssMiB();

  // Counters of the measured phases, summed over every published snapshot.
  const ServeStats serve = updates.SumServeStats() - serve_before;
  const tkc::LiveStats live_stats = live->stats();
  const tkc::net::ServerStats wire = server->stats();

  // Oracle: every distinct (version, query) answered is checked against
  // RunAlgorithm(kEnum) on that graph version, rebuilt by appending batches
  // 1..N in order (only the current version is held). The traced run also
  // times each append and, within its budget, the index rebuild after it.
  VerdictMemo answers;
  uint64_t inconsistent = 0;
  for (const Client& c : clients) {
    inconsistent += c.inconsistent;
    for (const auto& [key, verdict] : c.memo) {
      auto [it, inserted] = answers.emplace(key, verdict);
      if (!inserted && !(it->second == verdict)) ++inconsistent;
    }
  }
  std::vector<std::pair<MemoKey, Verdict>> items(answers.begin(), answers.end());
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    return a.first.version != b.first.version ? a.first.version < b.first.version
                                              : a.first.query < b.first.query;
  });
  uint64_t mismatches = 0;
  auto mismatch = [&mismatches](const MemoKey& key, const Verdict& got,
                                const Verdict& want) {
    if (mismatches++ >= 5) return;
    const Query q = UnpackQuery(key.query);
    std::fprintf(stderr,
                 "MISMATCH v%llu k=%u [%u,%u]: got status=%u cores=%llu "
                 "|R|=%llu vct=%llu ecs=%llu, want status=%u cores=%llu "
                 "|R|=%llu vct=%llu ecs=%llu\n",
                 static_cast<unsigned long long>(key.version), q.k,
                 q.range.start, q.range.end, got.status,
                 static_cast<unsigned long long>(got.num_cores),
                 static_cast<unsigned long long>(got.result_size_edges),
                 static_cast<unsigned long long>(got.vct_size),
                 static_cast<unsigned long long>(got.ecs_size), want.status,
                 static_cast<unsigned long long>(want.num_cores),
                 static_cast<unsigned long long>(want.result_size_edges),
                 static_cast<unsigned long long>(want.vct_size),
                 static_cast<unsigned long long>(want.ecs_size));
  };
  std::vector<double> append_s;
  std::vector<double> rebuild_s;
  double index_build_s = 0;
  SpanLog update_log(uint64_t{60} << 40);
  std::optional<tkc::PhcIndex> index;
  if (args.trace) {
    const int64_t t0 = NowNs();
    auto built = tkc::PhcIndex::Build(graph, graph.FullRange(),
                                      tkc::PhcBuildOptions{0, serve_pool.get()});
    index_build_s = Seconds(NowNs() - t0);
    if (built.ok()) index = std::move(built).value();
  }
  {
    tkc::ThreadPool oracle_pool(kOracleThreads);
    tkc::ThreadPool update_pool(kServePoolThreads);
    std::vector<tkc::VctBuildArena> arenas(kOracleThreads);
    const int64_t rebuild_stop =
        NowNs() + static_cast<int64_t>(args.seconds * 0.3e9);
    TemporalGraph current = graph;
    size_t begin = 0;
    for (uint64_t v = 0;; ++v) {
      size_t end = begin;
      while (end < items.size() && items[end].first.version == v) ++end;
      std::vector<Verdict> expected(end - begin);
      oracle_pool.ParallelFor(expected.size(), [&](size_t i, int worker) {
        expected[i] = FromOutcome(tkc::RunAlgorithm(
            tkc::AlgorithmKind::kEnum, current,
            UnpackQuery(items[begin + i].first.query), tkc::Deadline(),
            &arenas[worker]));
      });
      for (size_t i = 0; i < expected.size(); ++i) {
        const auto& [key, got] = items[begin + i];
        if (!(got == expected[i])) mismatch(key, got, expected[i]);
      }
      begin = end;
      if (v == updates.sent) break;

      const uint64_t root = update_log.Begin("bench.update", v + 1, 0);
      const int64_t t0 = NowNs();
      auto next = current.AppendEdges(batches[v]);
      const int64_t t1 = NowNs();
      update_log.Add("graph.append", v + 1, root, t0, t1);
      append_s.push_back(Seconds(t1 - t0));
      if (!next.ok()) {
        std::fprintf(stderr, "oracle: append %llu: %s\n",
                     static_cast<unsigned long long>(v + 1),
                     next.status().ToString().c_str());
        return 1;
      }
      if (!next->delta.timestamps_preserved || !next->delta.vertices_preserved) {
        std::fprintf(stderr, "batch %llu changed the timeline or vertex pool\n",
                     static_cast<unsigned long long>(v + 1));
        ++mismatches;
      }
      if (index.has_value() && NowNs() < rebuild_stop) {
        const int64_t r0 = NowNs();
        auto rebuilt = tkc::PhcIndex::Rebuild(
            *index, next->graph, next->delta,
            tkc::PhcBuildOptions{0, &update_pool});
        const int64_t r1 = NowNs();
        update_log.Add("vct.rebuild", v + 1, root, r0, r1);
        if (rebuilt.ok()) {
          rebuild_s.push_back(Seconds(r1 - r0));
          index = std::move(rebuilt).value();
        } else {
          index.reset();
        }
      }
      update_log.End(root);
      current = std::move(next->graph);
    }
    for (; begin < items.size(); ++begin) {
      std::fprintf(stderr, "oracle: verdict from unsent version %llu\n",
                   static_cast<unsigned long long>(items[begin].first.version));
      ++mismatches;
    }
  }

  // End-to-end figures (untraced window).
  const uint64_t attempted = untraced.queries + traced.queries +
                             probe.queries + ingest.queries + updates.sent;
  const uint64_t failed = untraced.failed + traced.failed + probe.failed +
                          ingest.failed + updates.failed;
  const Percentile p50 = Tail(untraced.latency, 0.50);
  const Percentile p99 = untraced.window_p99.valid
                             ? untraced.window_p99
                             : Tail(untraced.latency, kP99);
  const Percentile vis50 = Tail(updates.visible, 0.50);
  const Percentile vis90 = Tail(updates.visible, 0.90);
  std::vector<Metric> e2e;
  Add(&e2e, "setup_s", Median(setup_s), "s",
      "median of " + std::to_string(setup_s.size()) + " set-ups");
  Add(&e2e, "qps", untraced.qps, "queries/s",
      "interquartile mean of " + std::to_string(untraced.windows) +
          " windows, " +
          std::to_string(untraced.ok) + " OK verdicts");
  Add(&e2e, "call_p50_ms", p50.value * 1e3, "ms", PercentileNote(p50));
  Add(&e2e, "call_p99_ms", p99.value * 1e3, "ms",
      untraced.window_p99.valid
          ? "median over " + std::to_string(untraced.windows) +
                " windows; its window: " + PercentileNote(p99)
          : PercentileNote(p99));
  Add(&e2e, "peak_rss_mb", peak_rss_mb, "MB", "VmHWM after the timed phase");
  std::vector<Metric> extra;
  Add(&extra, "failed_frac", Ratio(failed, attempted), "ratio",
      std::to_string(failed) + " of " + std::to_string(attempted));
  PrintMetrics("end-to-end:", e2e);
  PrintMetrics("also:", extra);

  bool correct = mismatches == 0 && inconsistent == 0;
  std::vector<Metric> layer;
  if (args.trace) {
    // Replay the traced calls through the layers, then the update batches.
    std::vector<CallRecord> recorded;
    for (Client& c : clients) {
      for (CallRecord& r : c.recorded) recorded.push_back(std::move(r));
    }
    // Probe calls first: the budget must reach them.
    std::sort(recorded.begin(), recorded.end(),
              [](const CallRecord& a, const CallRecord& b) {
                return a.probe != b.probe ? a.probe : a.send_ns < b.send_ns;
              });
    const double codec_us = CodecMicrosPerCall(recorded, answers);
    // The replay starts from the cache the workload served from: empty for
    // cold keys, the warmed pool otherwise.
    live->snapshot()->engine().ClearCache();
    std::unordered_set<uint64_t> cached;
    if (!spec.cold_keys) {
      live->SubmitAsync(pool).get();
      for (const Query& q : pool) cached.insert(PackQuery(q));
    }
    SpanLog replay_log(uint64_t{50} << 40);
    ReplayTotals replay;
    const auto budget_ns = static_cast<int64_t>(args.seconds * 0.3e9);
    ReplayCalls(live.get(), recorded, budget_ns, &cached, &replay_log,
                &replay);
    if (replay.mismatches > 0) correct = false;
    if (!args.trace_dir.empty()) {
      std::unordered_set<uint64_t> replayed;
      for (const Span& s : replay_log.spans()) replayed.insert(s.parent);
      std::vector<Span> out;
      for (const Client& c : clients) {
        for (const Span& s : c.spans.spans()) {
          if (replayed.count(s.id) != 0) out.push_back(s);
        }
      }
      out.insert(out.end(), replay_log.spans().begin(), replay_log.spans().end());
      out.insert(out.end(), update_log.spans().begin(), update_log.spans().end());
      const std::string path = args.trace_dir + "/" + spec.name + "_seed" +
                               std::to_string(args.seed) + ".tsv";
      if (WriteSpans(path, out)) {
        std::printf("wrote %zu spans to %s\n", out.size(), path.c_str());
      }
    }

    const tkc::UpdateStats& u = live_stats.update;
    const double swaps = static_cast<double>(live_stats.swaps);
    const double tables = static_cast<double>(u.slices_reused + u.slices_rebuilt +
                                              u.suffix_rebuilds);
    const Percentile submit50 = Tail(replay.submit, 0.50);
    const Percentile submit99 = Tail(replay.submit, 0.99);
    const double execs = static_cast<double>(replay.execs);
    const double served = static_cast<double>(serve.queries_served);
    const tkc::PhcIndex* live_index = live->snapshot()->engine().index();

    Add(&layer, "net.wire_overhead_ms_p50",
        Median(replay.wire_overhead_s) * 1e3, "ms",
        "median over " + std::to_string(replay.wire_overhead_s.size()) +
            " probe calls of round trip minus replayed submit");
    Add(&layer, "net.codec_us_per_call", codec_us, "us",
        std::to_string(recorded.size()) + " calls");
    Add(&layer, "net.bytes_per_query",
        Ratio(static_cast<double>(wire.bytes_read + wire.bytes_written),
              static_cast<double>(wire.responses_streamed)),
        "bytes");
    Add(&layer, "net.responses_dropped",
        static_cast<double>(wire.responses_dropped), "count");
    Add(&layer, "net.errors_sent", static_cast<double>(wire.errors_sent),
        "count");
    Add(&layer, "serve.submit_ms_p50", submit50.value * 1e3, "ms",
        PercentileNote(submit50));
    Add(&layer, "serve.submit_ms_p99", submit99.value * 1e3, "ms",
        PercentileNote(submit99));
    Add(&layer, "serve.cache_hit_rate",
        Ratio(static_cast<double>(serve.cache_hits),
              static_cast<double>(serve.cache_hits + serve.cache_misses)),
        "ratio");
    Add(&layer, "serve.index_rejection_frac",
        Ratio(static_cast<double>(serve.index_rejections), served), "ratio");
    Add(&layer, "serve.executed_per_query",
        Ratio(static_cast<double>(serve.executed), served), "ratio");
    Add(&layer, "serve.admission_ns",
        Ratio(static_cast<double>(replay.admission_ns),
              static_cast<double>(replay.admissions)),
        "ns");
    Add(&layer, "serve.cache_entries_carried_per_swap",
        Ratio(static_cast<double>(u.cache_entries_carried), swaps), "count");
    Add(&layer, "serve.emergence_carried_frac",
        Ratio(static_cast<double>(u.emergence_tables_carried), tables), "ratio");
    Add(&layer, "serve.swaps", swaps, "count");
    Add(&layer, "serve.batches_coalesced",
        static_cast<double>(u.batches_coalesced), "count");
    Add(&layer, "serve.batches_shed", static_cast<double>(serve.batches_shed),
        "count");
    Add(&layer, "serve.deadlines_expired",
        static_cast<double>(serve.deadlines_expired), "count");
    Add(&layer, "vct.coretime_ms_per_exec",
        Ratio(static_cast<double>(replay.coretime_ns) * 1e-6, execs), "ms",
        std::to_string(replay.execs) + " executions");
    Add(&layer, "vct.vct_entries_per_exec",
        Ratio(static_cast<double>(replay.vct_entries), execs), "count");
    Add(&layer, "vct.ecs_windows_per_exec",
        Ratio(static_cast<double>(replay.ecs_windows), execs), "count");
    Add(&layer, "vct.index_build_s", index_build_s, "s");
    Add(&layer, "vct.index_mb",
        live_index != nullptr
            ? static_cast<double>(live_index->MemoryUsageBytes()) / kMiB
            : 0,
        "MB");
    Add(&layer, "vct.rebuild_ms_p50", Median(rebuild_s) * 1e3, "ms",
        std::to_string(rebuild_s.size()) + " batches");
    Add(&layer, "vct.rows_reused_frac",
        Ratio(static_cast<double>(u.rows_reused),
              static_cast<double>(u.rows_total)),
        "ratio");
    Add(&layer, "vct.slices_reused", static_cast<double>(u.slices_reused),
        "count");
    Add(&layer, "vct.suffix_rebuilds", static_cast<double>(u.suffix_rebuilds),
        "count");
    Add(&layer, "vct.slices_rebuilt", static_cast<double>(u.slices_rebuilt),
        "count");
    Add(&layer, "core.enum_ms_per_exec",
        Ratio(static_cast<double>(replay.enum_ns) * 1e-6, execs), "ms");
    Add(&layer, "core.ns_per_result_edge",
        Ratio(static_cast<double>(replay.enum_ns),
              static_cast<double>(replay.result_edges)),
        "ns");
    Add(&layer, "core.cores_per_exec",
        Ratio(static_cast<double>(replay.cores), execs), "count");
    Add(&layer, "core.result_edges_per_exec",
        Ratio(static_cast<double>(replay.result_edges), execs), "count");
    Add(&layer, "graph.append_ms_p50", Median(append_s) * 1e3, "ms",
        std::to_string(append_s.size()) + " batches");
    Add(&layer, "graph.delta_edges_per_update",
        Ratio(static_cast<double>(live_stats.edges_applied),
              static_cast<double>(u.batches_applied)),
        "count");
    const std::string share_note =
        "share of serve.submit; " + std::to_string(replay.unattributed) +
        " calls unattributed";
    const auto submit_ns = static_cast<double>(replay.attributed_submit_ns);
    Add(&layer, "serve.self_frac",
        Ratio(static_cast<double>(replay.serve_self_ns), submit_ns), "ratio",
        share_note);
    Add(&layer, "vct.self_frac",
        Ratio(static_cast<double>(replay.coretime_ns), submit_ns), "ratio",
        share_note);
    Add(&layer, "core.self_frac",
        Ratio(static_cast<double>(replay.enum_ns), submit_ns), "ratio",
        share_note);
    Add(&layer, "update_visible_p50_ms", vis50.value * 1e3, "ms",
        PercentileNote(vis50));
    Add(&layer, "update_visible_p90_ms", vis90.value * 1e3, "ms",
        PercentileNote(vis90));
    Add(&layer, "failed_frac", Ratio(failed, attempted), "ratio");
    Add(&layer, "bench.update_send_late_ms_max", updates.max_late_s * 1e3,
        "ms");
    const Percentile ingest_p99 = Tail(ingest.latency, kP99);
    Add(&layer, "bench.ingest_qps_ratio", Ratio(ingest.qps, untraced.qps),
        "ratio", "live-ingest phase qps over the untraced half's");
    Add(&layer, "bench.ingest_call_p99_ms", ingest_p99.value * 1e3, "ms",
        PercentileNote(ingest_p99));
    Add(&layer, "bench.tracing_overhead_frac",
        Ratio(untraced.qps - traced.qps, untraced.qps), "ratio",
        "untraced half vs traced half");
    PrintMetrics("per-layer (traced run):", layer);
  }

  std::printf("checked %zu distinct (version, query) answers against "
              "RunAlgorithm(kEnum): %llu mismatches, %llu inconsistent; "
              "timed phase %.2f s\n",
              items.size(), static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(inconsistent),
              Seconds(timed_end - timed_start));
  server->Stop();
  PrintJson(correct, attempted, failed, args.trace ? layer : e2e);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tkc_perfbench --workload cold_miss|hot_repeat "
                 "--seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
