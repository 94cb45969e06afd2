#include "serve/query_engine.h"

#include <atomic>
#include <unordered_map>
#include <utility>

#include "core/temporal_kcore.h"
#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "vct/vct_builder.h"

namespace tkc {

namespace {

/// True iff `slice` is exactly slice 1 of `g`'s full-range index. For k = 1,
/// CT_ts(u) is u's first edge time >= ts, so u's rows are (1, t1),
/// (t1+1, t2), ..., (t_last+1, inf) over its distinct edge times, the last
/// row only when t_last < tmax; checked against the adjacency in O(m).
/// Misses read the index's slices, so an index saved for another graph
/// with the same vertex count and timeline must not get past Create.
bool SliceOneMatches(const VertexCoreTimeIndex& slice, const TemporalGraph& g) {
  const Timestamp tmax = g.num_timestamps();
  if (slice.num_vertices() != g.num_vertices()) return false;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const std::span<const VctEntry> rows = slice.EntriesOf(u);
    size_t i = 0;
    Timestamp start = 1;
    for (const AdjEntry& a : g.Neighbors(u)) {  // sorted by time
      if (a.time < start) continue;             // a repeated time
      if (i == rows.size() || rows[i] != VctEntry{start, a.time}) return false;
      ++i;
      start = a.time + 1;
    }
    if (i > 0 && start <= tmax) {  // an edgeless vertex has no rows at all
      if (i == rows.size() || rows[i] != VctEntry{start, kInfTime}) {
        return false;
      }
      ++i;
    }
    if (i != rows.size()) return false;
  }
  return true;
}

}  // namespace

/// Relaxed-atomic counters behind ServeStats: every hot-path bump is a
/// lock-free fetch_add; stats() materializes the plain struct. Cache
/// hit/miss/eviction counts live in the striped cache itself.
struct QueryEngine::AtomicServeStats {
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> queries_served{0};
  std::atomic<uint64_t> index_rejections{0};
  std::atomic<uint64_t> batch_dedup_hits{0};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> async_batches{0};
  std::atomic<uint64_t> batches_shed{0};
  std::atomic<uint64_t> deadlines_expired{0};
};

namespace {

/// All ServeStats counters are independent monotone event counts; relaxed
/// ordering is enough for each to read as a consistent prefix.
inline void Bump(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

/// The arena free list and the mutex guarding it, heap-allocated as one
/// object so the mutex address survives engine moves and the analysis sees
/// a single `pool->mu` / `pool->free_list` guard relation.
struct QueryEngine::ArenaPool {
  Mutex mu;
  std::vector<std::unique_ptr<VctBuildArena>> free_list TKC_GUARDED_BY(mu);
};

// Checks an arena out of the engine's free list for the duration of one
// query execution. Allocates a fresh arena only when every pooled one is in
// flight, so the list grows to the peak concurrency and then serving reuses
// scratch forever.
class QueryEngine::ArenaLease {
 public:
  explicit ArenaLease(QueryEngine* engine) : pool_(engine->arenas_.get()) {
    MutexLock lock(pool_->mu);
    if (!pool_->free_list.empty()) {
      arena_ = std::move(pool_->free_list.back());
      pool_->free_list.pop_back();
    } else {
      arena_ = std::make_unique<VctBuildArena>();
    }
  }

  ~ArenaLease() {
    MutexLock lock(pool_->mu);
    pool_->free_list.push_back(std::move(arena_));
  }

  VctBuildArena* get() const { return arena_.get(); }

 private:
  ArenaPool* pool_;
  std::unique_ptr<VctBuildArena> arena_;
};

/// One queued async submission: the request and its exactly-once
/// completion. The completion may pin the engine's owner (the live layer's
/// snapshot), so it is destroyed only after the batch's drain ticket is
/// released.
struct QueryEngine::AsyncBatch {
  BatchRequest request;
  Completion done;
};

/// Shared in-flight state of one dispatched batch: leader tasks write
/// disjoint outcome slots and the last to finish finalizes.
struct QueryEngine::AsyncBatchState {
  AsyncBatch batch;
  std::vector<RunOutcome> outcomes;
  BatchPlan plan;
  std::atomic<size_t> remaining{0};
};

/// Request queue + dispatcher occupancy + drain bookkeeping. `inflight`
/// counts accepted-but-unfinished batches plus a ticket for the running
/// dispatcher task, so DrainAsync returning guarantees no task still
/// touches the engine.
struct QueryEngine::AsyncState {
  explicit AsyncState(size_t capacity) : queue(capacity) {}

  BoundedMpscQueue<AsyncBatch> queue;
  std::atomic<bool> dispatcher_scheduled{false};
  Mutex mu;
  CondVar drained;
  uint64_t inflight TKC_GUARDED_BY(mu) = 0;
};

QueryEngine::QueryEngine(const TemporalGraph& g,
                         const QueryEngineOptions& options)
    : graph_(&g),
      options_(options),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Shared()),
      cache_(std::make_unique<StripedQueryCache>(options.cache_capacity)),
      arenas_(std::make_unique<ArenaPool>()),
      stats_(std::make_unique<AtomicServeStats>()),
      async_(std::make_unique<AsyncState>(options.async_queue_capacity)) {}

QueryEngine::~QueryEngine() {
  // A moved-from or inert (StatusOr slot) engine has no async state.
  if (async_ != nullptr) DrainAsync();
}
QueryEngine::QueryEngine(QueryEngine&&) noexcept = default;
QueryEngine& QueryEngine::operator=(QueryEngine&&) noexcept = default;

StatusOr<QueryEngine> QueryEngine::Create(const TemporalGraph& g,
                                          const QueryEngineOptions& options) {
  QueryEngine engine(g, options);
  const bool want_index = options.build_index ||
                          options.preloaded_index != nullptr;
  if (want_index && g.num_timestamps() > 0) {
    Status s = engine.BuildAdmissionIndex();
    if (!s.ok()) return s;
  }
  return engine;
}

Status QueryEngine::BuildAdmissionIndex() {
  if (options_.preloaded_index != nullptr) {
    const PhcIndex& pre = *options_.preloaded_index;
    if (pre.range() != graph_->FullRange()) {
      return Status::InvalidArgument(
          "preloaded index does not cover the graph's full range");
    }
    // A graph always has edges, so a genuinely matching index always has
    // a k=1 slice; max_k == 0 means the file describes something else
    // (and would otherwise make every query "provably" empty).
    if (pre.max_k() < 1) {
      return Status::InvalidArgument(
          "preloaded index has no slices for this graph");
    }
    // Admission reads k > max_k() as "provably empty", which only a
    // complete index proves; a capped one would reject real cores.
    if (!pre.complete()) {
      return Status::InvalidArgument(
          "preloaded index is capped below the graph's kmax");
    }
    if (!SliceOneMatches(pre.Slice(1), *graph_)) {
      return Status::InvalidArgument(
          "preloaded index was built for a different graph");
    }
    index_ = pre;  // copy; caller keeps ownership
    return Status::OK();
  }
  PhcBuildOptions build;
  build.pool =
      options_.index_build_pool != nullptr ? options_.index_build_pool : pool_;
  auto index = PhcIndex::Build(*graph_, graph_->FullRange(), build);
  if (!index.ok()) return index.status();
  index_ = std::move(index).value();
  return Status::OK();
}

const PhcIndex* QueryEngine::index() const {
  return index_.has_value() ? &*index_ : nullptr;
}

bool QueryEngine::MayContainCore(uint32_t k, Window range) const {
  if (!index_.has_value() || k < 1) return true;
  if (!range.Valid() || range.end > graph_->num_timestamps()) return true;
  if (k > index_->max_k()) return false;  // the index is complete
  return index_->EmergenceTable(k)[range.start - index_->range().start] <=
         range.end;
}

RunOutcome QueryEngine::ExecuteUncached(const Query& query,
                                        const Deadline& batch_deadline) {
  RunOutcome out;
  if (batch_deadline.Expired()) {
    out.status = Status::Timeout("batch deadline expired");
    Bump(stats_->queries_served);
    return out;
  }

  // Admission: a structurally valid in-span query whose range provably
  // contains no k-core gets the pipeline's exact empty outcome for free.
  const bool in_span = query.k >= 1 && query.range.Valid() &&
                       query.range.end <= graph_->num_timestamps();
  if (in_span && !MayContainCore(query.k, query.range)) {
    out = RunOutcome{};
    out.status = Status::OK();
    Bump(stats_->queries_served);
    Bump(stats_->index_rejections);
    // Provable emptiness is remembered as a tombstone: 1/16th of a full
    // LRU slot, replayed as this exact outcome on a hit.
    cache_->InsertTombstone(query);
    return out;
  }

  const double limit_seconds = options_.per_query_limit_seconds;
  Deadline deadline =
      limit_seconds > 0
          ? Deadline::Earlier(Deadline::AfterSeconds(limit_seconds),
                              batch_deadline)
          : batch_deadline;
  ArenaLease lease(this);
  WallTimer timer;
  QueryStats stats;
  out.status = CountTemporalKCores(*graph_, query.k, query.range, index(),
                                   lease.get(), deadline, &stats);
  out.seconds = timer.ElapsedSeconds();
  out.coretime_seconds = stats.coretime_seconds;
  out.num_cores = stats.num_cores;
  out.result_size_edges = stats.result_size_edges;
  out.vct_size = stats.vct_size;
  out.ecs_size = stats.ecs_size;
  out.peak_memory_bytes = stats.peak_memory_bytes;
  Bump(stats_->queries_served);
  Bump(stats_->executed);
  if (out.status.ok()) cache_->Insert(query, out);
  return out;
}

std::vector<RunOutcome> QueryEngine::ServeBatch(
    const std::vector<Query>& queries, const Deadline& deadline) {
  // Expiry precedes the cache: a dead deadline must not even pay (or be
  // masked by) a lookup — the caller asked for an answer by a time that has
  // already passed, and Timeout is that answer on every path.
  if (deadline.Expired()) {
    Bump(stats_->batches);
    Bump(stats_->deadlines_expired);
    Bump(stats_->queries_served, queries.size());
    std::vector<RunOutcome> outcomes(queries.size());
    for (RunOutcome& out : outcomes) {
      out.status = Status::Timeout("batch deadline expired");
    }
    return outcomes;
  }

  std::vector<RunOutcome> outcomes(queries.size());
  const BatchPlan plan = PreScanBatch(queries, &outcomes);
  // Execute the distinct misses, sharded over the pool.
  auto run_leader = [&](size_t g) {
    outcomes[plan.leaders[g]] =
        ExecuteUncached(queries[plan.leaders[g]], deadline);
  };
  if (pool_->num_threads() > 1 && plan.leaders.size() > 1) {
    pool_->ParallelFor(plan.leaders.size(),
                       [&](size_t g, int /*worker*/) { run_leader(g); });
  } else {
    for (size_t g = 0; g < plan.leaders.size(); ++g) run_leader(g);
  }
  FanOutFollowers(plan, &outcomes);
  return outcomes;
}

QueryEngine::BatchPlan QueryEngine::PreScanBatch(
    const std::vector<Query>& queries, std::vector<RunOutcome>* outcomes) {
  // Answer cache hits inline (no fan-out cost for hit-heavy workloads) and
  // group the misses by (k, range) so each distinct query executes at most
  // once per batch. Each hit pays only its own stripe's lock; the grouping
  // map is batch-local, so no engine-wide lock is held across the scan.
  BatchPlan plan;
  std::unordered_map<QueryCacheKey, size_t, QueryCacheKeyHasher> group_of;
  Bump(stats_->batches);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (cache_->enabled() && cache_->Lookup(queries[i], &(*outcomes)[i])) {
      Bump(stats_->queries_served);
      continue;
    }
    const QueryCacheKey key{queries[i].k, queries[i].range};
    auto [it, inserted] = group_of.try_emplace(key, plan.leaders.size());
    if (!inserted) {
      plan.followers[it->second].push_back(i);
      continue;
    }
    plan.leaders.push_back(i);
    plan.followers.emplace_back();
  }
  return plan;
}

void QueryEngine::FanOutFollowers(const BatchPlan& plan,
                                  std::vector<RunOutcome>* outcomes) {
  bool any_followers = false;
  for (size_t g = 0; g < plan.leaders.size(); ++g) {
    for (size_t i : plan.followers[g]) {
      (*outcomes)[i] = (*outcomes)[plan.leaders[g]];
      any_followers = true;
    }
  }
  if (any_followers) {
    uint64_t copied = 0;
    for (size_t g = 0; g < plan.leaders.size(); ++g) {
      copied += plan.followers[g].size();
    }
    Bump(stats_->batch_dedup_hits, copied);
    Bump(stats_->queries_served, copied);
  }
}

// --- async submission ------------------------------------------------------

std::future<BatchResult> QueryEngine::SubmitAsync(std::vector<Query> queries,
                                                  const Deadline& deadline) {
  auto promise = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> future = promise->get_future();
  Submit(BatchRequest{std::move(queries), deadline},
         [promise](BatchResult&& result) {
           promise->set_value(std::move(result));
         });
  return future;
}

void QueryEngine::SetLifetimeGuard(std::weak_ptr<const void> guard) {
  lifetime_guard_ = std::move(guard);
}

void QueryEngine::CompleteAsyncBatch(AsyncBatch&& batch,
                                     const Status& status) {
  BatchResult result;
  result.outcomes.resize(batch.request.queries.size());
  for (RunOutcome& out : result.outcomes) out.status = status;
  batch.done(std::move(result));
  FinishInflight();
}

void QueryEngine::Submit(BatchRequest request, Completion done) {
  const Deadline deadline = request.deadline;
  AsyncBatch batch{std::move(request), std::move(done)};
  {
    AsyncState* async = async_.get();
    MutexLock lock(async->mu);
    ++async->inflight;
  }
  Bump(stats_->async_batches);

  if (deadline.unlimited()) {
    // The queue never closes while the engine lives, so Push cannot fail;
    // it blocks while the queue is at capacity (producer backpressure).
    async_->queue.Push(std::move(batch));
    ScheduleDispatcher();
    return;
  }

  // Deadline-carrying submissions never block: an already-dead batch is
  // answered right here, and a full queue runs the eviction contest — the
  // batch with the least remaining deadline (queued or incoming) is shed
  // with ResourceExhausted so the submitter returns in bounded time.
  if (deadline.Expired()) {
    Bump(stats_->deadlines_expired);
    CompleteAsyncBatch(std::move(batch),
                       Status::Timeout("deadline expired before submission"));
    return;
  }
  AsyncBatch evicted;
  const PushOutcome outcome = async_->queue.PushOrEvict(
      &batch,
      [](const AsyncBatch& a, const AsyncBatch& b) {
        return a.request.deadline.ExpiresBefore(b.request.deadline);
      },
      &evicted);
  switch (outcome) {
    case PushOutcome::kPushed:
      ScheduleDispatcher();
      break;
    case PushOutcome::kPushedEvicted: {
      Bump(stats_->batches_shed);
      CompleteAsyncBatch(std::move(evicted),
                         Status::ResourceExhausted(
                             "request queue full: evicted by a submission "
                             "with more remaining deadline"));
      ScheduleDispatcher();
      break;
    }
    case PushOutcome::kRejectedIncoming: {
      Bump(stats_->batches_shed);
      CompleteAsyncBatch(std::move(batch),
                         Status::ResourceExhausted(
                             "request queue full: least remaining deadline"));
      break;
    }
    case PushOutcome::kClosed:
      CompleteAsyncBatch(std::move(batch),
                         Status::FailedPrecondition("engine shutting down"));
      break;
  }
}

void QueryEngine::ScheduleDispatcher() {
  if (async_->dispatcher_scheduled.exchange(true)) return;
  {
    AsyncState* async = async_.get();
    MutexLock lock(async->mu);
    ++async->inflight;  // the dispatcher's own ticket
  }
  // The dispatcher pins the engine's owner for its whole run and releases
  // its ticket before dropping the pin, so an owner whose last reference
  // dies inside an engine task never waits on that task's own ticket.
  //
  // On a 1-thread pool ThreadPool::Submit runs inline: the whole async path
  // completes synchronously before Submit returns, matching the engine's
  // serial-degeneration contract.
  std::shared_ptr<const void> pin = lifetime_guard_.lock();
  pool_->Submit([this, pin] { DispatchAsyncBatches(); });
}

void QueryEngine::DispatchAsyncBatches() {
  for (;;) {
    AsyncBatch batch;
    while (async_->queue.TryPop(&batch)) {
      ProcessAsyncBatch(std::move(batch));
    }
    // Stand down, then re-check: a producer that pushed after the last
    // TryPop but before the store either sees the flag still true (we
    // reclaim below) or schedules a fresh dispatcher that owns the role.
    async_->dispatcher_scheduled.store(false);
    if (async_->queue.size() == 0 ||
        async_->dispatcher_scheduled.exchange(true)) {
      break;
    }
  }
  FinishInflight();  // release the dispatcher ticket
}

void QueryEngine::ProcessAsyncBatch(AsyncBatch batch) {
  // A batch whose deadline died in the queue is dropped here, before the
  // pre-scan: executing it would spend pool time on an answer the caller
  // has already given up on.
  if (batch.request.deadline.Expired()) {
    Bump(stats_->deadlines_expired);
    CompleteAsyncBatch(std::move(batch),
                       Status::Timeout("deadline expired before dispatch"));
    return;
  }
  auto state = std::make_shared<AsyncBatchState>();
  state->batch = std::move(batch);
  const std::vector<Query>& queries = state->batch.request.queries;
  state->outcomes.resize(queries.size());
  state->plan = PreScanBatch(queries, &state->outcomes);
  if (state->plan.leaders.empty()) {  // pure cache-hit (or empty) batch
    FinalizeAsyncBatch(state);
    return;
  }
  // Each distinct miss becomes its own pool task: no worker blocks on a
  // batch barrier, and leaders of different batches interleave freely. The
  // last leader to finish finalizes — possibly while the dispatcher is
  // already processing the next queued batch.
  //
  // Relaxed: this store happens-before every leader task via the pool's
  // queue mutex; the cross-leader ordering lives in the acq_rel fetch_sub.
  state->remaining.store(state->plan.leaders.size(),
                         std::memory_order_relaxed);
  for (size_t g = 0; g < state->plan.leaders.size(); ++g) {
    pool_->Submit([this, state, g] {
      // A stalled worker (when the fault is armed): long enough to expire
      // tight deadlines behind it, short enough to keep fault runs fast.
      FaultStallIfArmed(kFaultDispatchSlowWorker, 20);
      const size_t i = state->plan.leaders[g];
      const BatchRequest& request = state->batch.request;
      state->outcomes[i] =
          ExecuteUncached(request.queries[i], request.deadline);
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        FinalizeAsyncBatch(state);
      }
    });
  }
}

void QueryEngine::FinalizeAsyncBatch(
    const std::shared_ptr<AsyncBatchState>& state) {
  FanOutFollowers(state->plan, &state->outcomes);
  BatchResult result;
  result.outcomes = std::move(state->outcomes);
  state->batch.done(std::move(result));
  FinishInflight();
}

void QueryEngine::FinishInflight() {
  AsyncState* async = async_.get();
  MutexLock lock(async->mu);
  if (--async->inflight == 0) {
    // Notify while still holding the mutex: a DrainAsync waiter may
    // destroy the engine the instant it observes inflight == 0, and an
    // unlocked notify would then touch a freed condition variable.
    async->drained.NotifyAll();
  }
}

void QueryEngine::DrainAsync() {
  AsyncState* async = async_.get();
  MutexLock lock(async->mu);
  while (async->inflight != 0) async->drained.Wait(async->mu);
}

ServeStats QueryEngine::stats() const {
  // Each counter is an independent relaxed atomic; a snapshot taken under
  // concurrency may tear across counters (never within one), and quiescent
  // reads are exact — the same contract as the striped cache's totals.
  // Relaxed: monotone event counts, no cross-counter ordering promised.
  auto read = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  ServeStats snapshot;
  snapshot.batches = read(stats_->batches);
  snapshot.queries_served = read(stats_->queries_served);
  snapshot.index_rejections = read(stats_->index_rejections);
  snapshot.batch_dedup_hits = read(stats_->batch_dedup_hits);
  snapshot.executed = read(stats_->executed);
  snapshot.async_batches = read(stats_->async_batches);
  snapshot.batches_shed = read(stats_->batches_shed);
  snapshot.deadlines_expired = read(stats_->deadlines_expired);
  snapshot.cache_hits = cache_->hits();
  snapshot.cache_misses = cache_->misses();
  snapshot.cache_evictions = cache_->evictions();
  return snapshot;
}

void QueryEngine::ClearCache() { cache_->Clear(); }

uint64_t QueryEngine::CarryOverCacheFrom(const QueryEngine& prev,
                                         uint32_t clean_above_k) {
  if (!cache_->enabled() || !prev.cache_->enabled()) return 0;
  // prev may still be serving in-flight batches pinned to its snapshot;
  // the export locks one stripe at a time, and the filter runs before
  // payloads are copied so each stripe's lock is held proportionally to
  // what actually carries.
  std::vector<QueryCacheEntry> entries = prev.cache_->ExportLruToMru(
      [](const QueryCacheKey& key, uint32_t bound) { return key.k > bound; },
      clean_above_k);
  return cache_->ImportEntries(std::move(entries));
}

}  // namespace tkc
