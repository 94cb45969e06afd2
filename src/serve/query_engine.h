#ifndef TKC_SERVE_QUERY_ENGINE_H_
#define TKC_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "serve/query_cache.h"
#include "util/mpsc_queue.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vct/phc_index.h"
#include "workload/query_workload.h"

/// \file query_engine.h
/// The batch query-serving engine: a long-lived object that owns one
/// immutable temporal graph plus read-only serving state, accepts batches of
/// time-range k-core queries, and fans them out over a ThreadPool. It turns
/// the repo's per-call measurement harness (RunAlgorithm) into a server-
/// shaped subsystem:
///
///  * **Two schedulers, one pipeline.** ServeBatch runs a batch on the
///    calling thread, sharding its distinct misses over the pool with the
///    caller as one of the workers (a batch answered entirely from the
///    cache never leaves the caller). Submit enqueues a batch on a bounded
///    MPSC request queue and returns immediately: a pool-resident
///    dispatcher drains the queue and fans each batch's distinct misses out
///    as individual pool tasks, so clients keep issuing while earlier
///    batches run and no pool worker ever blocks on a batch barrier; the
///    finished BatchResult goes to the submission's Completion. Futures
///    (SubmitAsync) and completion queues (BatchCompletionQueue::
///    CompletionFor) are adapters over Submit. Both schedulers share the
///    same pre-scan, miss execution and duplicate fan-out, and any number
///    of client threads may call either concurrently. An unlimited-deadline
///    Submit blocks on a full request queue (backpressure). On a 1-thread
///    pool the async path degenerates to synchronous inline execution,
///    trivially deterministic.
///  * **Recycled build scratch.** Each in-flight miss checks a
///    VctBuildArena out of an internal free list (growing only to the peak
///    concurrency ever observed), so the CoreTime phase reuses its scratch
///    vectors. Every execution still allocates its own VCT/ECS arrays
///    (FromEmissions) and the enumeration's lists.
///  * **Admission index.** At construction the engine can build the full
///    PHC index (every k-slice, each with its core-emergence table; see
///    vct/phc_index.h) over the graph's time span. A query whose range
///    provably contains no temporal k-core (k beyond the index's max_k, or
///    emergence after the range end) is then answered in O(1) with the
///    exact empty outcome the full pipeline would produce — no build, no
///    allocation. The same index answers every admitted miss: the CoreTime
///    phase reads slice k over the query range (RunCoreTimePhase) instead
///    of running the fixpoint builder, leaving the ECS pass and the
///    enumeration. Engines without an index build per miss.
///  * **Memoization.** Completed outcomes are stored in a bounded LRU
///    (serve/query_cache.h) keyed by (k, range), so repeated-query
///    workloads are served at lookup cost; admission rejections are stored
///    as compact tombstones (1/16th of a full slot). Duplicate queries
///    inside one batch execute once. The LRU is hash-striped
///    (StripedQueryCache): concurrent workers touching different keys never
///    serialize on a single cache lock, and every serve counter is a
///    relaxed atomic aggregated on read — the only engine-wide mutex left
///    on the hot path guards the arena free list.
///  * **Deadline-aware admission & shedding.** Every submission may carry a
///    Deadline. An already-expired batch is dropped (every outcome
///    `Status::Timeout`) at submission or dispatch instead of executing,
///    and a finite-deadline submission never blocks on a full request
///    queue: the queued batch with the least remaining deadline is shed
///    with `Status::ResourceExhausted` — either a queued batch is evicted
///    to make room, or the incoming batch itself loses the contest — so
///    callers always get an answer in bounded time. Unlimited-deadline
///    batches are never evicted.
///
/// Determinism contract: the *result* fields of a served outcome (status
/// code, num_cores, result_size_edges, vct_size, ecs_size) are bit-identical
/// to a serial RunAlgorithm call at any thread count, batch split, cache
/// state, or admission path. The *execution* fields (seconds,
/// coretime_seconds, peak_memory_bytes) describe how this engine produced
/// the answer — a cache hit reports the lookup-time outcome of the original
/// run, an admission rejection reports ~0 cost — and are not comparable
/// across paths.

namespace tkc {

struct VctBuildArena;  // vct/vct_builder.h

/// Construction-time configuration of a QueryEngine.
struct QueryEngineOptions {
  /// Algorithm every query is served with (the paper's Enum by default).
  AlgorithmKind algorithm = AlgorithmKind::kEnum;

  /// Pool the batches shard over; nullptr uses ThreadPool::Shared(). A
  /// 1-thread pool serves batches serially on the calling thread.
  ThreadPool* pool = nullptr;

  /// Pool the construction-time PHC index build (or the live layer's
  /// delta-aware Rebuild) fans out over; nullptr falls back to `pool`.
  /// The live-update layer points this at a dedicated update pool so a
  /// rebuild never steals the serving pool's workers out from under
  /// in-flight batches — the contention that collapsed during-update
  /// throughput at low thread counts.
  ThreadPool* index_build_pool = nullptr;

  /// LRU capacity of the (k, range) -> outcome memo; 0 disables caching.
  /// The memo is split into StripedQueryCache::kDefaultStripes lock
  /// stripes, capped by the capacity (capacity 1 is one exact LRU).
  size_t cache_capacity = 1024;

  /// Execution budget of every query, on top of its batch's deadline
  /// (whichever is earlier); <= 0 means unlimited.
  double per_query_limit_seconds = 0;

  /// Build the full-range PHC index (every k up to the span's kmax) at
  /// construction. Costs one multi-k index build up front; in return the
  /// index rejects provably empty queries in O(1) and answers every
  /// admitted miss by reading slice k instead of rebuilding VCT+ECS.
  bool build_index = false;

  /// Bound of the async submission queue: at most this many batches wait
  /// for dispatch; further unlimited-deadline Submit calls block until
  /// room frees up (producer backpressure, never an unbounded backlog).
  size_t async_queue_capacity = 256;

  /// Serve the admission index from this prebuilt PHC index (typically
  /// LoadPhcIndex from vct/index_io.h) instead of building one at
  /// construction — the persist/load path that amortizes engine start-up.
  /// Implies build_index. It must be this graph's complete index: Create
  /// checks its range, that it is complete() (only then does k > max_k()
  /// prove a query empty), and slice 1 exactly against the graph's edge
  /// times (O(m)), failing with InvalidArgument otherwise; the other slices
  /// are trusted. Copied into the engine (a cheap copy: slices are
  /// shared); only read during Create.
  const PhcIndex* preloaded_index = nullptr;
};

/// One batch submission: the queries and the deadline bounding the whole
/// batch (unlimited by default).
struct BatchRequest {
  std::vector<Query> queries;
  Deadline deadline;
};

/// The completed answer to one submitted batch.
struct BatchResult {
  std::vector<RunOutcome> outcomes;  ///< outcomes[i] answers queries[i]
  /// Version of the graph snapshot the batch executed against — 0 from a
  /// plain QueryEngine, the pinned snapshot's version from a
  /// LiveQueryEngine (serve/snapshot.h).
  uint64_t snapshot_version = 0;
  /// Caller-chosen correlation tag (completion-queue submissions only).
  uint64_t tag = 0;
};

/// Receives a submitted batch's result exactly once — on a pool thread,
/// inline on a 1-thread pool, or on the submitter's thread when the batch
/// is dropped at submission. Whatever it captures lives until the batch's
/// in-flight state is released, after the engine stops touching the batch;
/// the live layer relies on that to keep the pinned snapshot alive.
using Completion = std::function<void(BatchResult&&)>;

/// A caller-owned queue of finished batches for event-loop-shaped clients
/// that multiplex many in-flight batches without holding futures: submit
/// with CompletionFor(tag), and the engine pushes each finished BatchResult
/// stamped with its tag; the client pops with Next/TryNext. Bounded: a slow
/// consumer eventually blocks the pool workers delivering completions,
/// which is the intended backpressure.
class BatchCompletionQueue {
 public:
  explicit BatchCompletionQueue(size_t capacity = 1024) : queue_(capacity) {}

  /// Destruction shuts down first, so a queue dying under a slow consumer
  /// cannot be freed while an engine-side Deliver still touches it.
  ~BatchCompletionQueue() { Shutdown(); }

  /// Blocks for the next finished batch; false once Shutdown() was called
  /// and every delivered batch has been popped.
  bool Next(BatchResult* out) { return queue_.Pop(out); }

  /// Non-blocking variant; false when nothing is ready right now.
  bool TryNext(BatchResult* out) { return queue_.TryPop(out); }

  /// Unblocks every Deliver stuck on a full queue (its result is dropped),
  /// waits for in-flight deliveries to leave the queue, then wakes blocked
  /// consumers once the delivered backlog drains. After Shutdown returns no
  /// engine-side Deliver touches this object, so destroying it is safe even
  /// if a consumer stalled while batches were still completing. Idempotent.
  void Shutdown() TKC_EXCLUDES(mu_) {
    queue_.Close();
    MutexLock lock(mu_);
    while (delivering_ != 0) idle_.Wait(mu_);
  }

  size_t pending() const { return queue_.size(); }

  /// A completion that stamps `tag` on the result and delivers it here.
  /// This queue must outlive the delivery (drain the engine before
  /// destroying it).
  Completion CompletionFor(uint64_t tag) {
    return [this, tag](BatchResult&& result) {
      result.tag = tag;
      Deliver(std::move(result));
    };
  }

  /// Engine-side delivery (blocks while the queue is full; unblocked — with
  /// the result dropped — by Shutdown()). Two scoped acquisitions bracket
  /// the potentially-blocking Push, which must not run under the mutex (it
  /// would deadlock Shutdown's wait against a full queue).
  void Deliver(BatchResult result) TKC_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      ++delivering_;
    }
    queue_.Push(std::move(result));
    MutexLock lock(mu_);
    // Notify under the mutex: a Shutdown() waiter may destroy this object
    // the instant it observes delivering_ == 0.
    if (--delivering_ == 0) idle_.NotifyAll();
  }

 private:
  BoundedMpscQueue<BatchResult> queue_;
  Mutex mu_;
  CondVar idle_;
  size_t delivering_ TKC_GUARDED_BY(mu_) = 0;
};

/// Monotone counters describing everything an engine has served.
struct ServeStats {
  /// ServeBatch calls plus Submit batches that got past dispatch.
  uint64_t batches = 0;
  uint64_t queries_served = 0;   ///< total queries answered
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;     ///< lookups that fell through (cache on)
  uint64_t cache_evictions = 0;
  uint64_t index_rejections = 0;  ///< answered empty from the admission index
  uint64_t batch_dedup_hits = 0;  ///< served as in-batch duplicates
  uint64_t executed = 0;          ///< ran the full algorithm
  uint64_t async_batches = 0;     ///< batches that arrived via Submit
  /// Batches shed with ResourceExhausted by the full-queue eviction contest
  /// (the evicted queued batch or the rejected incoming one, one per event).
  uint64_t batches_shed = 0;
  /// Batches dropped whole with Timeout because their deadline had already
  /// expired (at submission, at dispatch, or on entry to ServeBatch). A
  /// deadline expiring mid-execution surfaces as a Timeout outcome but is
  /// not counted here.
  uint64_t deadlines_expired = 0;
};

class QueryEngine {
 public:
  /// Validates options and builds the serving state. `g` must outlive the
  /// engine and must not be mutated while it serves.
  [[nodiscard]] static StatusOr<QueryEngine> Create(
      const TemporalGraph& g, const QueryEngineOptions& options = {});

  ~QueryEngine();
  QueryEngine(QueryEngine&&) noexcept;
  QueryEngine& operator=(QueryEngine&&) noexcept;
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Serves a batch on the calling thread: cache hits are answered inline
  /// in one pre-scan, duplicate queries collapse to a single execution, and
  /// only the distinct misses shard over the pool (the caller works too).
  /// outcome[i] answers queries[i]. An already-expired `deadline` returns
  /// all-`Status::Timeout` outcomes before the cache or the admission index
  /// is touched; expiring mid-batch, the not-yet-run misses return Timeout
  /// outcomes. A single query is a one-element batch. Thread-safe: any
  /// number of threads may serve batches concurrently.
  std::vector<RunOutcome> ServeBatch(const std::vector<Query>& queries,
                                     const Deadline& deadline = {});

  // --- async submission --------------------------------------------------
  //
  // Lifetime contract: the engine must not be moved or destroyed while
  // async batches are in flight; the destructor (and DrainAsync) blocks
  // until every accepted batch has delivered its result. The serving pool
  // must outlive the drain.

  /// Enqueues the batch on the bounded request queue; `done` receives its
  /// result exactly once. Any number of threads may submit concurrently;
  /// batches dispatch FIFO but complete in any order (later batches overlap
  /// earlier ones). An unlimited-deadline request blocks while the queue is
  /// full. A finite-deadline request never blocks (see the shed policy in
  /// the file comment): its result carries served outcomes, all-`Timeout`
  /// outcomes (deadline expired before execution), or all-
  /// `ResourceExhausted` outcomes (shed by the eviction contest).
  void Submit(BatchRequest request, Completion done);

  /// Submit adapted to a future.
  std::future<BatchResult> SubmitAsync(std::vector<Query> queries,
                                       const Deadline& deadline = {});

  /// Owner-installed keep-alive for the engine's internal async tasks.
  /// Every dispatcher task locks this guard for its whole run, and a
  /// batch's Completion (with everything it captures) outlives the batch's
  /// drain ticket. Net effect: when the last pin disappears — possibly on a
  /// pool thread — no ticket is outstanding, so the destructor's drain
  /// returns without blocking and destroying an owner (e.g. a
  /// GraphSnapshot) from inside one of this engine's own pool tasks cannot
  /// deadlock on itself. Must be set before the first Submit; unset (plain
  /// engines), the caller simply must not destroy the engine from inside
  /// one of its own tasks.
  void SetLifetimeGuard(std::weak_ptr<const void> guard);

  /// Blocks until every batch accepted by Submit has delivered.
  void DrainAsync();

  /// Snapshot of the cumulative serving counters.
  ServeStats stats() const;

  /// Drops every memoized outcome (counters are kept).
  void ClearCache();

  /// Cross-snapshot cache carry-over (serve/snapshot.h): seeds this
  /// engine's memo with `prev`'s entries whose k the caller has proven
  /// unaffected by the graph delta separating the two engines' graphs —
  /// entries with k > clean_above_k carry (0 carries everything; see
  /// PhcRebuildStats::clean_above_k). Per-stripe relative recency is
  /// preserved. Returns the number of entries carried; 0 when either cache
  /// is disabled. Call before this engine starts serving (it locks each
  /// cache stripe in turn, prev's first).
  uint64_t CarryOverCacheFrom(const QueryEngine& prev,
                              uint32_t clean_above_k);

  /// The admission index, or nullptr when the engine was built without one.
  const PhcIndex* index() const;

  /// True iff at least one temporal k-core exists inside `range`: false
  /// for k above the index's max_k, otherwise one read of slice k's
  /// emergence table (PhcIndex::EmergenceTable). `true` (unknown) without
  /// an index or for a range outside the graph's span.
  bool MayContainCore(uint32_t k, Window range) const;

  AlgorithmKind algorithm() const { return options_.algorithm; }
  int num_threads() const { return pool_->num_threads(); }

 private:
  template <typename T>
  friend class StatusOr;  // needs the inert default state below

  /// Inert engine (no graph, no pool) — only the empty slot inside a
  /// StatusOr before a real engine is moved in. Never served from.
  QueryEngine() = default;

  QueryEngine(const TemporalGraph& g, const QueryEngineOptions& options);

  [[nodiscard]] Status BuildAdmissionIndex();

  /// The post-cache-miss path: admission check, algorithm execution (its
  /// CoreTime phase reads the admission index when that holds slice k),
  /// cache insert, counter updates. `batch_deadline` caps the execution
  /// together with options.per_query_limit_seconds (whichever is earlier);
  /// expired on entry, the query returns a Timeout outcome without running.
  RunOutcome ExecuteUncached(const Query& query,
                             const Deadline& batch_deadline);

  /// Checks an arena out of the free list (allocating only when every
  /// existing arena is in flight) and returns it on destruction.
  class ArenaLease;

  /// One pre-scan over a batch, shared by both schedulers: cache hits
  /// answered inline into `outcomes`, remaining distinct misses grouped
  /// into leaders (first occurrence) and followers (in-batch duplicates).
  struct BatchPlan {
    std::vector<size_t> leaders;
    std::vector<std::vector<size_t>> followers;
  };
  BatchPlan PreScanBatch(const std::vector<Query>& queries,
                         std::vector<RunOutcome>* outcomes);
  /// Copies each leader's outcome to its followers and settles counters.
  void FanOutFollowers(const BatchPlan& plan,
                       std::vector<RunOutcome>* outcomes);

  // Async machinery (defined in query_engine.cc).
  struct AsyncBatch;       ///< one queued submission
  struct AsyncBatchState;  ///< one dispatched batch's shared in-flight state
  struct AsyncState;       ///< queue + dispatcher + drain bookkeeping
  void ScheduleDispatcher();
  void DispatchAsyncBatches();
  void ProcessAsyncBatch(AsyncBatch batch);
  void FinalizeAsyncBatch(const std::shared_ptr<AsyncBatchState>& state);
  void FinishInflight();
  /// Settles a dropped batch: every outcome gets `status`, the completion
  /// callback runs, and the batch's inflight ticket is released.
  void CompleteAsyncBatch(AsyncBatch&& batch, const Status& status);

  const TemporalGraph* graph_ = nullptr;
  QueryEngineOptions options_;
  ThreadPool* pool_ = nullptr;

  /// Admission index (immutable after Create; always complete).
  std::optional<PhcIndex> index_;

  /// Relaxed-atomic mirrors of ServeStats, bumped lock-free on the hot
  /// path and aggregated by stats(). Monotone counters need no ordering —
  /// a reader sees some interleaving-consistent prefix of each.
  struct AtomicServeStats;

  /// Serving state. The cache stripes its own locks; the only engine-wide
  /// mutex left guards the arena free list (a short push/pop). The list
  /// lives with its mutex in one heap struct (ArenaPool, defined in
  /// query_engine.cc) so the mutex address is stable across engine moves
  /// and the guard relation is a single annotated object for the
  /// thread-safety analysis.
  std::unique_ptr<StripedQueryCache> cache_;
  struct ArenaPool;
  std::unique_ptr<ArenaPool> arenas_;
  std::unique_ptr<AtomicServeStats> stats_;

  /// Async submission state (request queue, dispatcher flag, drain cv).
  std::unique_ptr<AsyncState> async_;
  std::weak_ptr<const void> lifetime_guard_;
};

}  // namespace tkc

#endif  // TKC_SERVE_QUERY_ENGINE_H_
