#ifndef TKC_SERVE_QUERY_ENGINE_H_
#define TKC_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "serve/query_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "vct/phc_index.h"
#include "workload/query_workload.h"

/// \file query_engine.h
/// The batch query-serving engine: a long-lived object that owns one
/// immutable temporal graph plus read-only serving state, accepts batches of
/// time-range k-core queries, and fans them out over a ThreadPool. Every
/// miss runs one pipeline, CountTemporalKCores (core/temporal_kcore.h): the
/// CoreTime phase, then the paper's Enum counted instead of walked, since a
/// served outcome carries counts only.
///
///  * **One snapshot's serving state.** An engine answers batches against
///    its graph and carries no scheduler of its own. ServeBatch runs a batch
///    on the calling thread, sharding its distinct misses over the pool with
///    the caller as one of the workers (a batch answered entirely from the
///    cache never leaves the caller). The async request queue lives one
///    level up, in LiveQueryEngine (serve/snapshot.h): its dispatcher runs
///    each queued batch through this engine's pre-scan, miss execution and
///    duplicate fan-out — the same three steps ServeBatch runs — and bumps
///    the scheduler counters of ServeStats here, on the batch's pinned
///    engine. Any number of threads may call ServeBatch concurrently.
///  * **Recycled build scratch.** Each in-flight miss checks a
///    VctBuildArena out of an internal free list (growing only to the peak
///    concurrency ever observed), so the CoreTime phase reuses its scratch
///    vectors. Every execution still allocates its own VCT/ECS arrays
///    (FromEmissions) and the count's buckets and segment tree.
///  * **Admission index.** At construction the engine can build the full
///    PHC index (every k-slice, each with its core-emergence table; see
///    vct/phc_index.h) over the graph's time span. A query whose range
///    provably contains no temporal k-core (k beyond the index's max_k, or
///    emergence after the range end) is then answered in O(1) with the
///    exact empty outcome the full pipeline would produce — no build, no
///    allocation. The same index answers every admitted miss: the CoreTime
///    phase reads slice k over the query range (RunCoreTimePhase) instead
///    of running the fixpoint builder, so a miss is slice read -> ECS ->
///    count (CountFromEcs). Engines without an index build per miss.
///  * **Memoization.** Completed outcomes are stored in a bounded LRU
///    (serve/query_cache.h) keyed by (k, range), so repeated-query
///    workloads are served at lookup cost; admission rejections are stored
///    as compact tombstones (1/16th of a full slot). Duplicate queries
///    inside one batch execute once. The LRU is hash-striped
///    (StripedQueryCache): concurrent workers touching different keys never
///    serialize on a single cache lock, and every serve counter is a
///    relaxed atomic aggregated on read — the only engine-wide mutex left
///    on the hot path guards the arena free list.
///  * **Deadlines.** ServeBatch takes an optional Deadline: an
///    already-expired batch answers `Status::Timeout` everywhere without
///    touching the cache or the index, and misses not yet run when it
///    expires mid-batch answer Timeout too. LiveQueryEngine adds the
///    queue-side policy (drop at submission or dispatch, shed on a full
///    queue).
///
/// Determinism contract: the *result* fields of a served outcome (status
/// code, num_cores, result_size_edges, vct_size, ecs_size) are bit-identical
/// to a serial RunAlgorithm(kEnum) call — the Enum walk — at any thread
/// count, batch split, cache state, or admission path. The *execution*
/// fields (seconds, coretime_seconds, peak_memory_bytes) describe how this
/// engine produced the answer — a cache hit reports the lookup-time
/// outcome of the original run, an admission rejection reports ~0 cost —
/// and are not comparable across paths.

namespace tkc {

struct VctBuildArena;  // vct/vct_builder.h

/// Construction-time configuration of a QueryEngine.
struct QueryEngineOptions {
  /// Pool the batches shard over and the construction-time index build
  /// fans out over; nullptr uses ThreadPool::Shared(). A 1-thread pool
  /// serves batches serially on the calling thread.
  ThreadPool* pool = nullptr;

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

/// Monotone counters describing everything an engine has served. The
/// scheduler counters (async_batches, batches_shed, deadlines_expired of
/// dropped queued batches) are bumped by LiveQueryEngine on the engine of
/// the snapshot each batch pinned.
struct ServeStats {
  /// ServeBatch calls plus LiveQueryEngine::Submit batches that got past
  /// dispatch.
  uint64_t batches = 0;
  uint64_t queries_served = 0;   ///< total queries answered
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;     ///< lookups that fell through (cache on)
  uint64_t cache_evictions = 0;
  uint64_t index_rejections = 0;  ///< answered empty from the admission index
  uint64_t batch_dedup_hits = 0;  ///< served as in-batch duplicates
  uint64_t executed = 0;          ///< ran the miss pipeline
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

  int num_threads() const { return pool_->num_threads(); }

 private:
  template <typename T>
  friend class StatusOr;  // needs the inert default state below
  /// The live engine's dispatcher runs queued batches through the pre-scan,
  /// ExecuteUncached and the fan-out below, and bumps the scheduler
  /// counters on each batch's pinned engine.
  friend class LiveQueryEngine;

  /// Inert engine (no graph, no pool) — only the empty slot inside a
  /// StatusOr before a real engine is moved in. Never served from.
  QueryEngine() = default;

  QueryEngine(const TemporalGraph& g, const QueryEngineOptions& options);

  [[nodiscard]] Status BuildAdmissionIndex();

  /// The post-cache-miss path: admission check, CountTemporalKCores (its
  /// CoreTime phase reads the admission index when that holds slice k),
  /// cache insert, counter updates. `batch_deadline` caps the execution
  /// together with options.per_query_limit_seconds (whichever is earlier);
  /// expired on entry, the query returns a Timeout outcome without running.
  RunOutcome ExecuteUncached(const Query& query,
                             const Deadline& batch_deadline);

  /// Checks an arena out of the free list (allocating only when every
  /// existing arena is in flight) and returns it on destruction.
  class ArenaLease;

  /// One pre-scan over a batch, shared by ServeBatch and the live engine's
  /// dispatcher: cache hits answered inline into `outcomes`, remaining
  /// distinct misses grouped into leaders (first occurrence) and followers
  /// (in-batch duplicates).
  struct BatchPlan {
    std::vector<size_t> leaders;
    std::vector<std::vector<size_t>> followers;
  };
  BatchPlan PreScanBatch(const std::vector<Query>& queries,
                         std::vector<RunOutcome>* outcomes);
  /// Copies each leader's outcome to its followers and settles counters.
  void FanOutFollowers(const BatchPlan& plan,
                       std::vector<RunOutcome>* outcomes);

  /// Scheduler counters (see ServeStats).
  void CountAsyncBatch();
  void CountShedBatch();
  void CountExpiredBatch();

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
};

}  // namespace tkc

#endif  // TKC_SERVE_QUERY_ENGINE_H_
