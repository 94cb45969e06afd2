#ifndef TKC_SERVE_SNAPSHOT_H_
#define TKC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "graph/temporal_graph.h"
#include "serve/query_engine.h"
#include "util/mpsc_queue.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "vct/phc_index.h"

/// \file snapshot.h
/// Live updates for the serving layer: a versioned, immutable
/// (graph + engine) snapshot and a LiveQueryEngine that serves queries from
/// the current snapshot while rebuilding the next one off-thread.
///
/// Consistency model — *pinned snapshots, no torn reads*:
///
///  * A GraphSnapshot is immutable: the temporal graph and the PHC
///    admission index (with its per-k emergence tables) are built once and
///    never mutated (the engine's cache/arena internals are mutable but
///    internally synchronized and invisible to results).
///  * Every submission — sync or async — *pins* the snapshot that is
///    current at submission time by holding its shared_ptr until the
///    batch's result is delivered. All queries of one batch therefore
///    answer against exactly one graph version, even if any number of
///    swaps land while the batch is in flight.
///  * ApplyUpdates never blocks serving: a dedicated updater thread builds
///    the successor snapshot off to the side — its index rebuild fanned
///    over a dedicated update pool, never the serving pool — and then
///    publishes it by swapping one shared_ptr under a mutex; pinning the
///    current snapshot copies that shared_ptr under the same mutex, a
///    critical section of one refcount bump. Old snapshots die when their
///    last pinned batch completes.
///  * Update batches are applied strictly FIFO (a bounded MPSC queue feeds
///    the updater thread). Under swap pressure the updater *coalesces*:
///    each rebuild cycle drains every batch queued at that moment, applies
///    their edges as one delta, and advances the version by the number of
///    batches coalesced — so version N is always exactly the initial graph
///    plus update batches 1..N (the property the differential harness
///    replays against), with published versions a subset of {0, 1, 2, ...}
///    that skips the interiors of coalesced groups. A cycle that fails
///    drops *every* batch it coalesced (all their futures carry the error,
///    all count as failed_updates) and the previous snapshot stays
///    current.
///
/// Incremental maintenance — *delta-aware rebuilds*:
///
///  * TemporalGraph::AppendEdges reports an EdgeDelta alongside the new
///    graph. When the delta preserved the compacted timeline and the
///    vertex pool, PhcIndex::Rebuild reuses (by pointer — slices are
///    shared_ptr) every k-slice with k > delta.max_core_bound: no appended
///    edge can sit inside such a k-core, so those slices are provably
///    bit-identical to a from-scratch build. Only the dirty slices rebuild
///    over the pool. A reused slice carries its emergence table with it.
///  * The successor engine's query cache is seeded with the predecessor's
///    entries whose (k, range) lies in a provably-clean slice region
///    (QueryEngine::CarryOverCacheFrom) instead of starting cold.
///  * Per-swap accounting lands in GraphSnapshot::swap_stats() and
///    aggregates into LiveStats::update (UpdateStats).

namespace tkc {

/// Cumulative counters of the delta-aware updater. Exposed via
/// LiveQueryEngine::update_stats() and printed by `tkc_cli --updates`.
///
/// Invariants (asserted by the differential harness after every scenario,
/// with `failed` = LiveStats::failed_updates):
///   batches_applied + failed == batches_submitted
///   batches_coalesced        <= batches_applied + failed
struct UpdateStats {
  /// ApplyUpdates batches the updater thread picked up (applied, failed,
  /// or released at shutdown). Batches rejected at submission time — the
  /// engine was already shutting down — never reach the updater and are
  /// not counted.
  uint64_t batches_submitted = 0;
  /// Batches whose edges made it into a swapped-in snapshot.
  uint64_t batches_applied = 0;
  /// Batches merged into another batch's rebuild cycle (group size - 1 per
  /// cycle, counted whether the cycle succeeded or failed — either way the
  /// riders shared one outcome instead of paying their own cycle): how
  /// much work coalescing saved under swap pressure.
  uint64_t batches_coalesced = 0;
  /// Index slices carried across swaps by pointer (no rebuild).
  uint64_t slices_reused = 0;
  /// Index slices rebuilt from scratch during swaps.
  uint64_t slices_rebuilt = 0;
  /// Dirty slices maintained partially: only the start band the delta
  /// could touch was recomputed, prefix/tail rows carried over.
  uint64_t suffix_rebuilds = 0;
  /// VCT rows carried across swaps (whole-slice reuse + suffix stitching).
  uint64_t rows_reused = 0;
  /// Total VCT rows across all incrementally produced indexes.
  uint64_t rows_total = 0;
  /// Per-k core-emergence tables carried across swaps: a table lives with
  /// its slice, so this always equals slices_reused.
  uint64_t emergence_tables_carried = 0;
  /// Query-cache entries carried across swaps instead of recomputing.
  uint64_t cache_entries_carried = 0;
  /// Swap cycles that carried at least one slice (whole or suffix).
  uint64_t incremental_swaps = 0;
  /// Rebuild attempts beyond each cycle's first (the retry/backoff path).
  uint64_t rebuild_retries = 0;
  /// Total milliseconds spent degraded: inside a cycle's retry loop, from
  /// its first failed attempt until the cycle settled (either way).
  uint64_t degraded_ms = 0;
};

/// The update path's coarse health, exposed by LiveQueryEngine::health().
/// Serving is unaffected by all three states — queries keep answering from
/// the last good snapshot; the state describes whether *updates* are
/// landing.
enum class HealthState {
  kHealthy,        ///< last rebuild cycle succeeded (or none ran yet)
  kDegraded,       ///< a rebuild cycle is mid-retry after transient failure
  kUpdatesFailed,  ///< a cycle exhausted its retries; updates are failing
};

/// "Healthy" / "Degraded" / "UpdatesFailed".
const char* HealthStateName(HealthState state);

/// One immutable graph version with its serving engine. Always heap-owned
/// via shared_ptr (Create returns one) so in-flight batches can pin it past
/// a swap; never copied or moved (the engine holds a pointer to the graph).
class GraphSnapshot {
 public:
  /// How this snapshot was produced from its predecessor. All-zero for the
  /// initial snapshot and for full (non-incremental) rebuilds.
  struct SwapStats {
    uint64_t delta_edges = 0;       ///< effective appended edges
    uint32_t slices_reused = 0;     ///< index slices shared with the base
    uint32_t slices_rebuilt = 0;    ///< index slices rebuilt for this version
    uint32_t suffix_rebuilds = 0;   ///< slices maintained by suffix stitching
    uint64_t rows_reused = 0;       ///< VCT rows carried from the base index
    uint64_t rows_total = 0;        ///< VCT rows across this version's index
    uint64_t cache_entries_carried = 0;  ///< memo entries seeded from the base
  };

  /// Builds a snapshot owning `graph` and an engine configured by
  /// `options` (options.pool etc. apply per snapshot).
  [[nodiscard]] static StatusOr<std::shared_ptr<const GraphSnapshot>> Create(
      TemporalGraph graph, uint64_t version,
      const QueryEngineOptions& options);

  /// Builds the successor of `base` for an applied update: when `base` has
  /// an admission index and `options` wants one, the successor's index is
  /// produced by the delta-aware PhcIndex::Rebuild (clean slices shared by
  /// pointer) and the successor's query cache is seeded with base's
  /// provably still-valid entries; otherwise this is Create plus
  /// bookkeeping. swap_stats() records what was reused.
  [[nodiscard]] static StatusOr<std::shared_ptr<const GraphSnapshot>>
  CreateSuccessor(
      const GraphSnapshot& base, GraphUpdate update, uint64_t version,
      const QueryEngineOptions& options);

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  const TemporalGraph& graph() const { return graph_; }
  uint64_t version() const { return version_; }
  const SwapStats& swap_stats() const { return swap_stats_; }

  /// The snapshot's serving engine. Non-const on purpose: serving mutates
  /// internal caches/counters, all internally synchronized — logically the
  /// snapshot stays immutable, which is why this is callable on const.
  QueryEngine& engine() const { return *engine_; }

 private:
  GraphSnapshot() = default;

  /// Shared Create/CreateSuccessor body: builds the snapshot and engine,
  /// returning a still-mutable handle for post-build bookkeeping.
  static StatusOr<std::shared_ptr<GraphSnapshot>> CreateImpl(
      TemporalGraph graph, uint64_t version,
      const QueryEngineOptions& options);

  TemporalGraph graph_;
  uint64_t version_ = 0;
  SwapStats swap_stats_;
  /// optional<> only because QueryEngine is built after graph_ is in place
  /// (it keeps a pointer to it); engaged for the snapshot's whole life.
  mutable std::optional<QueryEngine> engine_;
};

/// Configuration of a LiveQueryEngine.
struct LiveEngineOptions {
  /// Per-snapshot engine configuration (pool, cache, admission index,
  /// async queue bound). Applied to every rebuilt snapshot.
  QueryEngineOptions engine;

  /// Pool the updater's graph+index rebuilds fan out over. Deliberately
  /// NOT the serving pool: a rebuild sliced over the serving pool starves
  /// in-flight query batches for its whole duration (at 2 serving threads
  /// the one background worker is shared by the async dispatcher, batch
  /// leaders, and rebuild slices — during-update throughput collapsed to
  /// ~2% of idle). nullptr makes the live engine own a dedicated pool of
  /// update_pool_threads; a caller-provided pool must outlive the engine.
  ThreadPool* update_pool = nullptr;

  /// Size of the internally-owned update pool when update_pool is null; 0
  /// matches the serving pool's thread count capped at the hardware core
  /// count (extra rebuild threads past real cores would only oversubscribe
  /// the machine against serving).
  size_t update_pool_threads = 0;

  /// Bound of the update queue: at most this many ApplyUpdates batches
  /// wait for the updater thread; further calls block (backpressure).
  size_t update_queue_capacity = 64;

  /// Rebuild attempts per cycle before the coalesced batches fail (>= 1;
  /// values < 1 are clamped to 1). Only *transient* failures retry —
  /// Internal/IOError/Corruption/Timeout; a deterministic rejection like
  /// InvalidArgument fails the cycle immediately, every attempt would
  /// reproduce it.
  int max_rebuild_attempts = 3;

  /// Capped exponential backoff between attempts: the n-th retry waits
  /// roughly initial * 2^n ms (capped), scaled by a seeded jitter factor in
  /// [0.5, 1.0) so repeated failures don't beat in lockstep with anything.
  /// Shutdown interrupts the wait and fails the cycle with its last error.
  double retry_backoff_initial_ms = 1.0;
  double retry_backoff_max_ms = 100.0;
  uint64_t retry_jitter_seed = 0;
};

/// Monotone counters and last-event gauges for the live layer.
struct LiveStats {
  uint64_t swaps = 0;            ///< rebuild cycles swapped in
  uint64_t edges_applied = 0;    ///< update edges ingested across all swaps
  /// ApplyUpdates batches that failed — including batches dropped because
  /// the cycle they were coalesced into failed.
  uint64_t failed_updates = 0;
  double last_rebuild_seconds = 0;  ///< graph + index rebuild of last swap
  double last_swap_seconds = 0;     ///< pointer swap of last swap (~0)
  uint64_t last_delta_edges = 0;    ///< effective delta size of last swap
  UpdateStats update;               ///< delta-aware updater counters
};

/// A QueryEngine that stays correct while edges keep arriving: serves every
/// submission from a pinned immutable snapshot and applies updates by
/// building and atomically swapping in the successor snapshot.
class LiveQueryEngine {
 public:
  /// Stands up version 0 from `initial_graph` and starts the updater
  /// thread. The pool in options.engine (shared pool when null) must
  /// outlive the engine.
  [[nodiscard]] static StatusOr<std::unique_ptr<LiveQueryEngine>> Create(
      TemporalGraph initial_graph, const LiveEngineOptions& options = {});

  /// Runs Shutdown() (see below — in particular, destroying an engine
  /// whose pause gate is still held *releases* queued batches with
  /// FailedPrecondition rather than silently applying them or hanging the
  /// updater), then drains every live snapshot's async batches. Batches
  /// pinned to older snapshots may still be completing; their pins keep
  /// those snapshots (and their engines) alive independently of this
  /// object.
  ~LiveQueryEngine();

  LiveQueryEngine(const LiveQueryEngine&) = delete;
  LiveQueryEngine& operator=(const LiveQueryEngine&) = delete;

  /// Pins and returns the current snapshot (callers may hold it as long as
  /// they like; it stays valid and immutable past any number of swaps).
  std::shared_ptr<const GraphSnapshot> snapshot() const
      TKC_EXCLUDES(current_mu_);

  /// Version of the current snapshot (0 = initial graph): the number of
  /// update batches applied so far.
  uint64_t version() const { return snapshot()->version(); }

  /// Serves synchronously on the calling thread against the pinned current
  /// snapshot (see QueryEngine::ServeBatch, including the deadline's
  /// Timeout semantics); the result's snapshot_version records which one.
  BatchResult ServeBatch(const std::vector<Query>& queries,
                         const Deadline& deadline = {});

  /// Async submission against the pinned current snapshot (see
  /// QueryEngine::Submit for queueing, backpressure and shedding). `done`
  /// receives the result stamped with the pinned version; the pin lives
  /// until the engine has released the batch, so the snapshot outlasts
  /// every task that touches it.
  void Submit(BatchRequest request, Completion done);

  /// Submit adapted to a future.
  std::future<BatchResult> SubmitAsync(std::vector<Query> queries,
                                       const Deadline& deadline = {});

  /// Enqueues one batch of edges for ingestion. Returns immediately with a
  /// future that resolves once a snapshot containing this batch has been
  /// swapped in (Status::OK) or its rebuild cycle failed (the previous
  /// snapshot stays current; every batch of the failed cycle gets the
  /// error). Batches apply strictly in submission order; under swap
  /// pressure the updater coalesces all queued batches into one rebuild
  /// cycle. Queries keep completing against their pinned snapshots
  /// throughout. Blocks only when update_queue_capacity batches are
  /// already waiting.
  std::future<Status> ApplyUpdates(std::vector<RawTemporalEdge> edges);

  /// Holds the updater before its next rebuild cycle: ApplyUpdates batches
  /// keep queueing (up to the queue bound) and coalesce into a single
  /// cycle once ResumeUpdates is called. Operational control for planned
  /// ingest bursts — and the deterministic handle the coalescing tests
  /// drive. Idempotent.
  void PauseUpdates() TKC_EXCLUDES(pause_mu_);
  void ResumeUpdates() TKC_EXCLUDES(pause_mu_);

  /// Shuts the update path down and quiesces the async serving path: no
  /// further ApplyUpdates batches are accepted (they fail fast with
  /// FailedPrecondition), the updater thread finishes its current cycle,
  /// settles the queue, and joins. Batches already queued are applied as
  /// one final coalesced cycle — unless the pause gate is held, in which
  /// case every queued batch is *released with FailedPrecondition*
  /// instead: a held pause promised those batches "not yet", and shutting
  /// down turns that into "never". Either way every ApplyUpdates future
  /// resolves — nothing hangs on the dead updater. Finally runs
  /// DrainAsync() (see below), so Shutdown is safe to call while a network
  /// front end still holds completion queues: once it returns, no
  /// engine-side delivery will touch a caller-owned BatchCompletionQueue.
  /// Serving (ServeBatch / Submit / snapshot) stays available.
  /// Idempotent; the destructor calls it first.
  void Shutdown() TKC_EXCLUDES(pause_mu_, shutdown_mu_);

  /// Blocks until every async batch accepted so far — against the current
  /// snapshot *or any superseded one that is still alive* — has delivered
  /// its result (its Completion returned: a future settled, or a
  /// BatchCompletionQueue delivery finished). The contract a server's
  /// teardown needs: after DrainAsync, destroying a completion queue the
  /// engine was delivering into cannot race a delivery. Does not block new
  /// submissions; callers wanting a true quiesce stop submitting first.
  /// Idempotent, callable repeatedly.
  void DrainAsync() TKC_EXCLUDES(snapshots_mu_);

  LiveStats stats() const TKC_EXCLUDES(stats_mu_);

  /// The delta-aware updater counters alone (== stats().update).
  UpdateStats update_stats() const TKC_EXCLUDES(stats_mu_);

  /// Current update-path health. Transitions: kDegraded on a cycle's first
  /// failed attempt, back to kHealthy when a cycle lands a snapshot,
  /// kUpdatesFailed when a cycle exhausts its retries (a later successful
  /// cycle restores kHealthy). A deterministic per-batch rejection
  /// (InvalidArgument input) does not change health — the machinery is
  /// fine, the input was not.
  HealthState health() const TKC_EXCLUDES(stats_mu_);

 private:
  struct UpdateRequest {
    std::vector<RawTemporalEdge> edges;
    std::shared_ptr<std::promise<Status>> done;
  };

  LiveQueryEngine(std::shared_ptr<const GraphSnapshot> initial,
                  const LiveEngineOptions& options);

  /// Updater thread body: pops update batches, coalesces whatever else is
  /// queued, rebuilds (with retry/backoff on transient failure), swaps.
  void UpdaterLoop()
      TKC_EXCLUDES(pause_mu_, stats_mu_, snapshots_mu_, current_mu_);

  /// One rebuild cycle's attempt loop: returns the final status, the built
  /// successor on success, and accounts retries/degradation/health.
  Status RebuildWithRetry(const std::shared_ptr<const GraphSnapshot>& base,
                          const std::vector<RawTemporalEdge>& edges,
                          uint64_t next_version,
                          std::shared_ptr<const GraphSnapshot>* next)
      TKC_EXCLUDES(pause_mu_, stats_mu_);

  void SetHealth(HealthState state) TKC_EXCLUDES(stats_mu_);

  LiveEngineOptions options_;
  /// options_.engine minus preloaded_index: a preloaded admission index
  /// matches only the initial graph, so rebuilt snapshots always build
  /// their own (still building one when preloading asked for one —
  /// incrementally, via PhcIndex::Rebuild, whenever the base snapshot has
  /// an index to rebuild from).
  QueryEngineOptions rebuild_engine_options_;

  /// The serving hot path's only shared word. snapshot() copies it under
  /// current_mu_ and the updater swaps it under the same lock, so each
  /// critical section is a refcount bump or a pointer exchange; the
  /// superseded snapshot is released after the lock. (libstdc++ 12's
  /// atomic<shared_ptr> load unlocks with relaxed order, which the thread
  /// sanitizer reports as a race against the store.)
  mutable Mutex current_mu_;
  std::shared_ptr<const GraphSnapshot> current_ TKC_GUARDED_BY(current_mu_);
  /// Guards all_snapshots_ (bookkeeping only — never on the serve path).
  mutable Mutex snapshots_mu_;
  /// Every version ever swapped in that may still be alive, so the
  /// destructor can drain batches pinned to superseded snapshots (their
  /// completion-queue deliveries must finish before the caller tears the
  /// queue down). Expired entries are pruned on each swap.
  std::vector<std::weak_ptr<const GraphSnapshot>> all_snapshots_
      TKC_GUARDED_BY(snapshots_mu_);

  /// Internally-owned dedicated update pool (LiveEngineOptions::update_pool
  /// null); rebuild_engine_options_.index_build_pool points at it (or at
  /// the caller's update_pool) so PhcIndex::Rebuild never touches the
  /// serving pool.
  std::unique_ptr<ThreadPool> owned_update_pool_;

  mutable Mutex stats_mu_;
  LiveStats stats_ TKC_GUARDED_BY(stats_mu_);
  HealthState health_ TKC_GUARDED_BY(stats_mu_) = HealthState::kHealthy;
  /// Jitter stream of the retry backoff (updater thread only — written in
  /// the constructor before the thread starts, then touched exclusively by
  /// RebuildWithRetry on the updater thread; no lock to annotate).
  uint64_t jitter_stream_ = 0;

  /// Pause gate for the updater (PauseUpdates/ResumeUpdates); Shutdown
  /// forces it open so queued batches always settle — applied normally, or
  /// released with a failure status when shutdown caught the gate held
  /// (abandon_queued_).
  Mutex pause_mu_;
  CondVar pause_cv_;
  bool paused_ TKC_GUARDED_BY(pause_mu_) = false;
  bool pause_override_ TKC_GUARDED_BY(pause_mu_) = false;
  bool abandon_queued_ TKC_GUARDED_BY(pause_mu_) = false;
  /// Serializes Shutdown's join of the updater thread (Shutdown is
  /// idempotent AND safe to call concurrently). Never taken by the
  /// updater itself.
  Mutex shutdown_mu_;

  /// FIFO of pending update batches feeding the updater thread. The
  /// updater is a dedicated thread (not a pool task), and the rebuild's
  /// PhcIndex::Build/Rebuild fans out over the dedicated update pool, never
  /// the serving pool.
  BoundedMpscQueue<UpdateRequest> update_queue_;
  /// Started in the constructor; joined exactly once, under shutdown_mu_
  /// (the guard is what makes concurrent Shutdown calls safe).
  std::thread updater_ TKC_GUARDED_BY(shutdown_mu_);
};

}  // namespace tkc

#endif  // TKC_SERVE_SNAPSHOT_H_
