#ifndef TKC_WORKLOAD_QUERY_WORKLOAD_H_
#define TKC_WORKLOAD_QUERY_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/common.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

/// \file query_workload.h
/// Experiment workloads in the paper's protocol (§VI): query time ranges are
/// random sub-ranges of the compacted time axis sized as a fraction of tmax
/// (5/10/20/40%, default 10%), each guaranteed to contain at least one
/// temporal k-core; k is a fraction of the dataset's kmax (10..40%, default
/// 30%). Also the unified runner the figure benchmarks call, so every
/// algorithm is timed and accounted identically.

namespace tkc {

class PhcIndex;        // vct/phc_index.h
struct VctBuildArena;  // vct/vct_builder.h

/// One time-range k-core query.
struct Query {
  uint32_t k = 0;
  Window range{0, 0};
};

/// Parameters of a generated workload.
struct WorkloadSpec {
  double k_fraction = 0.30;      ///< k = max(2, round(kmax * k_fraction))
  double range_fraction = 0.10;  ///< |range| = max(1, round(tmax * fraction))
  uint32_t num_queries = 5;      ///< the paper uses 100; laptop default 5
  uint64_t seed = 42;
  /// Attempts per query to find a range containing a temporal k-core.
  uint32_t max_attempts = 200;
};

/// Generates `spec.num_queries` queries over `g`. `kmax` is the graph's
/// maximum core number (computed by the caller once per dataset). Fails
/// only when no k-core-containing range of the requested length exists
/// after max_attempts draws per query.
[[nodiscard]] StatusOr<std::vector<Query>> GenerateQueries(
    const TemporalGraph& g, uint32_t kmax, const WorkloadSpec& spec);

/// k derived from kmax and a fraction, floored at 2 (k=1 cores are just
/// connected edges and not interesting for the evaluation).
uint32_t DeriveK(uint32_t kmax, double fraction);

/// Window length derived from tmax and a fraction, floored at 1.
uint32_t DeriveRangeLength(Timestamp tmax, double fraction);

// ---------------------------------------------------------------------------
// Unified algorithm runner (what the figure benchmarks execute).
// ---------------------------------------------------------------------------

/// The algorithms compared across the paper's figures.
enum class AlgorithmKind {
  kOtcd,      ///< baseline OTCD (Algorithm 1)
  kCoreTime,  ///< the precompute phase alone (Algorithm 2: VCT + ECS)
  kEnumBase,  ///< CoreTime + EnumBase (Algorithm 3)
  kEnum,      ///< CoreTime + Enum (Algorithm 5) — the paper's algorithm
  kNaive,     ///< per-window peeling oracle (tests / tiny inputs only)
};

const char* AlgorithmName(AlgorithmKind kind);

/// Outcome of one (algorithm, query) execution.
struct RunOutcome {
  Status status;                    ///< OK, Timeout, or an error
  double seconds = 0;               ///< wall time of the run
  double coretime_seconds = 0;      ///< precompute portion, when applicable
  uint64_t num_cores = 0;
  uint64_t result_size_edges = 0;   ///< |R|
  uint64_t vct_size = 0;            ///< |VCT| (0 for OTCD/naive)
  uint64_t ecs_size = 0;            ///< |ECS| (0 for OTCD/naive)
  uint64_t peak_memory_bytes = 0;   ///< logical peak of the algorithm
};

/// Runs `kind` on one query, counting results (no materialization).
/// `arena` (vct_builder.h, optional) recycles the CoreTime phase's scratch
/// across calls for the VCT-pipeline algorithms; results never depend on it.
/// `index` (optional, built over `g`) lets those algorithms' CoreTime phase
/// read slice k instead of building it (RunCoreTimePhase); the result
/// fields are bit-identical either way.
RunOutcome RunAlgorithm(AlgorithmKind kind, const TemporalGraph& g,
                        const Query& query,
                        const Deadline& deadline = Deadline(),
                        VctBuildArena* arena = nullptr,
                        const PhcIndex* index = nullptr);

/// Averages outcomes over a query batch; a Timeout/error on any query marks
/// the aggregate as failed (the paper reports these as "did not finish").
struct AggregateOutcome {
  bool completed = true;
  Status first_error;
  double avg_seconds = 0;
  double avg_coretime_seconds = 0;
  double avg_num_cores = 0;
  double avg_result_size_edges = 0;
  double avg_vct_size = 0;
  double avg_ecs_size = 0;
  uint64_t max_peak_memory_bytes = 0;
};

/// Runs `kind` over all queries with a per-query deadline of
/// `per_query_limit_seconds` (<=0 means unlimited) and aggregates.
///
/// Every query — duplicates included — executes its full algorithm via
/// RunAlgorithm with fresh scratch, so timings and memory peaks mean what
/// the figures claim. With a non-null `pool` (util/thread_pool.h) the
/// queries fan out across the pool's workers — every algorithm run touches
/// the graph read-only, so the batch is embarrassingly parallel.
/// Aggregation is deterministic: it folds outcomes in query order, and the
/// reported `first_error` is the error of the lowest-indexed failing query
/// regardless of which worker hit it first (the parallel path runs every
/// query; the serial path keeps the historical stop-at-first-error
/// behavior — aggregates of failing batches are marked failed either way).
AggregateOutcome RunAlgorithmOnQueries(AlgorithmKind kind,
                                       const TemporalGraph& g,
                                       const std::vector<Query>& queries,
                                       double per_query_limit_seconds,
                                       ThreadPool* pool = nullptr);

}  // namespace tkc

#endif  // TKC_WORKLOAD_QUERY_WORKLOAD_H_
