#ifndef TKC_CORE_TEMPORAL_KCORE_H_
#define TKC_CORE_TEMPORAL_KCORE_H_

#include <cstdint>
#include <string>

#include "core/enum_base.h"
#include "core/sinks.h"
#include "graph/temporal_graph.h"
#include "util/status.h"
#include "util/timer.h"
#include "vct/naive_vct_builder.h"

/// \file temporal_kcore.h
/// One-call public API for the time-range k-core query: given a temporal
/// graph, an integer k and a time range [Ts,Te], stream every distinct
/// temporal k-core of every window inside the range into a CoreSink.
///
/// Quickstart:
/// \code
///   auto graph = tkc::LoadSnapFile("CollegeMsg.txt").value();
///   tkc::CollectingSink sink;
///   tkc::QueryStats stats;
///   tkc::Status s = tkc::RunTemporalKCoreQuery(
///       graph, /*k=*/5, tkc::Window{100, 400}, &sink, {}, &stats);
///   for (const tkc::CoreResult& core : sink.cores()) { ... }
/// \endcode
///
/// The default configuration runs the paper's full pipeline: the CoreTime
/// phase (efficient VCT+ECS construction, O(|VCT|*deg_avg)) followed by the
/// Enum phase (Algorithm 5, O(|R|)). The baseline algorithms are available
/// through QueryOptions for comparison; the OTCD baseline lives in
/// otcd/otcd.h as an independent engine since it bypasses this framework
/// entirely.

namespace tkc {

class PhcIndex;        // vct/phc_index.h
struct VctBuildArena;  // vct/vct_builder.h

/// Which enumeration algorithm consumes the edge core window skyline.
enum class EnumMethod {
  kEnum,      ///< Algorithm 5 + AS-Output — the paper's contribution
  kEnumBase,  ///< Algorithm 3 — ECS bucket scan with dedup table
  kNaive,     ///< per-window peeling oracle (ignores the skyline)
};

/// Which builder produces the VCT index and the skyline.
enum class VctMethod {
  kEfficient,  ///< worklist fixpoint, O(|VCT| * deg_avg)
  kNaive,      ///< one decremental sweep per start time, O(tmax * m)
};

/// Options for RunTemporalKCoreQuery.
struct QueryOptions {
  EnumMethod enum_method = EnumMethod::kEnum;
  VctMethod vct_method = VctMethod::kEfficient;
  /// Dedup policy for EnumMethod::kEnumBase.
  EnumBaseDedup enum_base_dedup = EnumBaseDedup::kStoreFullCores;
  /// Abort with Status::Timeout once expired (checked between phases and
  /// periodically inside the enumeration loops).
  Deadline deadline;
  /// Optional scratch recycled across queries (vct_builder.h). Serving code
  /// (serve/query_engine.h) hands each worker its own arena so the CoreTime
  /// phase reuses its scratch; results never depend on reuse. Only read by
  /// VctMethod::kEfficient.
  VctBuildArena* arena = nullptr;
  /// Optional PHC index over the same graph: the CoreTime phase reads its
  /// slice k instead of building whenever it holds one (see
  /// RunCoreTimePhase); results are bit-identical either way. Only read by
  /// VctMethod::kEfficient.
  const PhcIndex* index = nullptr;
};

/// Phase timings and sizes of one query run.
struct QueryStats {
  double coretime_seconds = 0;      ///< VCT + ECS construction
  double enumeration_seconds = 0;   ///< the chosen enumeration phase
  double total_seconds = 0;
  uint64_t vct_size = 0;            ///< |VCT| (index entries)
  uint64_t ecs_size = 0;            ///< |ECS| (minimal core windows)
  uint64_t num_cores = 0;           ///< distinct temporal k-cores
  uint64_t result_size_edges = 0;   ///< |R| (sum of core edge counts)
  uint64_t peak_memory_bytes = 0;   ///< logical peak across phases
};

/// The input contract every query entry point enforces: k >= 1 and a range
/// inside the graph's compacted time span. Exposed so other execution
/// paths (the CoreTime-only measurement kind, the serving layer) validate
/// identically instead of drifting from the pipeline.
[[nodiscard]] Status ValidateQueryInputs(const TemporalGraph& g, uint32_t k,
                                         Window range);

/// The CoreTime phase (VCT + ECS) of one valid query: read off slice k of
/// `index` (ReadVctAndEcs) when the index holds it — k <= index->max_k()
/// and `range` inside index->range() — else built by the fixpoint builder
/// (BuildVctAndEcs). `index` (optional) must have been built over `g`; the
/// result is bit-identical on both paths.
VctBuildResult RunCoreTimePhase(const TemporalGraph& g, uint32_t k,
                                Window range, const PhcIndex* index,
                                VctBuildArena* arena);

/// Runs the time-range k-core query. Validates inputs (k >= 1, range inside
/// the graph's compacted time span) and streams results into `sink`.
[[nodiscard]] Status RunTemporalKCoreQuery(
    const TemporalGraph& g, uint32_t k, Window range, CoreSink* sink,
    const QueryOptions& options = {}, QueryStats* stats = nullptr);

/// Human-readable name of an enumeration method ("Enum", "EnumBase", ...).
const char* EnumMethodName(EnumMethod method);

}  // namespace tkc

#endif  // TKC_CORE_TEMPORAL_KCORE_H_
