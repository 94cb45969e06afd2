#include "core/temporal_kcore.h"

#include <algorithm>

#include "core/enum_algorithm.h"
#include "core/naive_enumerator.h"
#include "vct/phc_index.h"
#include "vct/vct_builder.h"

namespace tkc {

const char* EnumMethodName(EnumMethod method) {
  switch (method) {
    case EnumMethod::kEnum:
      return "Enum";
    case EnumMethod::kEnumBase:
      return "EnumBase";
    case EnumMethod::kNaive:
      return "Naive";
  }
  return "Unknown";
}

Status ValidateQueryInputs(const TemporalGraph& g, uint32_t k, Window range) {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1 (k=0 is degenerate)");
  }
  if (range.start < 1 || range.start > range.end ||
      range.end > g.num_timestamps()) {
    return Status::InvalidArgument(
        "query range must satisfy 1 <= Ts <= Te <= num_timestamps");
  }
  return Status::OK();
}

VctBuildResult RunCoreTimePhase(const TemporalGraph& g, uint32_t k,
                                Window range, const PhcIndex* index,
                                VctBuildArena* arena) {
  if (index != nullptr && k <= index->max_k() &&
      range.ContainedIn(index->range())) {
    return ReadVctAndEcs(g, index->Slice(k), range, arena);
  }
  return BuildVctAndEcs(g, k, range, arena);
}

Status RunTemporalKCoreQuery(const TemporalGraph& g, uint32_t k, Window range,
                             CoreSink* sink, const QueryOptions& options,
                             QueryStats* stats) {
  TKC_RETURN_IF_ERROR(ValidateQueryInputs(g, k, range));
  if (sink == nullptr) {
    return Status::InvalidArgument("sink must not be null");
  }

  WallTimer total_timer;

  // The naive oracle bypasses the VCT/ECS pipeline entirely.
  if (options.enum_method == EnumMethod::kNaive) {
    Status s = EnumerateNaive(g, k, range, sink, options.deadline);
    if (stats != nullptr) {
      stats->total_seconds = total_timer.ElapsedSeconds();
      stats->enumeration_seconds = stats->total_seconds;
    }
    return s;
  }

  // ---- Phase 1: CoreTime (VCT + ECS). ----
  WallTimer phase_timer;
  VctBuildResult built =
      options.vct_method == VctMethod::kEfficient
          ? RunCoreTimePhase(g, k, range, options.index, options.arena)
          : BuildVctAndEcsNaive(g, k, range);
  const double coretime_seconds = phase_timer.ElapsedSeconds();
  if (options.deadline.Expired()) {
    return Status::Timeout("deadline expired after the CoreTime phase");
  }

  // ---- Phase 2: enumeration from the skyline. ----
  phase_timer.Restart();
  Status s;
  uint64_t enum_peak = 0;
  uint64_t num_cores = 0;
  uint64_t result_edges = 0;
  if (options.enum_method == EnumMethod::kEnum) {
    EnumStats enum_stats;
    s = EnumerateFromEcs(built.ecs, sink, &enum_stats, options.deadline);
    enum_peak = enum_stats.peak_memory_bytes;
    num_cores = enum_stats.num_cores;
    result_edges = enum_stats.result_size_edges;
  } else {
    EnumBaseStats base_stats;
    s = EnumerateFromEcsBase(g, built.ecs, sink, options.enum_base_dedup,
                             &base_stats, options.deadline);
    enum_peak = base_stats.peak_memory_bytes;
    num_cores = base_stats.num_cores;
    result_edges = base_stats.result_size_edges;
  }

  if (stats != nullptr) {
    stats->coretime_seconds = coretime_seconds;
    stats->enumeration_seconds = phase_timer.ElapsedSeconds();
    stats->total_seconds = total_timer.ElapsedSeconds();
    stats->vct_size = built.vct.size();
    stats->ecs_size = built.ecs.size();
    stats->num_cores = num_cores;
    stats->result_size_edges = result_edges;
    stats->peak_memory_bytes =
        std::max(built.peak_memory_bytes,
                 built.vct.MemoryUsageBytes() + built.ecs.MemoryUsageBytes() +
                     enum_peak);
  }
  return s;
}

}  // namespace tkc
