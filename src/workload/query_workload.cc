#include "workload/query_workload.h"

#include <algorithm>
#include <cmath>

#include "core/temporal_kcore.h"
#include "graph/window_peeler.h"
#include "otcd/otcd.h"
#include "util/rng.h"

namespace tkc {

uint32_t DeriveK(uint32_t kmax, double fraction) {
  return std::max<uint32_t>(
      2, static_cast<uint32_t>(std::llround(kmax * fraction)));
}

uint32_t DeriveRangeLength(Timestamp tmax, double fraction) {
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(std::llround(tmax * fraction)));
}

StatusOr<std::vector<Query>> GenerateQueries(const TemporalGraph& g,
                                             uint32_t kmax,
                                             const WorkloadSpec& spec) {
  const Timestamp tmax = g.num_timestamps();
  const uint32_t k = DeriveK(kmax, spec.k_fraction);
  const uint32_t length = std::min<uint32_t>(
      DeriveRangeLength(tmax, spec.range_fraction), tmax);

  Rng rng(spec.seed);
  std::vector<Query> queries;
  queries.reserve(spec.num_queries);
  for (uint32_t q = 0; q < spec.num_queries; ++q) {
    bool found = false;
    for (uint32_t attempt = 0; attempt < spec.max_attempts; ++attempt) {
      Timestamp start =
          1 + static_cast<Timestamp>(rng.NextBounded(tmax - length + 1));
      Window range{start, start + length - 1};
      // The paper guarantees each range contains at least one temporal
      // k-core; the widest window's core being non-empty is necessary and
      // sufficient (any core of a sub-window is inside it).
      std::vector<bool> in_core = ComputeWindowCoreVertices(g, k, range);
      if (std::find(in_core.begin(), in_core.end(), true) != in_core.end()) {
        queries.push_back(Query{k, range});
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::NotFound(
          "no query range of length " + std::to_string(length) +
          " containing a temporal " + std::to_string(k) + "-core was found");
    }
  }
  return queries;
}

const char* AlgorithmName(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kOtcd:
      return "OTCD";
    case AlgorithmKind::kCoreTime:
      return "CoreTime";
    case AlgorithmKind::kEnumBase:
      return "EnumBase";
    case AlgorithmKind::kEnum:
      return "Enum";
    case AlgorithmKind::kNaive:
      return "Naive";
  }
  return "Unknown";
}

RunOutcome RunAlgorithm(AlgorithmKind kind, const TemporalGraph& g,
                        const Query& query, const Deadline& deadline,
                        VctBuildArena* arena, const PhcIndex* index) {
  RunOutcome out;
  WallTimer timer;
  switch (kind) {
    case AlgorithmKind::kOtcd: {
      CountingSink sink;
      OtcdOptions options;
      options.deadline = deadline;
      OtcdStats stats;
      out.status = RunOtcd(g, query.k, query.range, &sink, options, &stats);
      out.num_cores = stats.num_cores;
      out.result_size_edges = stats.result_size_edges;
      out.peak_memory_bytes = stats.peak_memory_bytes;
      break;
    }
    case AlgorithmKind::kCoreTime: {
      // Same input contract as RunTemporalKCoreQuery: the builder CHECKs
      // these invariants, so turn bad queries into errors rather than traps
      // (the serving layer feeds arbitrary client queries through here).
      out.status = ValidateQueryInputs(g, query.k, query.range);
      if (!out.status.ok()) break;
      VctBuildResult built =
          RunCoreTimePhase(g, query.k, query.range, index, arena);
      out.status = Status::OK();
      out.vct_size = built.vct.size();
      out.ecs_size = built.ecs.size();
      out.peak_memory_bytes = built.peak_memory_bytes;
      out.coretime_seconds = timer.ElapsedSeconds();
      break;
    }
    case AlgorithmKind::kEnumBase:
    case AlgorithmKind::kEnum:
    case AlgorithmKind::kNaive: {
      CountingSink sink;
      QueryOptions options;
      options.enum_method = kind == AlgorithmKind::kEnum ? EnumMethod::kEnum
                            : kind == AlgorithmKind::kEnumBase
                                ? EnumMethod::kEnumBase
                                : EnumMethod::kNaive;
      options.deadline = deadline;
      options.arena = arena;
      options.index = index;
      QueryStats stats;
      out.status =
          RunTemporalKCoreQuery(g, query.k, query.range, &sink, options,
                                &stats);
      out.coretime_seconds = stats.coretime_seconds;
      out.num_cores = stats.num_cores != 0 ? stats.num_cores : sink.num_cores();
      out.result_size_edges = stats.result_size_edges != 0
                                  ? stats.result_size_edges
                                  : sink.result_size_edges();
      out.vct_size = stats.vct_size;
      out.ecs_size = stats.ecs_size;
      out.peak_memory_bytes = stats.peak_memory_bytes;
      break;
    }
  }
  out.seconds = timer.ElapsedSeconds();
  return out;
}

AggregateOutcome RunAlgorithmOnQueries(AlgorithmKind kind,
                                       const TemporalGraph& g,
                                       const std::vector<Query>& queries,
                                       double per_query_limit_seconds,
                                       ThreadPool* pool) {
  AggregateOutcome agg;
  if (queries.empty()) {
    agg.completed = false;
    agg.first_error = Status::InvalidArgument("empty query batch");
    return agg;
  }
  // Every query executes in full — no memo, no admission index, no batch
  // dedup — with fresh scratch (arena = nullptr), so the timings are honest
  // and the memory figures report per-build peaks, not an arena's
  // accumulated high-water mark. Each deadline starts when its run does.
  auto run = [&](const Query& query) {
    Deadline deadline;
    if (per_query_limit_seconds > 0) {
      deadline = Deadline::AfterSeconds(per_query_limit_seconds);
    }
    return RunAlgorithm(kind, g, query, deadline, /*arena=*/nullptr);
  };
  std::vector<RunOutcome> outcomes;
  if (pool != nullptr && pool->num_threads() > 1 && queries.size() > 1) {
    // Fan out: every run reads the graph and writes only its own slot.
    // Folding below stays in query order, so the aggregate is deterministic.
    outcomes.resize(queries.size());
    pool->ParallelFor(queries.size(), [&](size_t i, int /*worker*/) {
      outcomes[i] = run(queries[i]);
    });
  } else {
    outcomes.reserve(queries.size());
    for (const Query& query : queries) {
      outcomes.push_back(run(query));
      if (!outcomes.back().status.ok()) break;  // historical early-out
    }
  }
  for (const RunOutcome& out : outcomes) {
    if (!out.status.ok()) {
      agg.completed = false;
      agg.first_error = out.status;
      return agg;
    }
    agg.avg_seconds += out.seconds;
    agg.avg_coretime_seconds += out.coretime_seconds;
    agg.avg_num_cores += static_cast<double>(out.num_cores);
    agg.avg_result_size_edges += static_cast<double>(out.result_size_edges);
    agg.avg_vct_size += static_cast<double>(out.vct_size);
    agg.avg_ecs_size += static_cast<double>(out.ecs_size);
    agg.max_peak_memory_bytes =
        std::max(agg.max_peak_memory_bytes, out.peak_memory_bytes);
  }
  const double n = static_cast<double>(queries.size());
  agg.avg_seconds /= n;
  agg.avg_coretime_seconds /= n;
  agg.avg_num_cores /= n;
  agg.avg_result_size_edges /= n;
  agg.avg_vct_size /= n;
  agg.avg_ecs_size /= n;
  return agg;
}

}  // namespace tkc
