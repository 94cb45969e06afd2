#ifndef TKC_CORE_ENUM_ALGORITHM_H_
#define TKC_CORE_ENUM_ALGORITHM_H_

#include <cstdint>

#include "core/sinks.h"
#include "util/status.h"
#include "util/timer.h"
#include "vct/ecs.h"

/// \file enum_algorithm.h
/// The paper's main contribution: Algorithm 5 ("Enum") with AS-Output
/// (Algorithm 4). Given the edge core window skyline, enumerates every
/// distinct temporal k-core exactly once in O(|R|) time:
///
///  * every minimal core window gets an *active time* (Definition 6) — the
///    first start time at which it is the edge's relevant window;
///  * windows are counting-sorted by end time and bucketed by active time
///    (Ba) and start time (Bs);
///  * a doubly linked list L holds, for the current start time ts, the at
///    most one relevant window per edge, ordered by end time; advancing
///    ts deletes Bs[ts-1] windows and splices in Ba[ts] windows with a
///    single forward cursor;
///  * AS-Output scans L, accumulating edges; once a window starting exactly
///    at ts is seen (the `valid` flag — Lemma 6), the accumulated edge set
///    is emitted at every end-time group boundary (Lemma 5 / Theorem 2),
///    giving exactly the cores whose TTI starts at ts.
///
/// CountFromEcs returns AS-Output's counts without walking L. At a start ts
/// with a window starting there, AS-Output emits one core per distinct end
/// e >= e*(ts) in L, where e*(ts) is the least end among the windows
/// starting at ts, and that core has as many edges as L has windows ending
/// at or before e. A segment tree over the range's end slots replaces the
/// list (same active-time buckets; a window enters at its active time and
/// leaves at start + 1). Each node holds C (windows), D (distinct ends
/// present) and S (the sum, over its present ends, of the node's windows
/// ending at or before that end); a leaf with c windows is (c, [c > 0], c)
/// and S = S_l + S_r + D_r * C_l. With `pre` the aggregate of the slots
/// below e*(ts), ts adds D_root - D_pre cores and S_root - S_pre edges:
/// O((|ECS| + span) log span) in total, with no per-core work.

namespace tkc {

/// Counters reported by the enumeration (and by the count, which leaves
/// the list counters at 0).
struct EnumStats {
  uint64_t num_cores = 0;
  uint64_t result_size_edges = 0;  ///< |R|
  uint64_t windows = 0;            ///< |ECS| seen
  uint64_t list_insertions = 0;
  uint64_t list_deletions = 0;
  uint64_t peak_memory_bytes = 0;  ///< logical bytes of Enum's structures
};

/// Runs Algorithm 5 over a previously built skyline, streaming each distinct
/// temporal k-core into `sink`. Returns Timeout if `deadline` expires.
[[nodiscard]] Status EnumerateFromEcs(
    const EdgeCoreWindowSkyline& ecs, CoreSink* sink,
    EnumStats* stats = nullptr, const Deadline& deadline = Deadline());

/// Counts what EnumerateFromEcs would emit — num_cores and |R| — without
/// emitting it, and fills `stats` (num_cores, result_size_edges, windows,
/// peak_memory_bytes). Returns Timeout if `deadline` expires.
[[nodiscard]] Status CountFromEcs(const EdgeCoreWindowSkyline& ecs,
                                  EnumStats* stats,
                                  const Deadline& deadline = Deadline());

}  // namespace tkc

#endif  // TKC_CORE_ENUM_ALGORITHM_H_
