#ifndef TKC_VCT_VCT_BUILDER_H_
#define TKC_VCT_VCT_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/common.h"
#include "vct/naive_vct_builder.h"

/// \file vct_builder.h
/// The efficient VCT/ECS construction — the paper's CoreTime phase
/// (Algorithm 2), with the PHC-style O(|VCT| * deg_avg) core-time
/// maintenance of Yu et al. (VLDB'21) as the substrate.
///
/// Method. Core times for the first start time Ts come from one decremental
/// peel sweep (CoreTimeSweep, O(m)). Advancing the start time from s to s+1
/// removes the edges timestamped s; the new core times are the least
/// fixpoint of the local recurrence
///
///    CT(u) = k-th smallest over distinct window-neighbors v of
///            max(CT(v), earliest edge time of (u,v) that is >= s+1)
///
/// that dominates the previous core times. Write Phi(y)(u) for the
/// right-hand side evaluated on values y. Why the result is exact, in both
/// directions: (i) any y with Phi(y) <= y dominates the true core times —
/// for every te, each u with y(u) <= te has k window-neighbours v with
/// max(y(v), t_uv) <= te, so those vertices induce a k-core subgraph of
/// [s+1, te] and lie in its k-core; (ii) the previous core times are a
/// lower bound (removing edges only delays cores), the true core times are
/// a fixpoint and Phi is monotone, so the worklist iteration rising from
/// the previous values never passes them and stops at a y with
/// Phi(y) <= y — by (i), exactly the true core times. Tests validate this
/// against the naive builder. Only the endpoints of removed edges seed the
/// worklist; every later recomputation is triggered by an actual neighbor
/// change, so total work is bounded by sum over core-time changes of the
/// changing vertex's degree — the paper's O(|VCT| * deg_avg).
///
/// ECS byproduct (Lemma 1 + Lemma 2). Every live edge carries its edge core
/// time ect(e) = max(CT(u), CT(v), t). When a transition s -> s+1 raises
/// ect(e) (including to infinity, and including e leaving the window
/// because t == s), the window [s, old ect(e)] is emitted as a minimal core
/// window of e. A final flush handles start time Te.
///
/// The emission loop only needs the core times of each start, so it runs
/// over either source: the fixpoint above (BuildVctAndEcs) or the rows of
/// a full-range PHC slice (ReadVctAndEcs), which already hold them.

namespace tkc {

class ThreadPool;  // util/thread_pool.h

/// Reusable scratch for repeated VCT/ECS builds: the core-time advancer's
/// state, the slice reader's buckets, the window-adjacency cursors, the
/// sweep scratch, and the emission buffers. Passing the same arena to
/// successive builds reuses every allocation; PhcIndex::Build (and the
/// delta-aware PhcIndex::Rebuild, which runs this builder only for its
/// dirty slices) hands each pool worker its own arena so the slices it
/// claims share scratch without locking. Contents are an implementation
/// detail of vct_builder.cc — treat as opaque. Reuse never changes
/// results: each build fully re-initializes the state it reads.
struct VctBuildArena {
  std::vector<Timestamp> ct;              // per-vertex core times
  std::vector<uint8_t> in_queue;          // worklist membership bits
  std::vector<VertexId> queue;            // the worklist itself
  std::vector<uint32_t> seen_epoch;       // Φ neighbor dedup stamps
  std::vector<uint32_t> changed_epoch;    // per-Advance change stamps
  std::vector<Timestamp> phi_vals;        // Φ's k-th-smallest candidates
  std::vector<uint32_t> adj_lo;           // window-adjacency cursor (moves fwd)
  std::vector<uint32_t> adj_hi;           // fixed window-end bound per vertex
  SweepScratch sweep;                     // bootstrap sweep scratch
  std::vector<Timestamp> ect;             // per-edge core times
  std::vector<VertexId> changed;          // vertices changed by one Advance
  std::vector<VertexId> verts;            // distinct window endpoints
  std::vector<uint32_t> next_row;         // slice reader: next unread row
  std::vector<VertexId> bucket_head;      // slice reader: per-start list head
  std::vector<VertexId> bucket_next;      // slice reader: next in that list
  std::vector<std::pair<VertexId, VctEntry>> vct_emissions;
  std::vector<std::pair<EdgeId, Window>> ecs_emissions;

  /// Heap bytes currently held by the arena's vectors (capacity-based).
  uint64_t MemoryUsageBytes() const;
};

/// Builds VCT and ECS for (g, k, range) in O(m log m + |VCT| * deg_avg).
/// `arena` (optional) recycles scratch allocations across builds. `pool`
/// (optional) fans the bootstrap phase — the per-vertex window-adjacency
/// cursor placement and the initial edge-core-time fill, the parts of a
/// build that are embarrassingly parallel — out over its workers; every
/// parallel write lands at a fixed index, so the output is bit-identical to
/// a serial build at any thread count. Called from inside one of `pool`'s
/// own tasks (e.g. a PhcIndex::Build slice worker) the fan-out degrades to
/// an inline loop; pass the pool anyway and the single-slice / dedicated-
/// rebuild-thread paths pick up the parallelism.
VctBuildResult BuildVctAndEcs(const TemporalGraph& g, uint32_t k, Window range,
                              VctBuildArena* arena = nullptr,
                              ThreadPool* pool = nullptr);

/// The CoreTime phase read off an index instead of computed: VCT and ECS for
/// (g, k, range) from `slice`, slice k of a PhcIndex built over `g` whose
/// range contains `range`. Windows only look forward in time, so CT_ts(u)
/// over `range` is the slice's value for start ts when that is at most
/// range.end, and infinite otherwise; the ECS follows from the same Lemma
/// 1-2 emission loop BuildVctAndEcs runs. Bit-identical to
/// BuildVctAndEcs(g, k, range), with no peel and no fixpoint iteration:
/// O(n log m + m_range + |VCT| * deg_avg) for the per-vertex row and
/// cursor searches, the range's edges and the ect refresh.
VctBuildResult ReadVctAndEcs(const TemporalGraph& g,
                             const VertexCoreTimeIndex& slice, Window range,
                             VctBuildArena* arena = nullptr);

/// Statistics of the last build (for benchmarks / ablation): exposed via a
/// variant that reports counters.
struct VctBuildStats {
  uint64_t fixpoint_recomputations = 0;  ///< Φ evaluations across all starts
  uint64_t core_time_changes = 0;        ///< |VCT| minus initial entries
  uint64_t worklist_pushes = 0;
};

/// As BuildVctAndEcs, also filling `stats` (may be nullptr).
VctBuildResult BuildVctAndEcsWithStats(const TemporalGraph& g, uint32_t k,
                                       Window range, VctBuildStats* stats,
                                       VctBuildArena* arena = nullptr,
                                       ThreadPool* pool = nullptr);

/// The suffix entry point of PhcIndex::Rebuild's partial slice maintenance:
/// computes the VCT restricted to start times [suffix.start, advance_end]
/// with window ends up to suffix.end, skipping the ECS byproduct. Windows
/// only look forward in time, so CT_ts(u) over [suffix.start, suffix.end]
/// equals the full-range build's value for every ts >= suffix.start — the
/// sweep simply bootstraps at suffix.start (paying only for the edges in
/// the suffix window) and the advance stops at advance_end instead of
/// running to the end of the timeline. The returned index carries `suffix`
/// as its range but holds rows only for starts <= advance_end; it is the
/// middle band StitchCoreTimeSuffix splices between reused prefix and tail
/// rows. Rows are bit-identical to the corresponding band of a
/// from-scratch build at any thread count.
VertexCoreTimeIndex BuildVctSuffix(const TemporalGraph& g, uint32_t k,
                                   Window suffix, Timestamp advance_end,
                                   VctBuildArena* arena = nullptr,
                                   ThreadPool* pool = nullptr);

}  // namespace tkc

#endif  // TKC_VCT_VCT_BUILDER_H_
