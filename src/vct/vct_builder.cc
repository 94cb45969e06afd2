#include "vct/vct_builder.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/mem.h"
#include "util/thread_pool.h"

namespace tkc {

namespace {

Timestamp Max3(Timestamp a, Timestamp b, Timestamp c) {
  return std::max(a, std::max(b, c));
}

/// Elements per task of the bootstrap fan-outs. Each element is a couple of
/// binary searches or a three-way max — far too small to claim one at a
/// time, so the loops shard into blocks this size.
constexpr size_t kBootstrapChunk = 4096;

/// Runs body(i) for i in [0, n): sharded in kBootstrapChunk blocks over
/// `pool` when that wins, else inline. Bodies must write only to index i.
template <typename Body>
void BootstrapFor(ThreadPool* pool, size_t n, const Body& body) {
  if (pool == nullptr || pool->num_threads() <= 1 || n < 2 * kBootstrapChunk) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const size_t chunks = (n + kBootstrapChunk - 1) / kBootstrapChunk;
  pool->ParallelFor(chunks, [&](size_t c, int /*worker*/) {
    const size_t end = std::min(n, (c + 1) * kBootstrapChunk);
    for (size_t i = c * kBootstrapChunk; i < end; ++i) body(i);
  });
}

// Window-adjacency cursors: [adj_lo[u], adj_hi[u]) brackets the entries of
// u with time in [range.start, range.end]. adj_hi is fixed; adj_lo only
// ever moves forward as the start time advances, so the per-pop binary
// searches of NeighborsInWindow collapse to an amortized-O(deg) lazy
// advance over the whole build. Each vertex's cursors are independent, so
// the placement shards over the pool.
class WindowAdjacency {
 public:
  WindowAdjacency(const TemporalGraph& g, Window range, VctBuildArena* arena,
                  ThreadPool* pool)
      : g_(g), a_(*arena) {
    const VertexId n = g.num_vertices();
    a_.adj_lo.resize(n);
    a_.adj_hi.resize(n);
    auto time_less = [](const AdjEntry& e, Timestamp t) { return e.time < t; };
    auto less_time = [](Timestamp t, const AdjEntry& e) { return t < e.time; };
    BootstrapFor(pool, n, [&](size_t u) {
      const std::span<const AdjEntry> all =
          g.Neighbors(static_cast<VertexId>(u));
      a_.adj_lo[u] = static_cast<uint32_t>(
          std::lower_bound(all.begin(), all.end(), range.start, time_less) -
          all.begin());
      a_.adj_hi[u] = static_cast<uint32_t>(
          std::upper_bound(all.begin(), all.end(), range.end, less_time) -
          all.begin());
    });
  }

  /// Adjacency entries of `u` with time in [from, range.end]. `from` must be
  /// non-decreasing across calls for a given vertex (it is: every use site
  /// passes the current transition's target start s+1).
  std::span<const AdjEntry> Neighbors(VertexId u, Timestamp from) {
    const std::span<const AdjEntry> all = g_.Neighbors(u);
    uint32_t lo = a_.adj_lo[u];
    const uint32_t hi = a_.adj_hi[u];
    while (lo < hi && all[lo].time < from) ++lo;
    a_.adj_lo[u] = lo;
    return all.subspan(lo, hi - lo);
  }

 private:
  const TemporalGraph& g_;
  VctBuildArena& a_;
};

// Worklist fixpoint engine advancing core times across start times. All
// mutable state lives in the caller's VctBuildArena so repeated builds
// (e.g. the per-k slices of PhcIndex::Build) reuse allocations.
class CoreTimeAdvancer {
 public:
  CoreTimeAdvancer(const TemporalGraph& g, uint32_t k, Window range,
                   VctBuildStats* stats, VctBuildArena* arena,
                   WindowAdjacency* adj)
      : g_(g), k_(k), stats_(stats), a_(*arena), adj_(*adj) {
    CoreTimeSweep(g_, k_, range.start, range.end, &a_.ct, &a_.sweep);
    const VertexId n = g.num_vertices();
    a_.in_queue.assign(n, 0);
    a_.seen_epoch.assign(n, 0);
    a_.changed_epoch.assign(n, 0);
    a_.queue.clear();
  }

  /// Advances a.ct from start time `s` to `s+1`; fills `changed` with the
  /// vertices whose core time increased (each once).
  void Advance(Timestamp s, std::vector<VertexId>* changed) {
    changed->clear();
    ++epoch_;
    const Timestamp next = s + 1;
    // Seeds: endpoints of edges leaving the window (time == s) whose core
    // time can still move (finite).
    for (const TemporalEdge& e : g_.EdgesAtTime(s)) {
      Push(e.u);
      Push(e.v);
    }
    while (!a_.queue.empty()) {
      VertexId u = a_.queue.back();
      a_.queue.pop_back();
      a_.in_queue[u] = 0;
      Timestamp now = Phi(u, next);
      if (stats_ != nullptr) ++stats_->fixpoint_recomputations;
      if (now <= a_.ct[u]) continue;
      a_.ct[u] = now;
      if (a_.changed_epoch[u] != epoch_) {
        a_.changed_epoch[u] = epoch_;
        changed->push_back(u);
      }
      if (stats_ != nullptr) ++stats_->core_time_changes;
      // A neighbor's Φ depends on ct[u]; wake all window neighbors.
      for (const AdjEntry& a : adj_.Neighbors(u, next)) {
        Push(a.neighbor);
      }
    }
  }

 private:
  void Push(VertexId v) {
    if (a_.in_queue[v] || a_.ct[v] == kInfTime) return;  // inf never increases
    a_.in_queue[v] = 1;
    a_.queue.push_back(v);
    if (stats_ != nullptr) ++stats_->worklist_pushes;
  }

  // Φ(u) at start `from`: k-th smallest over distinct neighbors v of
  // max(ct[v], earliest edge time of (u,v) >= from).
  Timestamp Phi(VertexId u, Timestamp from) {
    ++phi_epoch_;
    a_.phi_vals.clear();
    for (const AdjEntry& a : adj_.Neighbors(u, from)) {
      if (a_.seen_epoch[a.neighbor] == phi_epoch_) continue;  // dedup: first
      a_.seen_epoch[a.neighbor] = phi_epoch_;  // occurrence == earliest time
      Timestamp cv = a_.ct[a.neighbor];
      a_.phi_vals.push_back(cv == kInfTime ? kInfTime : std::max(cv, a.time));
    }
    if (a_.phi_vals.size() < k_) return kInfTime;
    std::nth_element(a_.phi_vals.begin(), a_.phi_vals.begin() + (k_ - 1),
                     a_.phi_vals.end());
    return a_.phi_vals[k_ - 1];
  }

  const TemporalGraph& g_;
  const uint32_t k_;
  VctBuildStats* stats_;
  VctBuildArena& a_;
  WindowAdjacency& adj_;
  uint32_t epoch_ = 0;
  uint32_t phi_epoch_ = 0;
};

// Core times read off a full-range slice instead of computed: CT over
// `range` is the slice's value when that is at most range.end, else
// infinite. Each vertex with a finite value waits in the bucket of its
// next row's start, so a transition visits exactly the vertices whose core
// time changes, and sets all of them before returning. Slice rows strictly
// increase in start and core time (the builders, Rebuild and the loader
// all guarantee it), so every row read is a change.
class SliceCoreTimeReader {
 public:
  SliceCoreTimeReader(const VertexCoreTimeIndex& slice, Window range,
                      VctBuildArena* arena)
      : slice_(slice), range_(range), a_(*arena) {
    const VertexId n = slice.num_vertices();
    a_.ct.assign(n, kInfTime);
    a_.next_row.resize(n);
    a_.bucket_next.resize(n);
    a_.bucket_head.assign(range.Length(), kInvalidVertex);
    for (VertexId v = 0; v < n; ++v) {
      const std::span<const VctEntry> rows = slice.EntriesOf(v);
      // The row covering range.start: the last one starting at or before it.
      const auto after = std::upper_bound(
          rows.begin(), rows.end(), range.start,
          [](Timestamp t, const VctEntry& e) { return t < e.start; });
      if (after == rows.begin()) continue;  // infinite from range.start on
      a_.next_row[v] = static_cast<uint32_t>(after - rows.begin());
      Set(v, std::prev(after)->core_time);
    }
  }

  /// Moves a.ct from start time `s` to `s+1`; fills `changed` with the
  /// vertices whose core time increased (each once).
  void Advance(Timestamp s, std::vector<VertexId>* changed) {
    changed->clear();
    VertexId v = a_.bucket_head[s + 1 - range_.start];
    while (v != kInvalidVertex) {
      const VertexId following = a_.bucket_next[v];  // Set relinks v
      Set(v, slice_.EntriesOf(v)[a_.next_row[v]++].core_time);
      changed->push_back(v);
      v = following;
    }
  }

 private:
  // Sets v's core time and, while it is finite, files v under the start of
  // its next row inside the range.
  void Set(VertexId v, Timestamp core_time) {
    if (core_time > range_.end) {
      a_.ct[v] = kInfTime;
      return;
    }
    a_.ct[v] = core_time;
    const std::span<const VctEntry> rows = slice_.EntriesOf(v);
    const uint32_t next = a_.next_row[v];
    if (next == rows.size() || rows[next].start > range_.end) return;
    VertexId& head = a_.bucket_head[rows[next].start - range_.start];
    a_.bucket_next[v] = head;
    head = v;
  }

  const VertexCoreTimeIndex& slice_;
  const Window range_;
  VctBuildArena& a_;
};

// Algorithm 2's emission loop over a core-time source: initial rows and
// edge core times at range.start (lines 2-4), then for every transition
// s -> s+1 up to `last_start` the leaving-edge emissions, the source's
// Advance (which must leave a.ct at start s+1 and list the vertices whose
// value rose), and the ect refresh around those vertices (lines 5-11),
// then the final flush at range.end. Without `with_ecs` only the VCT rows
// are made (BuildVctSuffix).
template <typename CoreTimeSource>
void EmitVctAndEcs(const TemporalGraph& g, Window range, Timestamp last_start,
                   bool with_ecs, CoreTimeSource& source,
                   WindowAdjacency& adj, VctBuildArena& a, ThreadPool* pool) {
  const std::vector<Timestamp>& ct = a.ct;
  const auto [first_edge, last_edge] = g.EdgeIdRangeInWindow(range);
  a.vct_emissions.clear();
  a.ecs_emissions.clear();

  // Initial rows: distinct window endpoints, ascending, with a finite core
  // time (a finite core time needs window neighbors, so none is missed).
  a.verts.clear();
  for (const TemporalEdge& e : g.EdgesInWindow(range)) {
    a.verts.push_back(e.u);
    a.verts.push_back(e.v);
  }
  std::sort(a.verts.begin(), a.verts.end());
  a.verts.erase(std::unique(a.verts.begin(), a.verts.end()), a.verts.end());
  for (VertexId v : a.verts) {
    if (ct[v] != kInfTime) {
      a.vct_emissions.push_back({v, VctEntry{range.start, ct[v]}});
    }
  }
  if (with_ecs) {
    a.ect.assign(last_edge - first_edge, kInfTime);
    BootstrapFor(pool, last_edge - first_edge, [&](size_t i) {
      const TemporalEdge& te = g.edge(first_edge + static_cast<EdgeId>(i));
      if (ct[te.u] != kInfTime && ct[te.v] != kInfTime) {
        a.ect[i] = Max3(ct[te.u], ct[te.v], te.t);
      }
    });
  }

  for (Timestamp s = range.start; s < last_start; ++s) {
    // (1) Edges leaving the window (time == s): their last minimal core
    //     window, if any, is [s, ect] (their core time becomes infinite).
    if (with_ecs) {
      auto [lo, hi] = g.EdgeIdRangeAtTime(s);
      for (EdgeId e = lo; e < hi; ++e) {
        Timestamp& old = a.ect[e - first_edge];
        if (old != kInfTime) {
          a.ecs_emissions.push_back({e, Window{s, old}});
          old = kInfTime;
        }
      }
    }
    // (2) Vertex core times at start s+1.
    source.Advance(s, &a.changed);
    // (3) Lemma 1 + Lemma 2: refresh edge core times around changed
    //     vertices; an increase emits the edge's previous minimal window.
    for (VertexId u : a.changed) {
      a.vct_emissions.push_back({u, VctEntry{s + 1, ct[u]}});
      if (!with_ecs) continue;
      for (const AdjEntry& e : adj.Neighbors(u, s + 1)) {
        Timestamp cu = ct[u];
        Timestamp cv = ct[e.neighbor];
        Timestamp now = (cu == kInfTime || cv == kInfTime)
                            ? kInfTime
                            : Max3(cu, cv, e.time);
        Timestamp& old = a.ect[e.edge - first_edge];
        if (now > old) {
          if (old != kInfTime) {
            a.ecs_emissions.push_back({e.edge, Window{s, old}});
          }
          old = now;
        }
      }
    }
  }
  // Final flush: edges still live at start Te (necessarily time == Te).
  if (with_ecs) {
    auto [lo, hi] = g.EdgeIdRangeAtTime(range.end);
    for (EdgeId e = lo; e < hi; ++e) {
      if (a.ect[e - first_edge] != kInfTime) {
        a.ecs_emissions.push_back(
            {e, Window{range.end, a.ect[e - first_edge]}});
      }
    }
  }
}

// Packs an emission loop's output. VCT emissions are appended
// per-transition, hence per-vertex they are in increasing start order, as
// FromEmissions requires.
VctBuildResult CollectResult(const TemporalGraph& g, Window range,
                             const VctBuildArena& a) {
  const auto [first_edge, last_edge] = g.EdgeIdRangeInWindow(range);
  VctBuildResult result;
  result.peak_memory_bytes = a.MemoryUsageBytes();
  result.vct = VertexCoreTimeIndex::FromEmissions(g.num_vertices(), range,
                                                  a.vct_emissions);
  result.ecs = EdgeCoreWindowSkyline::FromEmissions(first_edge, last_edge,
                                                    range, a.ecs_emissions);
  result.peak_memory_bytes +=
      result.vct.MemoryUsageBytes() + result.ecs.MemoryUsageBytes();
  return result;
}

}  // namespace

uint64_t VctBuildArena::MemoryUsageBytes() const {
  return ApproxVectorBytes(ct) + ApproxVectorBytes(in_queue) +
         ApproxVectorBytes(queue) + ApproxVectorBytes(seen_epoch) +
         ApproxVectorBytes(changed_epoch) + ApproxVectorBytes(phi_vals) +
         ApproxVectorBytes(adj_lo) + ApproxVectorBytes(adj_hi) +
         ApproxVectorBytes(ect) + ApproxVectorBytes(changed) +
         ApproxVectorBytes(verts) + ApproxVectorBytes(next_row) +
         ApproxVectorBytes(bucket_head) + ApproxVectorBytes(bucket_next) +
         ApproxVectorBytes(vct_emissions) +
         ApproxVectorBytes(ecs_emissions) + ApproxVectorBytes(sweep.verts) +
         ApproxVectorBytes(sweep.pair_keys) +
         ApproxVectorBytes(sweep.pair_live) +
         ApproxVectorBytes(sweep.vp_offsets) +
         ApproxVectorBytes(sweep.vp_pair) +
         ApproxVectorBytes(sweep.vp_other) +
         ApproxVectorBytes(sweep.degree) + ApproxVectorBytes(sweep.in_core) +
         ApproxVectorBytes(sweep.queued) + ApproxVectorBytes(sweep.stack);
}

VctBuildResult BuildVctAndEcsWithStats(const TemporalGraph& g, uint32_t k,
                                       Window range, VctBuildStats* stats,
                                       VctBuildArena* arena,
                                       ThreadPool* pool) {
  TKC_CHECK_GE(k, 1u);
  TKC_CHECK(range.start >= 1 && range.end <= g.num_timestamps() &&
            range.start <= range.end);

  VctBuildArena local;
  VctBuildArena& a = arena != nullptr ? *arena : local;
  WindowAdjacency adj(g, range, &a, pool);
  CoreTimeAdvancer advancer(g, k, range, stats, &a, &adj);
  EmitVctAndEcs(g, range, range.end, /*with_ecs=*/true, advancer, adj, a,
                pool);
  return CollectResult(g, range, a);
}

VctBuildResult BuildVctAndEcs(const TemporalGraph& g, uint32_t k, Window range,
                              VctBuildArena* arena, ThreadPool* pool) {
  return BuildVctAndEcsWithStats(g, k, range, nullptr, arena, pool);
}

VctBuildResult ReadVctAndEcs(const TemporalGraph& g,
                             const VertexCoreTimeIndex& slice, Window range,
                             VctBuildArena* arena) {
  TKC_CHECK(range.start >= 1 && range.end <= g.num_timestamps() &&
            range.start <= range.end);
  TKC_CHECK(range.ContainedIn(slice.range()));
  TKC_CHECK_EQ(slice.num_vertices(), g.num_vertices());

  VctBuildArena local;
  VctBuildArena& a = arena != nullptr ? *arena : local;
  WindowAdjacency adj(g, range, &a, /*pool=*/nullptr);
  SliceCoreTimeReader reader(slice, range, &a);
  EmitVctAndEcs(g, range, range.end, /*with_ecs=*/true, reader, adj, a,
                /*pool=*/nullptr);
  return CollectResult(g, range, a);
}

VertexCoreTimeIndex BuildVctSuffix(const TemporalGraph& g, uint32_t k,
                                   Window suffix, Timestamp advance_end,
                                   VctBuildArena* arena, ThreadPool* pool) {
  TKC_CHECK_GE(k, 1u);
  TKC_CHECK(suffix.start >= 1 && suffix.end <= g.num_timestamps() &&
            suffix.start <= suffix.end);
  TKC_CHECK(advance_end >= suffix.start && advance_end <= suffix.end);

  VctBuildArena local;
  VctBuildArena& a = arena != nullptr ? *arena : local;
  // Same bootstrap as the full builder, over the suffix window only: the
  // sweep costs O(m_suffix log m_suffix), not a whole-timeline peel. Start
  // times advance only through advance_end: rows past it belong to the
  // band the caller reuses from the old slice instead.
  WindowAdjacency adj(g, suffix, &a, pool);
  CoreTimeAdvancer advancer(g, k, suffix, nullptr, &a, &adj);
  EmitVctAndEcs(g, suffix, advance_end, /*with_ecs=*/false, advancer, adj, a,
                pool);
  return VertexCoreTimeIndex::FromEmissions(g.num_vertices(), suffix,
                                            a.vct_emissions);
}

}  // namespace tkc
