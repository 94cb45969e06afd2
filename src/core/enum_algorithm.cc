#include "core/enum_algorithm.h"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/mem.h"

namespace tkc {

namespace {

/// One minimal core window prepared for the linked-list scan.
struct WindowNode {
  Timestamp start = 0;
  Timestamp end = 0;
  Timestamp active = 0;
  EdgeId edge = 0;
};

/// Aggregate of a run of end slots: `c` windows, `d` distinct ends present,
/// and `s`, the sum over the present ends of the run's windows ending at
/// or before that end.
struct EndAggregate {
  uint64_t s = 0;
  uint32_t c = 0;
  uint32_t d = 0;
};

/// Joins two adjacent runs, `lo` before `hi`: each present end of `hi` also
/// counts the `lo.c` windows ending below it.
EndAggregate Concat(const EndAggregate& lo, const EndAggregate& hi) {
  return EndAggregate{lo.s + hi.s + uint64_t{hi.d} * lo.c, lo.c + hi.c,
                      lo.d + hi.d};
}

/// Live windows per end slot as a bottom-up segment tree of EndAggregate.
class EndSlotTree {
 public:
  explicit EndSlotTree(uint32_t slots)
      : leaves_(std::bit_ceil(slots)), nodes_(2 * leaves_) {}

  /// Adds (delta = +1) or removes (delta = -1) one window ending at `slot`.
  void Update(uint32_t slot, int delta) {
    uint32_t i = leaves_ + slot;
    EndAggregate& leaf = nodes_[i];
    leaf.c = static_cast<uint32_t>(static_cast<int64_t>(leaf.c) + delta);
    leaf.d = leaf.c > 0 ? 1 : 0;
    leaf.s = leaf.c;
    for (i >>= 1; i > 0; i >>= 1) {
      nodes_[i] = Concat(nodes_[2 * i], nodes_[2 * i + 1]);
    }
  }

  const EndAggregate& All() const { return nodes_[1]; }

  /// Aggregate of the slots [0, len): descend from the root, joining every
  /// left child passed on the way down, in slot order.
  EndAggregate Prefix(uint32_t len) const {
    EndAggregate acc;
    uint32_t node = 1;
    uint32_t width = leaves_;
    while (len > 0) {
      if (len == width) return Concat(acc, nodes_[node]);
      width >>= 1;
      node *= 2;
      if (len > width) {
        acc = Concat(acc, nodes_[node]);
        ++node;
        len -= width;
      }
    }
    return acc;
  }

  uint64_t MemoryBytes() const { return ApproxVectorBytes(nodes_); }

 private:
  uint32_t leaves_;
  std::vector<EndAggregate> nodes_;
};

}  // namespace

Status EnumerateFromEcs(const EdgeCoreWindowSkyline& ecs, CoreSink* sink,
                        EnumStats* stats, const Deadline& deadline) {
  const Window range = ecs.range();
  const Timestamp ts_first = range.start;
  const Timestamp ts_last = range.end;
  const uint32_t t_slots = ts_last - ts_first + 1;

  // ---- Prepare nodes: active times (Alg. 5 lines 1-4) + end-time sort. ----
  const uint32_t n_windows = static_cast<uint32_t>(ecs.size());
  std::vector<WindowNode> nodes;
  nodes.reserve(n_windows);
  ecs.ForEachWindow([&](EdgeId e, const Window& w) {
    WindowNode node;
    node.start = w.start;
    node.end = w.end;
    node.edge = e;
    // Active time: Ts for the edge's first window, predecessor.start + 1
    // afterwards (windows per edge arrive in increasing start order).
    if (!nodes.empty() && nodes.back().edge == e) {
      node.active = nodes.back().start + 1;
    } else {
      node.active = ts_first;
    }
    nodes.push_back(node);
  });

  // Counting sort by end time (Alg. 5 line 8) — keeps O(|ECS| + tmax).
  std::vector<uint32_t> end_sorted(n_windows);
  {
    std::vector<uint32_t> count(t_slots + 1, 0);
    for (const WindowNode& n : nodes) ++count[n.end - ts_first + 1];
    for (uint32_t i = 1; i <= t_slots; ++i) count[i] += count[i - 1];
    for (uint32_t i = 0; i < n_windows; ++i) {
      end_sorted[count[nodes[i].end - ts_first]++] = i;
    }
  }

  // Ba / Bs buckets (lines 5-11) as CSR over time slots, filled in
  // end-sorted order so each bucket is itself end-sorted.
  std::vector<uint32_t> ba_offsets(t_slots + 1, 0), ba_items(n_windows);
  std::vector<uint32_t> bs_offsets(t_slots + 1, 0), bs_items(n_windows);
  {
    for (const WindowNode& n : nodes) {
      ++ba_offsets[n.active - ts_first + 1];
      ++bs_offsets[n.start - ts_first + 1];
    }
    for (uint32_t i = 1; i <= t_slots; ++i) {
      ba_offsets[i] += ba_offsets[i - 1];
      bs_offsets[i] += bs_offsets[i - 1];
    }
    std::vector<uint32_t> ba_cursor(ba_offsets.begin(), ba_offsets.end() - 1);
    std::vector<uint32_t> bs_cursor(bs_offsets.begin(), bs_offsets.end() - 1);
    for (uint32_t idx : end_sorted) {
      ba_items[ba_cursor[nodes[idx].active - ts_first]++] = idx;
      bs_items[bs_cursor[nodes[idx].start - ts_first]++] = idx;
    }
  }

  // ---- Doubly linked list over node indices; sentinel head = n_windows. ----
  const uint32_t kHead = n_windows;
  const uint32_t kNil = n_windows + 1;
  std::vector<uint32_t> next(n_windows + 2), prev(n_windows + 2);
  next[kHead] = kNil;
  prev[kHead] = kNil;

  if (stats != nullptr) {
    stats->windows = n_windows;
    stats->peak_memory_bytes =
        ApproxVectorBytes(nodes) + ApproxVectorBytes(end_sorted) +
        ApproxVectorBytes(ba_offsets) + ApproxVectorBytes(ba_items) +
        ApproxVectorBytes(bs_offsets) + ApproxVectorBytes(bs_items) +
        ApproxVectorBytes(next) + ApproxVectorBytes(prev);
  }

  std::vector<EdgeId> accumulated;  // R of AS-Output, reused across starts

  // ---- Main loop over start times (Alg. 5 lines 13-24). ----
  for (Timestamp t = ts_first; t <= ts_last; ++t) {
    if (deadline.Expired()) {
      return Status::Timeout("Enum exceeded its deadline");
    }
    const uint32_t slot = t - ts_first;
    // Delete windows whose start time has fallen behind (lines 14-16).
    if (t > ts_first) {
      for (uint32_t i = bs_offsets[slot - 1]; i < bs_offsets[slot]; ++i) {
        uint32_t w = bs_items[i];
        next[prev[w]] = next[w];
        if (next[w] != kNil) prev[next[w]] = prev[w];
        if (stats != nullptr) ++stats->list_deletions;
      }
    }
    // Insert windows activating now, single forward cursor (lines 17-22).
    {
      uint32_t h = kHead;
      for (uint32_t i = ba_offsets[slot]; i < ba_offsets[slot + 1]; ++i) {
        uint32_t w = ba_items[i];
        while (next[h] != kNil && nodes[next[h]].end < nodes[w].end) {
          h = next[h];
        }
        // Insert w between h and next[h].
        next[w] = next[h];
        prev[w] = h;
        if (next[h] != kNil) prev[next[h]] = w;
        next[h] = w;
        h = w;
        if (stats != nullptr) ++stats->list_insertions;
      }
    }
    // No minimal core window starts here => no TTI starts here (Lemma 4).
    if (bs_offsets[slot] == bs_offsets[slot + 1]) continue;

    // ---- AS-Output (Algorithm 4). ----
    accumulated.clear();
    bool valid = false;
    for (uint32_t w = next[kHead]; w != kNil; w = next[w]) {
      accumulated.push_back(nodes[w].edge);
      if (nodes[w].start == t) valid = true;
      if (!valid) continue;
      uint32_t nxt = next[w];
      if (nxt != kNil && nodes[nxt].end == nodes[w].end) continue;
      sink->OnCore(Window{t, nodes[w].end}, accumulated);
      if (stats != nullptr) {
        ++stats->num_cores;
        stats->result_size_edges += accumulated.size();
      }
    }
  }
  return Status::OK();
}

Status CountFromEcs(const EdgeCoreWindowSkyline& ecs, EnumStats* stats,
                    const Deadline& deadline) {
  TKC_CHECK(stats != nullptr);
  *stats = EnumStats{};
  const Timestamp ts_first = ecs.range().start;
  const uint32_t t_slots = ecs.range().end - ts_first + 1;
  const uint32_t n_windows = static_cast<uint32_t>(ecs.size());

  // Ba (by active time) and Bs (by start) buckets as CSR over time slots,
  // holding each window's end slot. Active time as in Enum: Ts for an
  // edge's first window, predecessor.start + 1 afterwards.
  auto for_each_window = [&](auto&& fn) {
    for (EdgeId e = ecs.first_edge(); e < ecs.last_edge(); ++e) {
      const std::span<const Window> windows = ecs.WindowsOf(e);
      for (size_t i = 0; i < windows.size(); ++i) {
        const Timestamp active = i == 0 ? ts_first : windows[i - 1].start + 1;
        fn(active - ts_first, windows[i].start - ts_first,
           windows[i].end - ts_first);
      }
    }
  };
  std::vector<uint32_t> ba_offsets(t_slots + 1, 0), ba_ends(n_windows);
  std::vector<uint32_t> bs_offsets(t_slots + 1, 0), bs_ends(n_windows);
  for_each_window([&](uint32_t active, uint32_t start, uint32_t /*end*/) {
    ++ba_offsets[active + 1];
    ++bs_offsets[start + 1];
  });
  for (uint32_t i = 1; i <= t_slots; ++i) {
    ba_offsets[i] += ba_offsets[i - 1];
    bs_offsets[i] += bs_offsets[i - 1];
  }
  {
    std::vector<uint32_t> ba_cursor(ba_offsets.begin(), ba_offsets.end() - 1);
    std::vector<uint32_t> bs_cursor(bs_offsets.begin(), bs_offsets.end() - 1);
    for_each_window([&](uint32_t active, uint32_t start, uint32_t end) {
      ba_ends[ba_cursor[active]++] = end;
      bs_ends[bs_cursor[start]++] = end;
    });
  }

  EndSlotTree tree(t_slots);
  stats->windows = n_windows;
  stats->peak_memory_bytes =
      ApproxVectorBytes(ba_offsets) + ApproxVectorBytes(ba_ends) +
      ApproxVectorBytes(bs_offsets) + ApproxVectorBytes(bs_ends) +
      tree.MemoryBytes();

  for (uint32_t slot = 0; slot < t_slots; ++slot) {
    if (deadline.Expired()) {
      return Status::Timeout("CountFromEcs exceeded its deadline");
    }
    // A window is live from its active time through its start.
    if (slot > 0) {
      for (uint32_t i = bs_offsets[slot - 1]; i < bs_offsets[slot]; ++i) {
        tree.Update(bs_ends[i], -1);
      }
    }
    for (uint32_t i = ba_offsets[slot]; i < ba_offsets[slot + 1]; ++i) {
      tree.Update(ba_ends[i], +1);
    }
    const uint32_t first = bs_offsets[slot];
    const uint32_t last = bs_offsets[slot + 1];
    if (first == last) continue;  // no TTI starts here (Lemma 4)
    // AS-Output emits at every distinct end from e*(ts) on.
    const uint32_t least_end =
        *std::min_element(bs_ends.begin() + first, bs_ends.begin() + last);
    const EndAggregate below = tree.Prefix(least_end);
    const EndAggregate& all = tree.All();
    stats->num_cores += all.d - below.d;
    stats->result_size_edges += all.s - below.s;
  }
  return Status::OK();
}

}  // namespace tkc
