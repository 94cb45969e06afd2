#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Values below 128 ns get a bin each; above, a power of two [2^e, 2^e+1)
// splits into kSubBins bins of width 2^(e-7).
constexpr uint64_t kSubBins = 128;
constexpr size_t kNumBins = kSubBins + (64 - 7) * kSubBins;

size_t BinOf(uint64_t ns) {
  if (ns < kSubBins) return static_cast<size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);
  const int shift = e - 7;
  return kSubBins + static_cast<size_t>(shift) * kSubBins +
         static_cast<size_t>((ns >> shift) - kSubBins);
}

/// [lower, lower + width) of bin `bin`, in nanoseconds.
std::pair<double, double> BinBounds(size_t bin) {
  if (bin < kSubBins) return {static_cast<double>(bin), 1.0};
  const size_t shift = (bin - kSubBins) / kSubBins;
  const uint64_t sub = (bin - kSubBins) % kSubBins;
  return {static_cast<double>((kSubBins + sub) << shift),
          static_cast<double>(uint64_t{1} << shift)};
}

}  // namespace

LatencyHistogram::LatencyHistogram() : bins_(kNumBins, 0) {}

void LatencyHistogram::Record(double seconds) {
  const double ns = std::max(0.0, seconds * 1e9);
  ++bins_[BinOf(static_cast<uint64_t>(ns))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBins; ++i) bins_[i] += other.bins_[i];
  count_ += other.count_;
}

Percentile LatencyHistogram::Tail(double target, size_t min_beyond) const {
  Percentile out;
  out.samples = count_;
  if (count_ <= min_beyond) return out;
  // The epsilon keeps e.g. 0.99 * 1000 from rounding up to rank 991.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(target * static_cast<double>(count_) - 1e-9));
  rank = std::clamp<uint64_t>(rank, 1, count_ - min_beyond);
  uint64_t before = 0;
  size_t bin = 0;
  while (before + bins_[bin] < rank) before += bins_[bin++];
  const auto [lower, width] = BinBounds(bin);
  const double within = (static_cast<double>(rank - before) - 0.5) /
                        static_cast<double>(bins_[bin]);
  out.value = (lower + width * within) * 1e-9;
  out.rank = static_cast<double>(rank) / static_cast<double>(count_);
  out.valid = true;
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t drop = samples.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

Percentile MedianTail(const std::vector<LatencyHistogram>& windows,
                      double target, size_t min_beyond) {
  if (windows.size() < 3) return Percentile{};
  std::vector<Percentile> tails;
  for (const LatencyHistogram& w : windows) {
    const Percentile p = w.Tail(target, min_beyond);
    if (!p.valid || p.rank < target - 1e-9) return Percentile{};
    tails.push_back(p);
  }
  const size_t mid = (tails.size() - 1) / 2;
  std::nth_element(tails.begin(), tails.begin() + mid, tails.end(),
                   [](const Percentile& a, const Percentile& b) {
                     return a.value < b.value;
                   });
  return tails[mid];
}

uint64_t SpanLog::Begin(const char* name, uint64_t request, uint64_t parent) {
  return Add(name, request, parent, NowNs(), 0);
}

void SpanLog::End(uint64_t id) { spans_[id - base_].end_ns = NowNs(); }

uint64_t SpanLog::Add(const char* name, uint64_t request, uint64_t parent,
                      int64_t start_ns, int64_t end_ns) {
  const uint64_t id = base_ + spans_.size();
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
  return id;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children's intervals, clipped to their parent's.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& child : spans) {
    auto it = index_of.find(child.parent);
    if (child.parent == 0 || it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    const int64_t lo = std::max(child.start_ns, parent.start_ns);
    const int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
