#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file measure.h
/// Measurement helpers of the end-to-end benchmark: the tail-percentile
/// rule every latency metric follows, and the in-memory span log the traced
/// run records around each call into a layer.

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// One percentile read off a sample set.
struct Percentile {
  double value = 0;    ///< the sample at the chosen rank
  double rank = 0;     ///< the percentile actually reported, in (0, 1]
  size_t samples = 0;  ///< sample count it was read from
  bool valid = false;  ///< false when fewer than min_beyond + 1 samples
};

/// Latency samples binned on a log scale: 128 bins per power of two of
/// nanoseconds (relative width under 0.8%), so recording costs no memory
/// per sample and the benchmark's own footprint does not grow with the
/// throughput it measures.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(double seconds);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }

  /// Nearest-rank percentile at `target`, lowered to the highest rank that
  /// still leaves at least `min_beyond` samples strictly above it: a tail
  /// figure is only reported where enough samples back it. With n samples
  /// the rank is min(ceil(target * n), n - min_beyond). The value, in
  /// seconds, is interpolated by rank within the bin holding that sample.
  Percentile Tail(double target, size_t min_beyond = 10) const;

 private:
  std::vector<uint64_t> bins_;
  uint64_t count_ = 0;
};

/// Median by nearest rank (the lower middle for an even count); 0 if empty.
double Median(std::vector<double> samples);

/// Mean of the middle half: the values left after dropping the lowest and
/// the highest floor(n / 4); 0 if empty. Averages the noise of steady
/// windows while ignoring the few a stall of the machine slowed (or sped).
double InterquartileMean(std::vector<double> samples);

/// The median (lower middle) over `windows` of each window's Tail(target):
/// a tail figure one slow stretch of a run moves by one window at most.
/// Invalid unless there are at least three windows and each holds enough
/// samples to report `target` itself, unlowered by the rule.
Percentile MedianTail(const std::vector<LatencyHistogram>& windows,
                      double target, size_t min_beyond = 10);

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the id of the span that caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";  ///< layer-qualified, e.g. "vct.coretime"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Append-only span store owned by one thread. Span ids are `base` plus the
/// span's position, so logs with disjoint bases merge without collisions.
class SpanLog {
 public:
  explicit SpanLog(uint64_t base = 1) : base_(base) {}

  /// Opens a span starting now and returns its id.
  uint64_t Begin(const char* name, uint64_t request, uint64_t parent);
  /// Closes span `id` now.
  void End(uint64_t id);
  /// Appends an already-timed span; returns its id.
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  uint64_t base_;
  std::vector<Span> spans_;
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval covered by the union of its children (each child clipped to
/// the parent's interval first).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes spans as tab-separated lines (id, parent, request, name, start,
/// end, self); false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
