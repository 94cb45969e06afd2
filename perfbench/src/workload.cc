#include "workload.h"

#include <algorithm>

namespace perfbench {

using tkc::Query;
using tkc::Rng;
using tkc::Timestamp;
using tkc::Window;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"cold_miss", "EM", 0.3, 2, 8, /*window=*/1, /*cold_keys=*/true, /*ingest=*/false},
      {"hot_repeat", "CM", 0.4, 2, 4, /*window=*/4, /*cold_keys=*/false, /*ingest=*/true},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return tkc::SplitMix64(tkc::SplitMix64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

namespace {

/// The key at unit coordinates (k_unit, length_unit) in [0, 1)^2 of the
/// k and range-length distributions, with a uniform start from `rng`.
Query ShapeQuery(double k_unit, double length_unit, Rng& rng, uint32_t kmax,
                 Timestamp tmax) {
  Query q;
  q.k = tkc::DeriveK(kmax, 0.1 + 0.3 * k_unit);
  const uint32_t length = std::min<uint32_t>(
      tmax, tkc::DeriveRangeLength(tmax, 0.05 + 0.15 * length_unit));
  const Timestamp start =
      static_cast<Timestamp>(rng.NextInRange(1, tmax - length + 1));
  q.range = Window{start, start + length - 1};
  return q;
}

/// A uniformly random permutation of 0..n-1.
std::vector<uint32_t> Permutation(uint32_t n, Rng& rng) {
  std::vector<uint32_t> p(n);
  for (uint32_t i = 0; i < n; ++i) p[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[rng.NextBounded(i)]);
  }
  return p;
}

}  // namespace

Query DrawQuery(Rng& rng, uint32_t kmax, Timestamp tmax) {
  const double k_unit = rng.NextDouble();
  const double length_unit = rng.NextDouble();
  return ShapeQuery(k_unit, length_unit, rng, kmax, tmax);
}

uint64_t PackQuery(const Query& q) {
  return (static_cast<uint64_t>(q.k & 0xffff) << 48) |
         (static_cast<uint64_t>(q.range.start & 0xffffff) << 24) |
         static_cast<uint64_t>(q.range.end & 0xffffff);
}

std::vector<Query> ColdKeyStream::Next(uint32_t count) {
  std::vector<Query> out;
  out.reserve(count);
  tkc::MutexLock lock(mu_);
  while (out.size() < count) {
    const Query q = DrawQuery(rng_, kmax_, tmax_);
    if (seen_.insert(PackQuery(q)).second) out.push_back(q);
  }
  return out;
}

std::vector<Query> DrawKeyPool(uint64_t seed, uint32_t kmax, Timestamp tmax,
                               uint32_t size) {
  Rng rng(seed);
  const std::vector<uint32_t> k_strata = Permutation(size, rng);
  const std::vector<uint32_t> length_strata = Permutation(size, rng);
  std::vector<Query> pool;
  pool.reserve(size);
  std::unordered_set<uint64_t> seen;
  for (uint32_t i = 0; i < size; ++i) {
    const double k_unit = (k_strata[i] + rng.NextDouble()) / size;
    const double length_unit = (length_strata[i] + rng.NextDouble()) / size;
    Query q = ShapeQuery(k_unit, length_unit, rng, kmax, tmax);
    while (!seen.insert(PackQuery(q)).second) {
      q = ShapeQuery(k_unit, length_unit, rng, kmax, tmax);
    }
    pool.push_back(q);
  }
  return pool;
}

std::vector<std::vector<tkc::RawTemporalEdge>> DrawUpdateBatches(
    const tkc::TemporalGraph& g, uint64_t seed, uint32_t count) {
  Rng rng(seed);
  const Timestamp tmax = g.num_timestamps();
  const Timestamp tail = std::max<Timestamp>(
      1, static_cast<Timestamp>(tmax * kUpdateTailFraction));
  const uint64_t vertices = g.num_vertices();
  std::vector<std::vector<tkc::RawTemporalEdge>> batches(count);
  for (auto& batch : batches) {
    batch.reserve(kEdgesPerBatch);
    while (batch.size() < kEdgesPerBatch) {
      const auto u = static_cast<tkc::VertexId>(rng.NextBounded(vertices));
      const auto v = static_cast<tkc::VertexId>(rng.NextBounded(vertices));
      const Timestamp t = tmax - tail + 1 +
                          static_cast<Timestamp>(rng.NextBounded(tail));
      if (u == v) continue;
      batch.push_back(tkc::RawTemporalEdge{u, v, g.RawTimestamp(t)});
    }
  }
  return batches;
}

}  // namespace perfbench
