#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "workload/query_workload.h"

/// \file workload.h
/// The benchmark's workloads and their seeded inputs. Every key a client
/// sends and every edge batch the producer ingests is a pure function of the
/// run's --seed, so a run can be repeated exactly and a claim re-checked on
/// a seed it was not tuned on.

namespace perfbench {

/// One traffic mix against a TkcServer.
struct WorkloadSpec {
  const char* name = "";
  const char* dataset = "";  ///< dataset registry short name
  double scale = 1.0;        ///< registry size multiplier
  uint32_t connections = 2;  ///< closed-loop client connections
  uint32_t queries_per_call = 1;
  /// Calls each connection keeps outstanding (a closed loop either way).
  uint32_t window = 1;
  /// Every key is fresh (never repeated) instead of drawn from a pool.
  bool cold_keys = false;
  /// The traced run ends with a live-ingest phase: the same traffic while
  /// an open-loop producer ingests edge batches (see perfbench.cc).
  bool ingest = false;
};

/// cold_miss and hot_repeat, in that order.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The workload called `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Distinct keys the repeated-traffic workloads draw from (fits the cache).
inline constexpr uint32_t kKeyPoolSize = 256;
/// Edges per ingested batch, and the producer's schedule.
inline constexpr uint32_t kEdgesPerBatch = 8;
inline constexpr double kUpdateIntervalSeconds = 0.5;
/// Update batches land at existing timestamps in this final share of the
/// timeline.
inline constexpr double kUpdateTailFraction = 0.10;

/// Independent seed for one named stream of a run (keys, pool, batches, a
/// client's picks), derived from the run's seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Draws one key: k = DeriveK(kmax, U[0.1, 0.4]), a range of length
/// U[5%, 20%] of tmax with a uniform start.
tkc::Query DrawQuery(tkc::Rng& rng, uint32_t kmax, tkc::Timestamp tmax);

/// A query as one integer (k, start, end in 16/24/24 bits): the identity
/// the no-repeat rule and the verdict memo use.
uint64_t PackQuery(const tkc::Query& q);

/// The cold_miss key stream: DrawQuery with duplicates skipped, so no key
/// is ever sent twice in a run. Thread-safe; the sequence of keys handed
/// out is fixed by the seed (which client receives which call is not).
class ColdKeyStream {
 public:
  ColdKeyStream(uint64_t seed, uint32_t kmax, tkc::Timestamp tmax)
      : rng_(seed), kmax_(kmax), tmax_(tmax) {}

  std::vector<tkc::Query> Next(uint32_t count) TKC_EXCLUDES(mu_);

 private:
  tkc::Mutex mu_;
  tkc::Rng rng_ TKC_GUARDED_BY(mu_);
  std::unordered_set<uint64_t> seen_ TKC_GUARDED_BY(mu_);
  const uint32_t kmax_;
  const tkc::Timestamp tmax_;
};

/// `size` distinct keys with the cold stream's distributions: the pool
/// hot_repeat clients (and its live-ingest phase) pick from uniformly. The k and
/// range-length fractions are stratified (one key per 1/size slice of each,
/// slices paired at random), so the marginals are exact and a pool's mean
/// miss cost varies little from seed to seed.
std::vector<tkc::Query> DrawKeyPool(uint64_t seed, uint32_t kmax,
                                    tkc::Timestamp tmax, uint32_t size);

/// `count` live-ingest batches of kEdgesPerBatch edges each: uniform
/// distinct endpoints from g's vertex pool, at raw timestamps g already has
/// in the last kUpdateTailFraction of its timeline. Appending them keeps
/// the timeline and the vertex pool, so every swap takes the incremental
/// path.
std::vector<std::vector<tkc::RawTemporalEdge>> DrawUpdateBatches(
    const tkc::TemporalGraph& g, uint64_t seed, uint32_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
