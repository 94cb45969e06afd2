// Ablation study for three of the library's design choices, at the
// figure level (dataset workloads rather than microbenchmarks):
//
//   A1. CoreTime builder: worklist-fixpoint advance (O(|VCT|*deg_avg)) vs
//       one decremental sweep per start time (O(tmax*m)). The gap is the
//       contribution of the PHC-style maintenance, and it widens with the
//       number of distinct timestamps in the query range.
//   A2. EnumBase dedup policy: storing full cores (paper-faithful) vs
//       128-bit fingerprints — isolates how much of EnumBase's cost is the
//       duplicate bookkeeping itself.
//   A3. OTCD cross-row pruning on/off — the value of the PoU/PoL marks
//       beyond the PoR row jump.

#include <cstdio>
#include <functional>

#include "bench/bench_common.h"
#include "core/enum_base.h"
#include "core/sinks.h"
#include "otcd/otcd.h"
#include "util/timer.h"
#include "vct/naive_vct_builder.h"
#include "vct/vct_builder.h"

namespace {

using namespace tkc;
using namespace tkc::bench;

std::string Timed(double limit_seconds, double* out_seconds,
                  const std::function<bool(const Deadline&)>& fn) {
  Deadline deadline = limit_seconds > 0
                          ? Deadline::AfterSeconds(limit_seconds)
                          : Deadline();
  WallTimer timer;
  bool ok = fn(deadline);
  *out_seconds = timer.ElapsedSeconds();
  if (!ok) return "DNF";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", *out_seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchConfig(argc, argv);
  if (config.datasets.empty()) config.datasets = {"CM", "EM", "EN", "PL"};

  std::printf("=== Ablations (k=30%% kmax, range=10%% tmax, %u queries, "
              "limit %.1fs) ===\n",
              config.queries, config.limit_seconds);
  for (const std::string& name : config.datasets) {
    auto prepared = Prepare(name, config.scale);
    if (!prepared.ok()) continue;
    std::vector<Query> queries = MakeQueries(*prepared, config, 0.30, 0.10);
    if (queries.empty()) {
      std::printf("\n--- %s: no valid queries ---\n", name.c_str());
      continue;
    }
    const TemporalGraph& g = prepared->graph;
    std::printf("\n--- %s ---\n", name.c_str());
    TextTable table;
    table.SetHeader({"variant", "avg time (s)", "vs default"});
    double base_time = 0;

    // A1: CoreTime builders.
    double fixpoint_s = 0, sweep_s = 0;
    std::string fixpoint_cell = Timed(
        config.limit_seconds, &fixpoint_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            if (d.Expired()) return false;
            VctBuildResult r = BuildVctAndEcs(g, q.k, q.range);
            (void)r;
          }
          return true;
        });
    std::string sweep_cell = Timed(
        config.limit_seconds, &sweep_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            if (d.Expired()) return false;
            VctBuildResult r = BuildVctAndEcsNaive(g, q.k, q.range);
            (void)r;
          }
          return true;
        });
    table.AddRow({"CoreTime: fixpoint advance (default)", fixpoint_cell,
                  "1.0x"});
    char ratio[32];
    if (fixpoint_cell != "DNF" && sweep_cell != "DNF" && fixpoint_s > 0) {
      std::snprintf(ratio, sizeof(ratio), "%.1fx slower",
                    sweep_s / fixpoint_s);
    } else {
      std::snprintf(ratio, sizeof(ratio), "-");
    }
    table.AddRow({"CoreTime: per-start sweeps", sweep_cell, ratio});

    // A2: EnumBase dedup policies (shared skyline built once).
    VctBuildResult built = BuildVctAndEcs(g, queries[0].k, queries[0].range);
    double full_s = 0, fp_s = 0;
    std::string full_cell = Timed(
        config.limit_seconds, &full_s, [&](const Deadline& d) {
          CountingSink sink;
          return EnumerateFromEcsBase(g, built.ecs, &sink,
                                      EnumBaseDedup::kStoreFullCores, nullptr,
                                      d)
              .ok();
        });
    std::string fp_cell = Timed(
        config.limit_seconds, &fp_s, [&](const Deadline& d) {
          CountingSink sink;
          return EnumerateFromEcsBase(g, built.ecs, &sink,
                                      EnumBaseDedup::kFingerprintOnly,
                                      nullptr, d)
              .ok();
        });
    base_time = full_s;
    table.AddRow({"EnumBase: store full cores (paper)", full_cell, "1.0x"});
    if (full_cell != "DNF" && fp_cell != "DNF" && fp_s > 0) {
      std::snprintf(ratio, sizeof(ratio), "%.1fx faster", base_time / fp_s);
    } else {
      std::snprintf(ratio, sizeof(ratio), "-");
    }
    table.AddRow({"EnumBase: fingerprint dedup", fp_cell, ratio});

    // A3: OTCD pruning.
    double prune_s = 0, noprune_s = 0;
    std::string prune_cell = Timed(
        config.limit_seconds, &prune_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            CountingSink sink;
            OtcdOptions options;
            options.deadline = d;
            if (!RunOtcd(g, q.k, q.range, &sink, options).ok()) return false;
          }
          return true;
        });
    std::string noprune_cell = Timed(
        config.limit_seconds, &noprune_s, [&](const Deadline& d) {
          for (const Query& q : queries) {
            CountingSink sink;
            OtcdOptions options;
            options.deadline = d;
            options.cross_row_pruning = false;
            if (!RunOtcd(g, q.k, q.range, &sink, options).ok()) return false;
          }
          return true;
        });
    table.AddRow({"OTCD: cross-row pruning (default)", prune_cell, "1.0x"});
    if (prune_cell != "DNF" && noprune_cell != "DNF" && prune_s > 0) {
      std::snprintf(ratio, sizeof(ratio), "%.1fx slower",
                    noprune_s / prune_s);
    } else {
      std::snprintf(ratio, sizeof(ratio), "-");
    }
    table.AddRow({"OTCD: no cross-row pruning", noprune_cell, ratio});
    table.Print();
  }
  return 0;
}
