// Google-benchmark microbenchmarks of the library's building blocks:
// graph construction, static peeling, the core-time sweep, the efficient
// VCT/ECS builder, the Enum linked-list enumeration, the segment-tree count
// that serves misses, and the baselines.
// These quantify the per-phase costs behind the figure-level results and
// serve as ablations for the library's design choices (fixpoint advance vs
// per-start sweeps; Enum vs EnumBase given identical skylines).

#include <benchmark/benchmark.h>

#include "core/enum_algorithm.h"
#include "core/enum_base.h"
#include "core/sinks.h"
#include "datasets/generators.h"
#include "graph/core_decomposition.h"
#include "graph/window_peeler.h"
#include "otcd/otcd.h"
#include "vct/naive_vct_builder.h"
#include "vct/vct_builder.h"

namespace tkc {
namespace {

// One shared mid-size bursty graph per scale level.
const TemporalGraph& SharedGraph(int scale) {
  static TemporalGraph* graphs[3] = {nullptr, nullptr, nullptr};
  if (graphs[scale] == nullptr) {
    SyntheticSpec spec;
    spec.name = "bench";
    spec.num_vertices = 200u << scale;
    spec.num_edges = 6000u << scale;
    spec.num_timestamps = 4000u << scale;
    spec.burstiness = 0.2;
    spec.repeat_prob = 0.4;
    spec.seed = 12345;
    graphs[scale] = new TemporalGraph(GenerateSynthetic(spec));
  }
  return *graphs[scale];
}

void BM_GraphBuild(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  SyntheticSpec spec;
  spec.name = "b";
  spec.num_vertices = 200u << scale;
  spec.num_edges = 6000u << scale;
  spec.num_timestamps = 4000u << scale;
  spec.seed = 7;
  for (auto _ : state) {
    TemporalGraph g = GenerateSynthetic(spec);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * spec.num_edges);
}
BENCHMARK(BM_GraphBuild)->Arg(0)->Arg(1)->Arg(2);

void BM_CoreDecomposition(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    CoreDecompositionResult r = DecomposeCores(g);
    benchmark::DoNotOptimize(r.kmax);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CoreDecomposition)->Arg(0)->Arg(1)->Arg(2);

void BM_WindowPeel(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Timestamp tmax = g.num_timestamps();
  Window w{tmax / 4, (3 * tmax) / 4};
  for (auto _ : state) {
    WindowCore core = ComputeWindowCore(g, 4, w);
    benchmark::DoNotOptimize(core.edges.size());
  }
}
BENCHMARK(BM_WindowPeel)->Arg(0)->Arg(1)->Arg(2);

void BM_CoreTimeSweepSingleStart(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  SweepScratch scratch;
  std::vector<Timestamp> ct;
  for (auto _ : state) {
    CoreTimeSweep(g, 4, 1, g.num_timestamps(), &ct, &scratch);
    benchmark::DoNotOptimize(ct.data());
  }
}
BENCHMARK(BM_CoreTimeSweepSingleStart)->Arg(0)->Arg(1)->Arg(2);

// Ablation: efficient fixpoint builder vs per-start-sweep builder.
void BM_VctBuildEfficient(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Timestamp tmax = g.num_timestamps();
  Window range{1, tmax / 4};
  for (auto _ : state) {
    VctBuildResult r = BuildVctAndEcs(g, 4, range);
    benchmark::DoNotOptimize(r.ecs.size());
  }
}
BENCHMARK(BM_VctBuildEfficient)->Arg(0)->Arg(1);

void BM_VctBuildNaive(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Timestamp tmax = g.num_timestamps();
  Window range{1, tmax / 4};
  for (auto _ : state) {
    VctBuildResult r = BuildVctAndEcsNaive(g, 4, range);
    benchmark::DoNotOptimize(r.ecs.size());
  }
}
BENCHMARK(BM_VctBuildNaive)->Arg(0)->Arg(1);

// Ablation: Enum vs EnumBase consuming the same prebuilt skyline.
void BM_EnumFromEcs(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Window range{1, g.num_timestamps() / 4};
  VctBuildResult built = BuildVctAndEcs(g, 4, range);
  for (auto _ : state) {
    CountingSink sink;
    Status s = EnumerateFromEcs(built.ecs, &sink);
    benchmark::DoNotOptimize(sink.num_cores());
    if (!s.ok()) state.SkipWithError("enum failed");
  }
}
BENCHMARK(BM_EnumFromEcs)->Arg(0)->Arg(1)->Arg(2);

// The served miss's layer: Enum's counts from the same skyline, no walk.
void BM_CountFromEcs(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Window range{1, g.num_timestamps() / 4};
  VctBuildResult built = BuildVctAndEcs(g, 4, range);
  for (auto _ : state) {
    EnumStats count;
    Status s = CountFromEcs(built.ecs, &count);
    benchmark::DoNotOptimize(count.num_cores);
    benchmark::DoNotOptimize(count.result_size_edges);
    if (!s.ok()) state.SkipWithError("count failed");
  }
}
BENCHMARK(BM_CountFromEcs)->Arg(0)->Arg(1)->Arg(2);

void BM_EnumBaseFromEcs(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Window range{1, g.num_timestamps() / 4};
  VctBuildResult built = BuildVctAndEcs(g, 4, range);
  for (auto _ : state) {
    CountingSink sink;
    Status s = EnumerateFromEcsBase(g, built.ecs, &sink);
    benchmark::DoNotOptimize(sink.num_cores());
    if (!s.ok()) state.SkipWithError("enum_base failed");
  }
}
BENCHMARK(BM_EnumBaseFromEcs)->Arg(0)->Arg(1);

void BM_OtcdFull(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Window range{1, g.num_timestamps() / 8};
  for (auto _ : state) {
    CountingSink sink;
    Status s = RunOtcd(g, 4, range, &sink);
    benchmark::DoNotOptimize(sink.num_cores());
    if (!s.ok()) state.SkipWithError("otcd failed");
  }
}
BENCHMARK(BM_OtcdFull)->Arg(0)->Arg(1);

// Ablation: OTCD cross-row pruning on vs off.
void BM_OtcdNoPruning(benchmark::State& state) {
  const TemporalGraph& g = SharedGraph(static_cast<int>(state.range(0)));
  Window range{1, g.num_timestamps() / 8};
  OtcdOptions options;
  options.cross_row_pruning = false;
  for (auto _ : state) {
    CountingSink sink;
    Status s = RunOtcd(g, 4, range, &sink, options);
    benchmark::DoNotOptimize(sink.num_cores());
    if (!s.ok()) state.SkipWithError("otcd failed");
  }
}
BENCHMARK(BM_OtcdNoPruning)->Arg(0)->Arg(1);

}  // namespace
}  // namespace tkc

BENCHMARK_MAIN();
