// Serving throughput of the QueryEngine (serve/query_engine.h): builds one
// synthetic graph, generates a repeated-query workload, and serves it
// through an engine at 1/2/8 threads, reporting queries/sec — on stdout as
// a table and as machine-readable JSON (default BENCH_serve_throughput.json)
// so future PRs can track the serving-layer perf trajectory alongside
// BENCH_phc_parallel.json.
//
// Two passes per thread count. The workload is `--repeat` batches of the
// same `--unique` distinct queries, each batch submitted as its own
// ServeBatch call (so repeats across batches hit the LRU rather than
// collapsing into in-batch duplicates):
//   * mixed — fresh cache: the first batch executes, later batches hit the
//     LRU (the "repeated-query workload" the engine's memo exists for);
//   * warm  — pure cache-hit throughput, measured over as many extra
//     passes as it takes to accumulate ~20ms so the timing is meaningful.
// Every outcome is verified bit-identical (result fields) to a serial
// RunAlgorithm(kEnum) reference; any mismatch fails the run. The engine
// serves one pipeline (CountTemporalKCores), recorded as "algo": "Enum".
//
// Flags (env fallbacks TKC_<UPPER>): --vertices --edges --timestamps --seed
// --unique (distinct queries) --repeat (stream repetitions) --reps
// (best-of) --threads=N (adds one thread count) --out.
// --smoke / TKC_BENCH_SMOKE=1 shrinks everything to CI scale.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "datasets/generators.h"
#include "serve/query_engine.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tkc {
namespace {

bool SameResults(const RunOutcome& a, const RunOutcome& b) {
  return a.status.ok() == b.status.ok() && a.num_cores == b.num_cores &&
         a.result_size_edges == b.result_size_edges &&
         a.vct_size == b.vct_size && a.ecs_size == b.ecs_size;
}

}  // namespace
}  // namespace tkc

int main(int argc, char** argv) {
  using namespace tkc;
  using namespace tkc::bench;

  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "flag error: %s\n",
                 flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = *flags_or;
  const bool smoke = SmokeModeRequested(flags);
  // Smoke sizes keep per-query work well above scheduler noise so the
  // thread-scaling figures stay meaningful even on small CI runners.
  const uint32_t vertices =
      static_cast<uint32_t>(flags.GetInt("vertices", smoke ? 160 : 200));
  const uint32_t edges =
      static_cast<uint32_t>(flags.GetInt("edges", smoke ? 4500 : 8000));
  const uint32_t timestamps =
      static_cast<uint32_t>(flags.GetInt("timestamps", smoke ? 64 : 96));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  // Batches must be large enough to amortize the pool's per-fan-out wakeup
  // cost, or 1-core runners report scheduling noise as (anti-)scaling.
  const uint32_t unique =
      static_cast<uint32_t>(flags.GetInt("unique", smoke ? 32 : 48));
  const uint32_t repeat =
      static_cast<uint32_t>(flags.GetInt("repeat", smoke ? 2 : 3));
  const int reps = static_cast<int>(flags.GetInt("reps", smoke ? 1 : 3));
  const std::string out_path =
      flags.GetString("out", "BENCH_serve_throughput.json");

  // Bursty synthetic graph (same generator family as the registry
  // datasets): bursts concentrate edges in time, so query windows actually
  // contain temporal k-cores at the paper's operating points.
  SyntheticSpec graph_spec;
  graph_spec.name = "serve";
  graph_spec.num_vertices = vertices;
  graph_spec.num_edges = edges;
  graph_spec.num_timestamps = timestamps;
  graph_spec.burstiness = 0.3;
  graph_spec.seed = seed;
  TemporalGraph g = GenerateSynthetic(graph_spec);
  GraphStats stats = ComputeGraphStats(g);

  // Distinct queries at two (k, range) operating points for variety; the
  // submission stream cycles through them `repeat` times, so an engine
  // cache of >= `unique` entries turns every repeat into a hit.
  std::vector<Query> uniques;
  const std::pair<double, double> operating_points[] = {
      {0.30, 0.10}, {0.20, 0.10}, {0.20, 0.05}, {0.30, 0.20}};
  int point = 0;
  for (const auto& [kf, rf] : operating_points) {
    if (uniques.size() >= unique) break;
    WorkloadSpec spec;
    spec.k_fraction = kf;
    spec.range_fraction = rf;
    spec.num_queries = (unique + 1) / 2;
    spec.seed = seed + point++;
    auto queries = GenerateQueries(g, stats.kmax, spec);
    if (!queries.ok()) continue;  // tiny graphs lack some operating points
    for (const Query& q : *queries) {
      if (uniques.size() < unique) uniques.push_back(q);
    }
  }
  if (uniques.empty()) {
    std::fprintf(stderr, "workload: no core-containing query ranges found\n");
    return 1;
  }
  const size_t stream_size = static_cast<size_t>(uniques.size()) * repeat;

  // Serial reference for the bit-identity check.
  std::vector<RunOutcome> reference;
  reference.reserve(uniques.size());
  for (const Query& q : uniques) {
    reference.push_back(RunAlgorithm(AlgorithmKind::kEnum, g, q));
    if (!reference.back().status.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   reference.back().status.ToString().c_str());
      return 1;
    }
  }

  std::printf(
      "=== Serve throughput: %u vertices, %u edges, %u timestamps, kmax=%u; "
      "%zu unique queries x%u batches (stream of %zu), best of %d ===\n",
      vertices, edges, timestamps, stats.kmax, uniques.size(), repeat,
      stream_size, reps);

  // Thread sweep: the issue's 1/2/8 plus any --threads value.
  std::vector<int> thread_counts = {1, 2, 8};
  if (flags.Has("threads")) {
    thread_counts.push_back(
        std::max(1, static_cast<int>(flags.GetInt("threads", 1))));
  }
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  TextTable table;
  table.SetHeader({"Threads", "mixed q/s", "warm q/s", "mixed speedup",
                   "identical"});
  JsonRecords records;
  bool all_identical = true;
  double mixed_qps_1thread = 0;
  double warm_qps_1thread = 0;
  double mixed_qps_last = 0;

  for (int threads : thread_counts) {
    ThreadPool pool(threads);
    QueryEngineOptions options;
    options.pool = &pool;
    options.cache_capacity = 2 * stream_size;
    options.build_index = true;
    auto engine = QueryEngine::Create(g, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
      return 1;
    }

    double best_mixed = -1;
    double best_warm = -1;
    bool identical = true;
    for (int r = 0; r < reps; ++r) {
      // Mixed pass: batch 1 executes every distinct query; batches 2..R
      // are answered from the LRU. One ServeBatch call per batch, so the
      // repeats exercise the cache rather than in-batch dedup.
      engine->ClearCache();
      WallTimer timer;
      for (uint32_t b = 0; b < repeat; ++b) {
        std::vector<RunOutcome> batch = engine->ServeBatch(uniques);
        for (size_t i = 0; i < batch.size(); ++i) {
          identical = identical && SameResults(reference[i], batch[i]);
        }
      }
      double mixed_seconds = timer.ElapsedSeconds();
      if (best_mixed < 0 || mixed_seconds < best_mixed)
        best_mixed = mixed_seconds;

      // Warm pass: pure cache hits; loop until ~20ms accumulate so the
      // per-pass time is measurable rather than timer noise.
      timer.Restart();
      size_t warm_passes = 0;
      double warm_elapsed = 0;
      do {
        std::vector<RunOutcome> warm = engine->ServeBatch(uniques);
        for (size_t i = 0; i < warm.size(); ++i) {
          identical = identical && SameResults(reference[i], warm[i]);
        }
        ++warm_passes;
        warm_elapsed = timer.ElapsedSeconds();
      } while (warm_elapsed < 0.02 && warm_passes < 4096);
      double warm_seconds = warm_elapsed / static_cast<double>(warm_passes);
      if (best_warm < 0 || warm_seconds < best_warm) best_warm = warm_seconds;
    }
    all_identical = all_identical && identical;

    double mixed_qps =
        best_mixed > 0 ? static_cast<double>(stream_size) / best_mixed : 0;
    double warm_qps =
        best_warm > 0 ? static_cast<double>(uniques.size()) / best_warm : 0;
    if (threads == 1) {
      mixed_qps_1thread = mixed_qps;
      warm_qps_1thread = warm_qps;
    }
    mixed_qps_last = mixed_qps;
    double mixed_speedup =
        mixed_qps_1thread > 0 ? mixed_qps / mixed_qps_1thread : 0;
    double warm_speedup =
        warm_qps_1thread > 0 ? warm_qps / warm_qps_1thread : 0;

    char speedup_cell[32];
    std::snprintf(speedup_cell, sizeof(speedup_cell), "%.2fx",
                  mixed_speedup);
    table.AddRow({TextTable::Cell(static_cast<uint64_t>(threads)),
                  TextTable::Cell(mixed_qps, 1), TextTable::Cell(warm_qps, 1),
                  speedup_cell, identical ? "yes" : "NO"});

    for (int mode = 0; mode < 2; ++mode) {
      records.BeginRecord();
      records.Add("bench", std::string("serve_throughput"));
      records.Add("mode", std::string(mode == 0 ? "mixed" : "warm"));
      records.Add("algo", std::string("Enum"));
      records.Add("vertices", static_cast<uint64_t>(vertices));
      records.Add("edges", static_cast<uint64_t>(edges));
      records.Add("timestamps", static_cast<uint64_t>(timestamps));
      records.Add("unique_queries", static_cast<uint64_t>(uniques.size()));
      records.Add("stream_size", static_cast<uint64_t>(stream_size));
      records.Add("threads", threads);
      records.Add("seconds", mode == 0 ? best_mixed : best_warm);
      records.Add("qps", mode == 0 ? mixed_qps : warm_qps);
      records.Add("speedup", mode == 0 ? mixed_speedup : warm_speedup);
      records.Add("identical", identical);
    }
  }
  table.Print();
  if (mixed_qps_1thread > 0) {
    std::printf("\nscaling (mixed, 1 -> %d threads): %.2fx\n",
                thread_counts.back(), mixed_qps_last / mixed_qps_1thread);
  }
  if (records.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "ERROR: a served outcome differed from the serial runner\n");
    return 1;
  }
  return 0;
}
