#include "datasets/registry.h"

#include <algorithm>
#include <cmath>

namespace tkc {

namespace {

// One row of the scaled-down Table III. Vertex / edge / timestamp counts are
// ~1/100 of the paper's Table III; pa_alpha is tuned per density regime so
// kmax lands in the tens like the originals.
struct RegistryRow {
  const char* name;
  uint32_t vertices;
  uint32_t edges;
  uint32_t timestamps;  // ~edges for the "all distinct" regime
  double pa_alpha;
  double burstiness;
  double repeat_prob;  // recurring-interaction fraction
};

// Regimes: FB..WT keep tmax == edges (every edge a fresh timestamp); WK,
// PL, YT keep the original edges-per-timestamp ratio (~540, ~2700, ~46000
// in the paper; here the same order of compression).
constexpr RegistryRow kRows[] = {
    // name   |V|     |E|     tmax    alpha  burst
    {"FB",    90,     3400,   3400,   0.80,  0.20,  0.35},
    {"BO",    590,    3600,   3600,   0.72,  0.18,  0.30},
    {"CM",    190,    6000,   6000,   0.80,  0.30,  0.60},
    {"EM",    450,    33000,  21000,  0.55,  0.15,  0.85},
    {"MC",    710,    41000,  35000,  0.82,  0.15,  0.60},
    {"MO",    2480,   51000,  51000,  0.84,  0.12,  0.40},
    {"AU",    15900,  96000,  96000,  0.80,  0.10,  0.30},
    {"LR",    6340,   110000, 88000,  0.86,  0.12,  0.55},
    {"EN",    8730,   115000, 22000,  0.80,  0.12,  0.60},
    {"SU",    19400,  144000, 143000, 0.82,  0.10,  0.30},
    {"WT",    121900, 228000, 195000, 0.84,  0.10,  0.30},
    {"WK",    9130,   244000, 450,    0.84,  0.10,  0.45},
    {"PL",    8930,   340000, 126,    0.82,  0.08,  0.50},
    {"YT",    322300, 937000, 20,     0.80,  0.05,  0.30},
};

SyntheticSpec SpecFromRow(const RegistryRow& row, double scale) {
  SyntheticSpec spec;
  spec.name = row.name;
  auto scaled = [&](uint32_t v, uint32_t floor_value) {
    return std::max<uint32_t>(
        floor_value, static_cast<uint32_t>(std::llround(v * scale)));
  };
  spec.num_vertices = scaled(row.vertices, 20);
  spec.num_edges = scaled(row.edges, 100);
  spec.num_timestamps = scaled(row.timestamps, 10);
  spec.pa_alpha = row.pa_alpha;
  spec.burstiness = row.burstiness;
  spec.repeat_prob = row.repeat_prob;
  spec.burst_group = 12;
  spec.burst_span = std::max<uint32_t>(2, spec.num_timestamps / 400);
  // Deterministic per-dataset seed.
  spec.seed = 0x7c3 + static_cast<uint64_t>(row.name[0]) * 131 +
              static_cast<uint64_t>(row.name[1]);
  return spec;
}

}  // namespace

std::vector<SyntheticSpec> TableIIISpecs(double scale) {
  std::vector<SyntheticSpec> specs;
  specs.reserve(std::size(kRows));
  for (const RegistryRow& row : kRows) {
    specs.push_back(SpecFromRow(row, scale));
  }
  return specs;
}

StatusOr<SyntheticSpec> SpecByName(const std::string& name, double scale) {
  for (const RegistryRow& row : kRows) {
    if (name == row.name) return SpecFromRow(row, scale);
  }
  return Status::NotFound("unknown dataset '" + name +
                          "' (expected one of FB BO CM EM MC MO AU LR EN SU "
                          "WT WK PL YT)");
}

StatusOr<TemporalGraph> GenerateByName(const std::string& name, double scale) {
  auto spec = SpecByName(name, scale);
  if (!spec.ok()) return spec.status();
  return GenerateSynthetic(*spec);
}

std::vector<std::string> SweepDatasetNames() { return {"CM", "EM", "WT", "PL"}; }

}  // namespace tkc
