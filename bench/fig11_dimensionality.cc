// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Figure 11: effect of the number of dimensions. Independent d-dimensional
// oscillating walks, d = 1..10, all dimensions sharing one filter (a new
// segment starts when ANY dimension violates its epsilon). Paper shape:
// compression decreases with d; slide and swing stay highest throughout.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/correlated_walk.h"

namespace plastream {
namespace {

constexpr size_t kPoints = 10000;
constexpr double kEpsilon = 1.0;
constexpr int kSeeds = 5;
// Calibrated so the single-dimension slide ratio matches the paper's
// Section 5.4 anchor of 2.47 (measured: 2.49); see fig12_correlation.cc.
constexpr double kMaxDelta = 3.3;

void RunFigure11() {
  std::printf(
      "Figure 11: effect of the number of dimensions (independent "
      "dimensions, n=%zu per run, %d seeds averaged)\n\n",
      kPoints, kSeeds);

  Table table(bench::PaperFilterHeaders("dimensions"));
  std::vector<std::vector<double>> series;
  for (size_t d = 1; d <= 10; ++d) {
    std::vector<double> sums(PaperFilterVariants().size(), 0.0);
    for (int seed = 0; seed < kSeeds; ++seed) {
      CorrelatedWalkOptions o;
      o.count = kPoints;
      o.dimensions = d;
      o.correlation = 0.0;
      o.decrease_probability = 0.5;
      o.max_delta = kMaxDelta;
      o.seed = 3000 + static_cast<uint64_t>(seed);
      const Signal signal =
          bench::ValueOrDie(GenerateCorrelatedWalk(o), "generate walk");
      const auto ratios = bench::PaperCompressionRatios(
          signal, FilterOptions::Uniform(d, kEpsilon));
      for (size_t i = 0; i < ratios.size(); ++i) sums[i] += ratios[i];
    }
    for (double& s : sums) s /= kSeeds;
    series.push_back(sums);
    table.AddNumericRow(std::to_string(d), sums);
  }
  table.PrintStdout();

  std::printf("\nshape checks:\n");
  std::printf("  compression decreases with dimensionality (slide): %s "
              "(%.2f at d=1 vs %.2f at d=10)\n",
              bench::ShapeVerdict(series.front()[3] > series.back()[3]),
              series.front()[3], series.back()[3]);
  bool on_top = true;
  for (const auto& row : series) {
    if (!(row[3] >= row[0] && row[3] >= row[1] && row[2] >= row[1])) {
      on_top = false;
    }
  }
  std::printf("  slide & swing highest across all d: %s\n",
              bench::ShapeVerdict(on_top));
}

}  // namespace
}  // namespace plastream

int main() {
  plastream::RunFigure11();
  return plastream::bench::ShapeChecksExitCode();
}
