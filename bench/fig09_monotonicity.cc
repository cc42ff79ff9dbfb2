// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Figure 9: effect of the degree of monotonicity. Random walk with
// decrease probability p swept from 0 (monotone) to 0.5 (oscillating),
// step magnitude U(0, x) with x = 400% of the precision width. Paper
// shape: slide and swing dominate cache and linear across the sweep; all
// four improve as the signal becomes more monotone, cache least sensitive.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/random_walk.h"

namespace plastream {
namespace {

constexpr size_t kPoints = 20000;
constexpr double kEpsilon = 1.0;
constexpr double kMaxDelta = 4.0 * kEpsilon;  // x = 400% of precision width
constexpr int kSeeds = 5;

void RunFigure9() {
  std::printf(
      "Figure 9: effect of the degree of monotonicity (n=%zu per run, "
      "x=400%% of precision width, %d seeds averaged)\n\n",
      kPoints, kSeeds);

  Table table(bench::PaperFilterHeaders("p(decrease)"));
  std::vector<std::vector<double>> series;
  for (const double p : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    std::vector<double> sums(PaperFilterVariants().size(), 0.0);
    for (int seed = 0; seed < kSeeds; ++seed) {
      RandomWalkOptions o;
      o.count = kPoints;
      o.decrease_probability = p;
      o.max_delta = kMaxDelta;
      o.seed = 1000 + static_cast<uint64_t>(seed);
      const Signal signal =
          bench::ValueOrDie(GenerateRandomWalk(o), "generate walk");
      const auto ratios = bench::PaperCompressionRatios(
          signal, FilterOptions::Scalar(kEpsilon));
      for (size_t i = 0; i < ratios.size(); ++i) sums[i] += ratios[i];
    }
    for (double& s : sums) s /= kSeeds;
    series.push_back(sums);
    table.AddNumericRow(FormatDouble(p, 2), sums);
  }
  table.PrintStdout();

  std::printf("\nshape checks:\n");
  bool dominated = true;
  for (const auto& row : series) {
    if (!(row[3] > row[0] && row[3] > row[1] && row[2] > row[0] &&
          row[2] > row[1])) {
      dominated = false;
    }
  }
  std::printf("  slide & swing above cache & linear everywhere: %s\n",
              bench::ShapeVerdict(dominated));
  std::printf("  slide improvement over cache: %.0f%% at p=0.5, %.0f%% at "
              "p=0 (paper: ~70%% to ~200%%)\n",
              100.0 * (series.back()[3] / series.back()[0] - 1.0),
              100.0 * (series.front()[3] / series.front()[0] - 1.0));
  std::printf("  monotone (p=0) compresses better than oscillating "
              "(p=0.5) for slide: %s\n",
              bench::ShapeVerdict(series.front()[3] > series.back()[3]));
}

}  // namespace
}  // namespace plastream

int main() {
  plastream::RunFigure9();
  return plastream::bench::ShapeChecksExitCode();
}
