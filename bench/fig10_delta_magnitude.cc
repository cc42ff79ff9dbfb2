// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Figure 10: effect of the magnitude of change per data point. Oscillating
// random walk (p=0.5), maximum step x swept from 10% to 10000% of the
// precision width on a log axis. Paper shape: compression falls as x
// grows; slide and swing consistently above cache and linear; cache beats
// linear when x is below the precision width; slide stays the most
// resilient at large x because sharp fluctuation raises the chance of
// connecting neighbouring segments.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/random_walk.h"

namespace plastream {
namespace {

constexpr size_t kPoints = 20000;
constexpr double kEpsilon = 1.0;
constexpr int kSeeds = 5;

void RunFigure10() {
  std::printf(
      "Figure 10: effect of the magnitude of change per data point "
      "(p=0.5, n=%zu per run, %d seeds averaged)\n\n",
      kPoints, kSeeds);

  Table table(bench::PaperFilterHeaders("max delta (%eps)"));
  std::vector<std::vector<double>> series;
  const std::vector<double> delta_pct{10,   31.6, 100,  316,
                                      1000, 3162, 10000};
  for (const double pct : delta_pct) {
    std::vector<double> sums(PaperFilterVariants().size(), 0.0);
    for (int seed = 0; seed < kSeeds; ++seed) {
      RandomWalkOptions o;
      o.count = kPoints;
      o.decrease_probability = 0.5;
      o.max_delta = kEpsilon * pct / 100.0;
      o.seed = 2000 + static_cast<uint64_t>(seed);
      const Signal signal =
          bench::ValueOrDie(GenerateRandomWalk(o), "generate walk");
      const auto ratios = bench::PaperCompressionRatios(
          signal, FilterOptions::Scalar(kEpsilon));
      for (size_t i = 0; i < ratios.size(); ++i) sums[i] += ratios[i];
    }
    for (double& s : sums) s /= kSeeds;
    series.push_back(sums);
    table.AddNumericRow(FormatDouble(pct, 4), sums);
  }
  table.PrintStdout();

  std::printf("\nshape checks:\n");
  std::printf("  compression falls as delta grows (slide): %s\n",
              bench::ShapeVerdict(series.front()[3] > series.back()[3]));
  std::printf("  cache beats linear when x < precision width: %s "
              "(%.2f vs %.2f at x=10%%)\n",
              bench::ShapeVerdict(series.front()[0] > series.front()[1]),
              series.front()[0], series.front()[1]);
  std::printf("  slide over linear: %.0f%% at x=10%%, %.0f%% at x=10000%% "
              "(paper: 266%% down to 19.5%%)\n",
              100.0 * (series.front()[3] / series.front()[1] - 1.0),
              100.0 * (series.back()[3] / series.back()[1] - 1.0));
  bool slide_on_top = true;
  for (const auto& row : series) {
    if (!(row[3] >= row[0] && row[3] >= row[1])) slide_on_top = false;
  }
  std::printf("  slide >= cache and linear everywhere: %s\n",
              bench::ShapeVerdict(slide_on_top));
}

}  // namespace
}  // namespace plastream

int main() {
  plastream::RunFigure10();
  return plastream::bench::ShapeChecksExitCode();
}
