// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Figure 7: compression ratio vs precision width (% of the signal's range,
// log x-axis) for the four filter families on the sea surface temperature
// signal. Paper shape: slide highest nearly everywhere, then swing, then
// cache (the SST trace has flat stretches), then linear; ratios grow
// steeply with the precision width.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/sea_surface.h"

namespace plastream {
namespace {

void RunFigure7() {
  const Signal signal = bench::ValueOrDie(
      GenerateSeaSurfaceTemperature(SeaSurfaceOptions{}), "generate SST");
  const double range = signal.Range(0);

  std::printf(
      "Figure 7: compression ratio vs precision width, sea surface "
      "temperature (n=%zu, range=%.3f C)\n\n",
      signal.size(), range);

  // The paper's x-axis: 0.1% .. 10% of the range, log-spaced.
  const std::vector<double> precision_pct{0.1, 0.316, 1.0, 3.16, 10.0};
  Table table(bench::PaperFilterHeaders("precision (%range)"));
  std::vector<std::vector<double>> series;
  for (const double pct : precision_pct) {
    const FilterOptions options =
        FilterOptions::Scalar(range * pct / 100.0);
    series.push_back(bench::PaperCompressionRatios(signal, options));
    table.AddNumericRow(FormatDouble(pct, 3), series.back());
  }
  table.PrintStdout();

  // Paper-shape checks (indices: 0 cache, 1 linear, 2 swing, 3 slide).
  const auto& widest = series.back();
  std::printf("\nshape checks:\n");
  std::printf("  slide >= swing at 10%%:          %s (%.1f vs %.1f)\n",
              bench::ShapeVerdict(widest[3] >= widest[2]), widest[3],
              widest[2]);
  std::printf("  swing > cache > linear at 10%%:  %s\n",
              bench::ShapeVerdict(widest[2] > widest[0] &&
                                  widest[0] > widest[1]));
  std::printf("  slide improvement over linear:  %.0f%% (paper: up to 1867%%)\n",
              100.0 * (widest[3] / widest[1] - 1.0));
  bool all_compress = true;
  for (const auto& row : series) {
    for (const double r : row) {
      if (r < 1.0) all_compress = false;
    }
  }
  std::printf("  all ratios >= 1 everywhere:     %s\n",
              bench::ShapeVerdict(all_compress));
}

}  // namespace
}  // namespace plastream

int main() {
  plastream::RunFigure7();
  return plastream::bench::ShapeChecksExitCode();
}
