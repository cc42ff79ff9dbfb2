// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Figure 8: average reconstruction error (% of range) vs precision width
// for the four filter families on the sea surface temperature signal.
// Paper shape: slide/swing/cache nearly identical, linear slightly lower
// (it also compresses least); all averages far below the prescribed
// precision width (e.g. ~4.5% at a 10% width).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/sea_surface.h"

namespace plastream {
namespace {

void RunFigure8() {
  const Signal signal = bench::ValueOrDie(
      GenerateSeaSurfaceTemperature(SeaSurfaceOptions{}), "generate SST");
  const double range = signal.Range(0);

  std::printf(
      "Figure 8: average error (%% of range) vs precision width, sea "
      "surface temperature\n\n");

  const std::vector<double> precision_pct{0.1, 0.316, 1.0, 3.16, 10.0};
  Table table(bench::PaperFilterHeaders("precision (%range)"));
  std::vector<std::vector<double>> series;
  for (const double pct : precision_pct) {
    const FilterOptions options =
        FilterOptions::Scalar(range * pct / 100.0);
    std::vector<double> row;
    for (const FilterSpec& spec : PaperFilterVariants()) {
      const auto run = RunFilter(spec, options, signal);
      bench::CheckOk(run.status(), spec.Label().c_str());
      row.push_back(100.0 * run->error.avg_error_overall / range);
    }
    series.push_back(row);
    table.AddNumericRow(FormatDouble(pct, 3), row);
  }
  table.PrintStdout();

  std::printf("\nshape checks:\n");
  bool below_width = true;
  for (size_t i = 0; i < precision_pct.size(); ++i) {
    for (const double err : series[i]) {
      if (err > precision_pct[i]) below_width = false;
    }
  }
  std::printf("  avg error always below the precision width: %s\n",
              bench::ShapeVerdict(below_width));
  std::printf("  swing avg error at 10%% width: %.2f%% of range "
              "(paper: ~4.5%%)\n",
              series.back()[2]);
}

}  // namespace
}  // namespace plastream

int main() {
  plastream::RunFigure8();
  return plastream::bench::ShapeChecksExitCode();
}
