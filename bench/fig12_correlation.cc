// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Figure 12 + the Section 5.4 joint-vs-independent analysis. A
// 5-dimensional walk with pairwise step correlation swept from 0.1 to 1.0.
// Paper shape: compression rises with correlation for every filter;
// slide/swing stay highest. The second table reproduces the paper's field
// accounting: compressing the five dimensions jointly beats compressing
// each independently (ratio x (d+1)/2d) once the correlation is high
// enough (paper: around 0.7).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/correlated_walk.h"

namespace plastream {
namespace {

constexpr size_t kPoints = 10000;
constexpr size_t kDims = 5;
constexpr double kEpsilon = 1.0;
constexpr int kSeeds = 5;
// Calibrated so the single-dimension slide ratio matches the paper's
// Section 5.4 anchor of 2.47 (measured: 2.49), which places the
// joint-vs-independent break-even on a comparable footing.
constexpr double kMaxDelta = 3.3;

Signal MakeSignal(double correlation, uint64_t seed) {
  CorrelatedWalkOptions o;
  o.count = kPoints;
  o.dimensions = kDims;
  o.correlation = correlation;
  o.decrease_probability = 0.5;
  o.max_delta = kMaxDelta;
  o.seed = seed;
  return plastream::bench::ValueOrDie(GenerateCorrelatedWalk(o),
                                      "generate walk");
}

// Extracts dimension `dim` of a signal as a 1-dimensional signal.
Signal ExtractDimension(const Signal& signal, size_t dim) {
  Signal out;
  out.points.reserve(signal.size());
  for (const DataPoint& p : signal.points) {
    out.points.push_back(DataPoint::Scalar(p.t, p.x[dim]));
  }
  return out;
}

void RunFigure12() {
  std::printf(
      "Figure 12: effect of the correlation between dimensions (d=%zu, "
      "n=%zu per run, %d seeds averaged)\n\n",
      kDims, kPoints, kSeeds);

  Table table(bench::PaperFilterHeaders("correlation"));
  std::vector<std::vector<double>> series;
  std::vector<double> rhos;
  for (int r = 1; r <= 10; ++r) rhos.push_back(0.1 * r);

  // Also collect the slide filter's joint-vs-independent accounting.
  std::vector<double> joint_ratio(rhos.size(), 0.0);
  std::vector<double> independent_adjusted(rhos.size(), 0.0);

  for (size_t ri = 0; ri < rhos.size(); ++ri) {
    std::vector<double> sums(PaperFilterVariants().size(), 0.0);
    for (int seed = 0; seed < kSeeds; ++seed) {
      const Signal signal =
          MakeSignal(rhos[ri], 4000 + static_cast<uint64_t>(seed));
      const auto ratios = bench::PaperCompressionRatios(
          signal, FilterOptions::Uniform(kDims, kEpsilon));
      for (size_t i = 0; i < ratios.size(); ++i) sums[i] += ratios[i];
      joint_ratio[ri] += ratios[3];

      // Independent compression: one slide filter per dimension; the
      // paper's (d+1)/2d factor accounts for repeating the time field.
      double per_dim_ratio_sum = 0.0;
      for (size_t dim = 0; dim < kDims; ++dim) {
        const Signal column = ExtractDimension(signal, dim);
        const auto run = RunFilter(FilterSpec{.family = "slide"},
                                   FilterOptions::Scalar(kEpsilon), column);
        bench::CheckOk(run.status(), "independent slide");
        per_dim_ratio_sum += run->compression.ratio;
      }
      independent_adjusted[ri] += IndependentToJointRatio(
          per_dim_ratio_sum / static_cast<double>(kDims), kDims);
    }
    for (double& s : sums) s /= kSeeds;
    joint_ratio[ri] /= kSeeds;
    independent_adjusted[ri] /= kSeeds;
    series.push_back(sums);
    table.AddNumericRow(FormatDouble(rhos[ri], 2), sums);
  }
  table.PrintStdout();

  std::printf("\nSection 5.4: joint vs independent compression (slide "
              "filter, field-accounted)\n\n");
  Table joint_table({"correlation", "joint ratio",
                     "independent x (d+1)/2d", "joint wins"});
  double break_even = -1.0;
  for (size_t ri = 0; ri < rhos.size(); ++ri) {
    const bool wins = joint_ratio[ri] > independent_adjusted[ri];
    if (wins && break_even < 0.0) break_even = rhos[ri];
    if (!wins) break_even = -1.0;
    joint_table.AddRow({FormatDouble(rhos[ri], 2),
                        FormatDouble(joint_ratio[ri], 4),
                        FormatDouble(independent_adjusted[ri], 4),
                        wins ? "yes" : "no"});
  }
  joint_table.PrintStdout();

  std::printf("\nshape checks:\n");
  std::printf("  compression rises with correlation (slide): %s "
              "(%.2f at 0.1 vs %.2f at 1.0)\n",
              bench::ShapeVerdict(series.back()[3] > series.front()[3]),
              series.front()[3], series.back()[3]);
  bool on_top = true;
  for (const auto& row : series) {
    if (!(row[3] >= row[0] && row[3] >= row[1])) on_top = false;
  }
  std::printf("  slide highest across the sweep: %s\n",
              bench::ShapeVerdict(on_top));
  if (break_even > 0.0) {
    std::printf("  joint compression wins from correlation ~%.1f on "
                "(paper: ~0.7)\n", break_even);
  } else {
    std::printf("  joint compression never dominates on this sweep "
                "(paper: wins above ~0.7)\n");
  }
}

}  // namespace
}  // namespace plastream

int main() {
  plastream::RunFigure12();
  return plastream::bench::ShapeChecksExitCode();
}
