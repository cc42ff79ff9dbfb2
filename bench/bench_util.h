// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Shared helpers for the figure benches: every bench prints the series its
// paper figure plots as an aligned table, plus the qualitative "shape"
// facts EXPERIMENTS.md tracks.

#ifndef PLASTREAM_BENCH_BENCH_UTIL_H_
#define PLASTREAM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "eval/runner.h"
#include "eval/table.h"

namespace plastream::bench {

/// Aborts the bench with a message when a Result/Status operation failed.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Runs the four paper filters over `signal` and returns their compression
/// ratios in PaperFilterVariants() order.
inline std::vector<double> PaperCompressionRatios(const Signal& signal,
                                                  const FilterOptions& options) {
  std::vector<double> ratios;
  for (const FilterSpec& spec : PaperFilterVariants()) {
    const auto run = RunFilter(spec, options, signal);
    CheckOk(run.status(), spec.Label().c_str());
    ratios.push_back(run->compression.ratio);
  }
  return ratios;
}

/// Shape checks that printed "NO" so far (see ShapeVerdict).
inline int shape_check_failures = 0;

/// Shape-check verdict for the paper-figure benches: "yes" or "NO" to
/// print. Every "NO" is counted, so main can exit non-zero through
/// ShapeChecksExitCode().
inline const char* ShapeVerdict(bool ok) {
  if (!ok) ++shape_check_failures;
  return ok ? "yes" : "NO";
}

/// 1 when any ShapeVerdict printed "NO", else 0.
inline int ShapeChecksExitCode() { return shape_check_failures == 0 ? 0 : 1; }

/// Header row for per-filter tables.
inline std::vector<std::string> PaperFilterHeaders(std::string x_label) {
  std::vector<std::string> headers{std::move(x_label)};
  for (const FilterSpec& spec : PaperFilterVariants()) {
    headers.push_back(spec.Label());
  }
  return headers;
}

}  // namespace plastream::bench

#endif  // PLASTREAM_BENCH_BENCH_UTIL_H_
