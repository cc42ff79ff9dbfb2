// Copyright (c) 2026 The plastream Authors. MIT license.

#include "common/stats.h"

#include <cmath>
#include <limits>

namespace plastream {

void RunningStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

double RunningStats::Range() const {
  return count_ == 0 ? 0.0 : max_ - min_;
}

double PearsonCorrelation(std::span<const double> a,
                          std::span<const double> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  const size_t n = a.size();
  double mean_a = 0.0, mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace plastream
