// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Small numerically-careful statistics helpers shared by datagen (signal
// calibration), eval (error metrics) and the tests (distribution checks).

#ifndef PLASTREAM_COMMON_STATS_H_
#define PLASTREAM_COMMON_STATS_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace plastream {

/// Compensated (Kahan–Neumaier) accumulator. Sums long series of doubles
/// without the drift a naive accumulator exhibits; used by the incremental
/// least-squares sums in the swing and slide filters.
class KahanSum {
 public:
  /// Adds one term.
  void Add(double value) {
    // Neumaier's variant: also correct when |value| > |sum_|.
    const double t = sum_ + value;
    if (std::abs(sum_) >= std::abs(value)) {
      compensation_ += (sum_ - t) + value;
    } else {
      compensation_ += (value - t) + sum_;
    }
    sum_ = t;
  }

  /// The compensated total so far.
  double Total() const { return sum_ + compensation_; }

  /// Resets to zero.
  void Reset() {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// A fixed-length array of Kahan–Neumaier accumulators in structure-of-
/// arrays layout: all sums contiguous, all compensations contiguous, so
/// the filters' per-dimension least-squares sums can be updated with one
/// vector operation per lane group (common/simd.h KahanAdd, which performs
/// KahanSum::Add's exact operation sequence per lane) while staying
/// bit-identical to a std::vector<KahanSum>.
class KahanVec {
 public:
  /// Resizes to `n` zeroed accumulators.
  void resize(size_t n) {
    sum_.assign(n, 0.0);
    comp_.assign(n, 0.0);
  }

  /// Number of accumulators.
  size_t size() const { return sum_.size(); }

  /// The compensated total of accumulator `i`.
  double Total(size_t i) const { return sum_[i] + comp_[i]; }

  /// Resets every accumulator to zero; the length is kept.
  void Reset() {
    std::fill(sum_.begin(), sum_.end(), 0.0);
    std::fill(comp_.begin(), comp_.end(), 0.0);
  }

  /// Contiguous running sums (SoA half 1), for vectorized accumulation.
  double* sum_data() { return sum_.data(); }
  /// Contiguous compensations (SoA half 2), for vectorized accumulation.
  double* comp_data() { return comp_.data(); }

 private:
  std::vector<double> sum_;
  std::vector<double> comp_;
};

/// Streaming mean/variance/extrema in one pass (Welford's algorithm).
class RunningStats {
 public:
  /// Folds one observation in.
  void Add(double value);

  /// Number of observations.
  size_t count() const { return count_; }
  /// Mean of the observations (0 when empty).
  double Mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance (0 for fewer than 2 observations).
  double Variance() const;
  /// Standard deviation derived from Variance().
  double StdDev() const;
  /// Smallest observation (+inf when empty).
  double Min() const { return min_; }
  /// Largest observation (-inf when empty).
  double Max() const { return max_; }
  /// Max() - Min() (0 when empty).
  double Range() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_;
  double max_;
};

/// Pearson correlation of two equally-sized series. Returns 0 when either
/// series is constant or the spans are empty/mismatched.
double PearsonCorrelation(std::span<const double> a, std::span<const double> b);

/// Sample mean of a span (0 when empty).
double Mean(std::span<const double> values);

}  // namespace plastream

#endif  // PLASTREAM_COMMON_STATS_H_
