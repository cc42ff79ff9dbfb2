// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Cache filter: the piece-wise *constant* baseline of Section 2.2.
//
// The filter predicts that the next point equals the current interval's
// representative value; points within ε_i per dimension are filtered out,
// anything else closes the interval and starts a new one. Three variants
// choose the representative value (paper refs [21] and [18]):
//  - kFirst:    the interval's first point (transmittable immediately);
//  - kMidrange: (max+min)/2, which widens acceptance to max-min <= 2ε_i and
//               is the optimal online piece-wise constant approximation of
//               Lazaridis & Mehrotra;
//  - kMean:     the running mean, accepted while every point stays within
//               ε_i of the updated mean.

#ifndef PLASTREAM_CORE_CACHE_FILTER_H_
#define PLASTREAM_CORE_CACHE_FILTER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/filter.h"

namespace plastream {

/// Representative-value policy for a cache filter interval.
enum class CacheValueMode {
  /// The interval's first point; transmittable immediately.
  kFirst,
  /// (max+min)/2 — widens acceptance to max-min <= 2ε_i (Lazaridis &
  /// Mehrotra's optimal online piece-wise constant approximation).
  kMidrange,
  /// The running mean, accepted while every point stays within ε_i of the
  /// updated mean.
  kMean,
};

/// Piece-wise constant approximation with per-point L-infinity guarantee.
class CacheFilter : public Filter {
 public:
  /// Validates options and constructs the filter. `sink` may be null.
  static Result<std::unique_ptr<CacheFilter>> Create(
      FilterOptions options, CacheValueMode mode = CacheValueMode::kFirst,
      SegmentSink* sink = nullptr);

  /// "cache".
  std::string_view name() const override { return "cache"; }
  /// Piece-wise constant: one recording per segment.
  RecordingCostModel cost_model() const override {
    return RecordingCostModel::kPiecewiseConstant;
  }

  /// The representative-value policy in use.
  CacheValueMode mode() const { return mode_; }

 protected:
  Status AppendValidated(const DataPoint& point) override;
  Status FinishImpl() override;
  Status CutImpl() override;

 private:
  CacheFilter(FilterOptions options, CacheValueMode mode, SegmentSink* sink);

  // True when `point` can be represented by the open interval
  // (CacheRejectLanes over every lane group).
  bool Accepts(const DataPoint& point) const;
  // Folds an accepted point into the interval state (CacheAbsorbLanes).
  void Absorb(const DataPoint& point);
  // Emits the open interval as a horizontal segment.
  void CloseInterval();
  // Starts a fresh interval at `point`.
  void OpenInterval(const DataPoint& point);

  CacheValueMode mode_;
  bool interval_open_ = false;
  double t_first_ = 0.0;
  double t_last_ = 0.0;
  size_t count_ = 0;
  DimVec first_;
  DimVec min_;
  DimVec max_;
  DimVec sum_;
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_CACHE_FILTER_H_
