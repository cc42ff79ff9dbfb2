// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Swing filter (paper Section 3, Algorithm 1): connected piece-wise linear
// approximation with an L-infinity guarantee.
//
// Instead of committing to one prediction line, the filter keeps — per
// dimension — the whole pencil of lines through the interval's pivot (the
// previous recording) bounded by an upper line u_i and a lower line l_i.
// Accepted points swing l_i up / u_i down; a point outside the ±ε band
// around the bounds closes the interval. The closing recording lies on the
// line through the pivot whose slope is the least-squares optimum clamped
// into [slope(l_i), slope(u_i)] (Eq. 5-6), so the mean squared error is
// minimized *after* compression is maximized. O(1) time and space per point.

#ifndef PLASTREAM_CORE_SWING_FILTER_H_
#define PLASTREAM_CORE_SWING_FILTER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/filter.h"

namespace plastream {

/// Connected-segment swing filter.
class SwingFilter : public Filter {
 public:
  /// Validates options and constructs the filter. `sink` may be null.
  static Result<std::unique_ptr<SwingFilter>> Create(FilterOptions options,
                                                     SegmentSink* sink = nullptr);

  /// "swing".
  std::string_view name() const override { return "swing"; }

  /// Points the transmitter has processed beyond the receiver's knowledge.
  /// Kept (strictly) below options().max_lag by freezing when the bound is
  /// configured; purely informational when max_lag == 0.
  size_t unreported_points() const { return unreported_; }

  /// unreported_points as a named counter, readable through a Filter*.
  std::vector<FilterCounter> Counters() const override {
    return {{"unreported_points", static_cast<double>(unreported_)}};
  }

 protected:
  Status AppendValidated(const DataPoint& point) override;
  Status FinishImpl() override;
  Status CutImpl() override;

 private:
  SwingFilter(FilterOptions options, SegmentSink* sink);

  // Bound value at time t for dimension i: pivot + slope * (t - pivot_t).
  double BoundAt(double slope, double t, size_t i) const;
  // True when the point violates the ±ε band around [l_i, u_i] in any
  // dimension (Algorithm 1, line 7), or strays more than ε from the
  // committed line in frozen mode.
  bool Violates(const DataPoint& point) const;
  // The swing updates (Algorithm 1, lines 14-18) and the point's
  // least-squares terms, one SwingUpdateLanes call per lane group.
  void UpdateBoundsAndAccumulate(const DataPoint& point);
  // Least-squares slope for dimension i, clamped into [l, u] (Eq. 5-6).
  double ClampedLsqSlope(size_t i) const;
  // Closes the interval with a recording at t_last_ and emits the segment.
  void CloseInterval();
  // Starts the next interval from the pivot with bounds through `point`
  // and folds the point into the least-squares sums.
  void StartBounds(const DataPoint& point);
  // Commits the clamped-LSQ line early (max-lag freeze).
  void Freeze();

  // Pivot: the previous recording (t_k-1, X_k-1); doubles as the start of
  // the segment under construction.
  bool have_pivot_ = false;
  double pivot_t_ = 0.0;
  DimVec pivot_x_;
  bool first_segment_ = true;

  // Interval state.
  bool bounds_defined_ = false;
  DimVec slope_u_;
  DimVec slope_l_;
  double t_last_ = 0.0;

  // Incremental least-squares sums relative to the pivot (Eq. 6):
  // s1_[i] = Σ (x_ij - pivot_x_i)(t_j - pivot_t), s2_ = Σ (t_j - pivot_t)^2.
  // s1_ is SoA (KahanVec) so the lane kernel accumulates lane groups.
  KahanVec s1_;
  KahanSum s2_;

  // Max-lag freeze state: when frozen, the interval proceeds as a linear
  // filter along the committed slopes (Section 3.3).
  bool frozen_ = false;
  DimVec frozen_slope_;
  size_t unreported_ = 0;
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_SWING_FILTER_H_
