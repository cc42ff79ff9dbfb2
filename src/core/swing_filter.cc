// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/swing_filter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/simd.h"
#include "core/filter_registry.h"

namespace plastream {

namespace {

// Lane group of the Violates check: per lane, the band test with each
// bound in BoundAt's operation order, pivot + slope * dt.
template <typename V>
typename V::Mask SwingViolatesLanes(const double* x, const double* eps,
                                    const double* pivot, const double* su,
                                    const double* sl, double dt) {
  const V vx = V::Load(x);
  const V veps = V::Load(eps);
  const V vp = V::Load(pivot);
  const V vdt = V::Broadcast(dt);
  const V bu = vp + V::Load(su) * vdt;
  const V bl = vp + V::Load(sl) * vdt;
  return (vx > bu + veps) | (vx < bl - veps);
}

// Lane group of the least-squares accumulation (Eq. 6),
// s1 += (x - pivot) * dt, with KahanSum::Add's exact operation sequence
// per lane.
template <typename V>
void SwingAccumulateLanes(const double* x, const double* pivot, double dt,
                          double* s1_sum, double* s1_comp) {
  simd::KahanAdd(s1_sum, s1_comp,
                 (V::Load(x) - V::Load(pivot)) * V::Broadcast(dt));
}

// Lane group of an interval's first point (Algorithm 1, lines 3 and 9):
// u and l through (pivot, point + ε) and (pivot, point - ε), then the
// point's least-squares term.
template <typename V>
void SwingStartLanes(const double* x, const double* eps, const double* pivot,
                     double* su, double* sl, double dt, double* s1_sum,
                     double* s1_comp) {
  const V vx = V::Load(x);
  const V veps = V::Load(eps);
  const V vp = V::Load(pivot);
  const V vdt = V::Broadcast(dt);
  (((vx + veps) - vp) / vdt).Store(su);
  (((vx - veps) - vp) / vdt).Store(sl);
  SwingAccumulateLanes<V>(x, pivot, dt, s1_sum, s1_comp);
}

// Lane group of the filtering mechanism (Algorithm 1, lines 14-18), then
// the point's least-squares term: conditional slope clamps as
// compute-then-blend.
template <typename V>
void SwingUpdateLanes(const double* x, const double* eps, const double* pivot,
                      double* su, double* sl, double dt, double* s1_sum,
                      double* s1_comp) {
  const V vx = V::Load(x);
  const V veps = V::Load(eps);
  const V vp = V::Load(pivot);
  const V vdt = V::Broadcast(dt);
  const V vsl = V::Load(sl);
  const V bl = vp + vsl * vdt;
  // Swing l up through (pivot, point - ε) where the point clears l + ε.
  const V new_sl = ((vx - veps) - vp) / vdt;
  Select(vx > bl + veps, new_sl, vsl).Store(sl);
  const V vsu = V::Load(su);
  const V bu = vp + vsu * vdt;
  // Swing u down through (pivot, point + ε) where the point clears u - ε.
  const V new_su = ((vx + veps) - vp) / vdt;
  Select(vx < bu - veps, new_su, vsu).Store(su);
  SwingAccumulateLanes<V>(x, pivot, dt, s1_sum, s1_comp);
}

}  // namespace

Result<std::unique_ptr<SwingFilter>> SwingFilter::Create(FilterOptions options,
                                                         SegmentSink* sink) {
  PLASTREAM_RETURN_NOT_OK(ValidateFilterOptions(options));
  return std::unique_ptr<SwingFilter>(
      new SwingFilter(std::move(options), sink));
}

SwingFilter::SwingFilter(FilterOptions options, SegmentSink* sink)
    : Filter(std::move(options), sink) {
  const size_t d = dimensions();
  slope_u_.resize(d);
  slope_l_.resize(d);
  s1_.resize(d);
  frozen_slope_.resize(d);
}

double SwingFilter::BoundAt(double slope, double t, size_t i) const {
  return pivot_x_[i] + slope * (t - pivot_t_);
}

bool SwingFilter::Violates(const DataPoint& point) const {
  if (frozen_) {
    // Linear-filter mode along the committed line.
    for (size_t i = 0; i < dimensions(); ++i) {
      const double pred = BoundAt(frozen_slope_[i], point.t, i);
      if (std::abs(point.x[i] - pred) > epsilon(i)) return true;
    }
    return false;
  }
  const double* x = point.x.data();
  const double* eps = options().epsilon.data();
  const double* pivot = pivot_x_.data();
  const double* su = slope_u_.data();
  const double* sl = slope_l_.data();
  const double dt = point.t - pivot_t_;
  return simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    return SwingViolatesLanes<V>(x + i, eps + i, pivot + i, su + i, sl + i,
                                 dt)
        .Any();
  });
}

double SwingFilter::ClampedLsqSlope(size_t i) const {
  const double s2 = s2_.Total();
  // s2 == 0 only for an empty interval, which CloseInterval never sees with
  // bounds defined; guard anyway and fall back to the feasible midpoint.
  double slope = s2 > 0.0 ? s1_.Total(i) / s2
                          : 0.5 * (slope_l_[i] + slope_u_[i]);
  return std::clamp(slope, slope_l_[i], slope_u_[i]);
}

void SwingFilter::CloseInterval() {
  // Recording at t_k = t_{j-1} (Algorithm 1, line 8): on the line through
  // the pivot with the clamped least-squares slope. In frozen mode the line
  // was already committed.
  Segment seg;
  seg.t_start = pivot_t_;
  seg.t_end = t_last_;
  seg.x_start = pivot_x_;
  seg.x_end.resize(dimensions());
  for (size_t i = 0; i < dimensions(); ++i) {
    const double slope = frozen_ ? frozen_slope_[i] : ClampedLsqSlope(i);
    seg.x_end[i] = BoundAt(slope, t_last_, i);
  }
  seg.connected_to_prev = !first_segment_;
  first_segment_ = false;

  // The new pivot is the recording just made.
  pivot_t_ = seg.t_end;
  pivot_x_ = seg.x_end;
  Emit(std::move(seg));

  bounds_defined_ = false;
  frozen_ = false;
  s2_.Reset();
  s1_.Reset();
  unreported_ = 0;  // The recording brings the receiver fully up to date.
}

void SwingFilter::StartBounds(const DataPoint& point) {
  const double* x = point.x.data();
  const double* eps = options().epsilon.data();
  const double* pivot = pivot_x_.data();
  double* su = slope_u_.data();
  double* sl = slope_l_.data();
  double* s1_sum = s1_.sum_data();
  double* s1_comp = s1_.comp_data();
  const double dt = point.t - pivot_t_;
  s2_.Add(dt * dt);
  simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    SwingStartLanes<V>(x + i, eps + i, pivot + i, su + i, sl + i, dt,
                       s1_sum + i, s1_comp + i);
    return false;
  });
  bounds_defined_ = true;
}

void SwingFilter::Freeze() {
  // Commit the clamped-LSQ line and update the receiver (Section 3.3). The
  // pivot is already known to the receiver, so the commit costs a single
  // recording-equivalent (the slope vector).
  for (size_t i = 0; i < dimensions(); ++i) {
    frozen_slope_[i] = ClampedLsqSlope(i);
  }
  ProvisionalLine line;
  line.t = pivot_t_;
  line.x = pivot_x_;
  line.slope = frozen_slope_;
  line.recording_cost = 1;
  EmitProvisional(std::move(line));
  frozen_ = true;
  unreported_ = 0;
}

void SwingFilter::UpdateBoundsAndAccumulate(const DataPoint& point) {
  const double* x = point.x.data();
  const double* eps = options().epsilon.data();
  const double* pivot = pivot_x_.data();
  double* su = slope_u_.data();
  double* sl = slope_l_.data();
  double* s1_sum = s1_.sum_data();
  double* s1_comp = s1_.comp_data();
  const double dt = point.t - pivot_t_;
  s2_.Add(dt * dt);
  simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    SwingUpdateLanes<V>(x + i, eps + i, pivot + i, su + i, sl + i, dt,
                        s1_sum + i, s1_comp + i);
    return false;
  });
}

Status SwingFilter::AppendValidated(const DataPoint& point) {
  if (!have_pivot_) {
    // Algorithm 1, lines 1-2: the first point is recorded as (t_0', X_0')
    // and becomes the pivot of the first interval.
    have_pivot_ = true;
    pivot_t_ = point.t;
    pivot_x_ = point.x;
    t_last_ = point.t;
    return Status::OK();
  }
  if (!bounds_defined_ || Violates(point)) {
    // Algorithm 1, lines 7-9 and 3: a violating point closes the interval,
    // and the first point after a recording defines the initial bounds.
    if (bounds_defined_) CloseInterval();
    StartBounds(point);
    t_last_ = point.t;
    ++unreported_;
    return Status::OK();
  }

  // Filtering mechanism (Algorithm 1, lines 14-18).
  if (!frozen_) {
    UpdateBoundsAndAccumulate(point);
    ++unreported_;
  }
  t_last_ = point.t;

  if (!frozen_ && options().max_lag > 0 && unreported_ >= options().max_lag) {
    Freeze();
  }
  return Status::OK();
}

Status SwingFilter::FinishImpl() {
  if (!have_pivot_) return Status::OK();  // Empty stream.
  if (!bounds_defined_) {
    // Single-point stream: emit the recorded point as a degenerate segment.
    Segment seg;
    seg.t_start = pivot_t_;
    seg.t_end = pivot_t_;
    seg.x_start = pivot_x_;
    seg.x_end = pivot_x_;
    seg.connected_to_prev = false;
    Emit(std::move(seg));
    return Status::OK();
  }
  CloseInterval();
  return Status::OK();
}

Status SwingFilter::CutImpl() {
  // Flush exactly like Finish (CloseInterval already resets the interval
  // state), then forget the pivot so the next point starts a fresh,
  // disconnected chain instead of swinging from the last recording.
  PLASTREAM_RETURN_NOT_OK(FinishImpl());
  have_pivot_ = false;
  first_segment_ = true;
  bounds_defined_ = false;
  frozen_ = false;
  s2_.Reset();
  s1_.Reset();
  unreported_ = 0;
  return Status::OK();
}

void RegisterSwingFilterFamily(FilterRegistry& registry) {
  (void)registry.Register(
      "swing",
      [](const FilterSpec& spec,
         SegmentSink* sink) -> Result<std::unique_ptr<Filter>> {
        PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({}));
        PLASTREAM_ASSIGN_OR_RETURN(auto filter,
                                   SwingFilter::Create(spec.options, sink));
        return std::unique_ptr<Filter>(std::move(filter));
      });
}

}  // namespace plastream
