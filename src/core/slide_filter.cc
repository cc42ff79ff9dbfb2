// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/slide_filter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "common/simd.h"
#include "core/filter_registry.h"

#include "geometry/tangent.h"

namespace plastream {
namespace {

// Samples used by the multi-dimensional junction-time search (Section 4.2
// leaves the common junction time underdetermined for d > 1; see DESIGN.md).
constexpr int kJunctionGridSamples = 65;

// Bound lines are evaluated from the SoA shadows with Line::ValueAt's
// exact operation order (anchor.x + slope * (t - anchor.t)), so each lane
// replicates the scalar expression bit for bit.
//
// Fused lane group of the Violates check and Accept's slide trigger: both
// masks derive from one evaluation of the bound lines, halving the loads
// and line evaluations per point. `update` is true in a lane when that
// dimension needs a bound update (l slides up or u slides down); the
// actual slide is rare and runs SlideBoundsForDim for the group. The
// bound lines cannot change between the check and the slide
// (AddToGeometry touches only the hull), so one evaluation serves both.
template <typename V>
void SlideCheckLanes(const double* x, const double* eps, const double* ut,
                     const double* ux, const double* us, const double* lt,
                     const double* lx, const double* ls, double t,
                     typename V::Mask* violates, typename V::Mask* update) {
  const V vx = V::Load(x);
  const V veps = V::Load(eps);
  const V vt = V::Broadcast(t);
  const V uval = V::Load(ux) + V::Load(us) * (vt - V::Load(ut));
  const V lval = V::Load(lx) + V::Load(ls) * (vt - V::Load(lt));
  *violates = (vx > uval + veps) | (vx < lval - veps);
  *update = (vx > lval + veps) | (vx < uval - veps);
}

// Lane group of AccumulateSums' per-dimension Kahan accumulation, in
// KahanSum::Add's Neumaier operation order (via simd::KahanAdd).
template <typename V>
void SlideAccumulateLanes(const double* x, const double* firstx, double dt,
                          double* sx_s, double* sx_c, double* sxt_s,
                          double* sxt_c, double* sxx_s, double* sxx_c) {
  const V vdx = V::Load(x) - V::Load(firstx);
  const V vdt = V::Broadcast(dt);
  simd::KahanAdd(sx_s, sx_c, vdx);
  simd::KahanAdd(sxt_s, sxt_c, vdx * vdt);
  simd::KahanAdd(sxx_s, sxx_c, vdx * vdx);
}

}  // namespace

Result<std::unique_ptr<SlideFilter>> SlideFilter::Create(
    FilterOptions options, SlideHullMode mode, SegmentSink* sink,
    SlideJunctionPolicy junction_policy) {
  PLASTREAM_RETURN_NOT_OK(ValidateFilterOptions(options));
  return std::unique_ptr<SlideFilter>(
      new SlideFilter(std::move(options), mode, sink, junction_policy));
}

SlideFilter::SlideFilter(FilterOptions options, SlideHullMode mode,
                         SegmentSink* sink,
                         SlideJunctionPolicy junction_policy)
    : Filter(std::move(options), sink),
      mode_(mode),
      junction_policy_(junction_policy) {
  const size_t d = dimensions();
  cur_.u.resize(d);
  cur_.l.resize(d);
  cur_.hulls.resize(d);
  cur_.points.resize(d);
  cur_.sx.resize(d);
  cur_.sxt.resize(d);
  cur_.sxx.resize(d);
  cur_.committed.resize(d);
  sh_ut_.resize(d);
  sh_ux_.resize(d);
  sh_us_.resize(d);
  sh_lt_.resize(d);
  sh_lx_.resize(d);
  sh_ls_.resize(d);
  upd_flags_.resize(d, 0);
}

size_t SlideFilter::unreported_points() const {
  size_t n = pending_.exists ? pending_.n : 0;
  if (cur_.open && !cur_.frozen) n += cur_.n;
  return n;
}

// --------------------------------------------------------------------------
// Interval lifecycle
// --------------------------------------------------------------------------

void SlideFilter::OpenInterval(const DataPoint& point) {
  cur_.open = true;
  cur_.bounds_ready = false;
  cur_.frozen = false;
  cur_.first = point;
  cur_.last = point;
  cur_.n = 1;
  cur_.st.Reset();
  cur_.stt.Reset();
  cur_.sx.Reset();
  cur_.sxt.Reset();
  cur_.sxx.Reset();
  for (size_t i = 0; i < dimensions(); ++i) {
    cur_.hulls[i].Clear();
    cur_.points[i].clear();
  }
  AddToGeometry(point);
  // The first point contributes zero to every first-point-relative sum, so
  // no AccumulateSums call is needed; n already counts it.
}

void SlideFilter::AddToGeometry(const DataPoint& point) {
  for (size_t i = 0; i < dimensions(); ++i) {
    const Point2 p{point.t, point.x[i]};
    if (mode_ == SlideHullMode::kAllPoints) {
      cur_.points[i].push_back(p);
    } else {
      cur_.hulls[i].Add(p);
    }
  }
}

void SlideFilter::AccumulateSums(const DataPoint& point) {
  const double dt = point.t - cur_.first.t;
  cur_.st.Add(dt);
  cur_.stt.Add(dt * dt);
  const double* x = point.x.data();
  const double* firstx = cur_.first.x.data();
  simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    SlideAccumulateLanes<V>(
        x + i, firstx + i, dt, cur_.sx.sum_data() + i, cur_.sx.comp_data() + i,
        cur_.sxt.sum_data() + i, cur_.sxt.comp_data() + i,
        cur_.sxx.sum_data() + i, cur_.sxx.comp_data() + i);
    return false;
  });
}

void SlideFilter::InitBounds(const DataPoint& second) {
  // Algorithm 2, lines 2/29: u_i through (t1, x1-ε)->(t2, x2+ε), l_i through
  // (t1, x1+ε)->(t2, x2-ε).
  for (size_t i = 0; i < dimensions(); ++i) {
    const double eps = epsilon(i);
    const Point2 first{cur_.first.t, cur_.first.x[i]};
    const Point2 snd{second.t, second.x[i]};
    cur_.u[i] = *Line::Through(Point2{first.t, first.x - eps},
                               Point2{snd.t, snd.x + eps});
    cur_.l[i] = *Line::Through(Point2{first.t, first.x + eps},
                               Point2{snd.t, snd.x - eps});
  }
  AddToGeometry(second);
  AccumulateSums(second);
  cur_.last = second;
  cur_.n = 2;
  cur_.bounds_ready = true;
  RefreshBoundShadows();
  RecordHullSize();
}

void SlideFilter::RefreshBoundShadows() {
  for (size_t i = 0; i < dimensions(); ++i) {
    sh_ut_[i] = cur_.u[i].anchor().t;
    sh_ux_[i] = cur_.u[i].anchor().x;
    sh_us_[i] = cur_.u[i].slope();
    sh_lt_[i] = cur_.l[i].anchor().t;
    sh_lx_[i] = cur_.l[i].anchor().x;
    sh_ls_[i] = cur_.l[i].slope();
  }
}

bool SlideFilter::Violates(const DataPoint& point) {
  // One fused pass fills upd_flags_ for Accept to consume when the point
  // is kept: every dimension of a group gets the group's slide trigger. An
  // early return on violation leaves later flags stale, but the close path
  // never reads them.
  const double* x = point.x.data();
  const double* eps = options().epsilon.data();
  const double t = point.t;
  return simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    typename V::Mask violates, update;
    SlideCheckLanes<V>(x + i, eps + i, sh_ut_.data() + i, sh_ux_.data() + i,
                       sh_us_.data() + i, sh_lt_.data() + i, sh_lx_.data() + i,
                       sh_ls_.data() + i, t, &violates, &update);
    if (violates.Any()) return true;
    std::fill_n(upd_flags_.begin() + i, V::kLanes, update.Any() ? 1 : 0);
    return false;
  });
}

double SlideFilter::ExtremeCandidateSlope(size_t dim, const Point2& pivot,
                                          double vertex_offset,
                                          bool minimize) const {
  TangentResult result;
  switch (mode_) {
    case SlideHullMode::kConvexHull:
      result = ExtremeSlopeOverHull(cur_.hulls[dim], pivot, vertex_offset,
                                    minimize);
      break;
    case SlideHullMode::kChainBinary: {
      // A u-update (minimum slope) touches the upper chain; an l-update
      // (maximum slope) the lower chain. Cross-checked against the full
      // hull scan by the property tests.
      const auto chain =
          minimize ? cur_.hulls[dim].upper() : cur_.hulls[dim].lower();
      result = ExtremeSlopeOverChainBinary(chain, pivot, vertex_offset,
                                           minimize);
      break;
    }
    case SlideHullMode::kAllPoints:
      result = ExtremeSlopeOverPoints(cur_.points[dim], pivot, vertex_offset,
                                      minimize);
      break;
  }
  assert(result.found &&
         "an interval always holds an earlier point to pair with");
  return result.slope;
}

bool SlideFilter::SlideBoundsForDim(size_t i, const DataPoint& point) {
  const double eps = epsilon(i);
  const double t = point.t;
  const double x = point.x[i];
  bool slid = false;
  if (x > cur_.l[i].ValueAt(t) + eps) {
    // l_i slid up: maximum-slope line through earlier (+ε) vertices and
    // the new point's -ε image (lines 34-36).
    const Point2 pivot{t, x - eps};
    const double slope =
        ExtremeCandidateSlope(i, pivot, /*vertex_offset=*/+eps,
                              /*minimize=*/false);
    cur_.l[i] = Line(pivot, slope);
    slid = true;
  }
  if (x < cur_.u[i].ValueAt(t) - eps) {
    // u_i slid down: minimum-slope line through earlier (-ε) vertices and
    // the new point's +ε image (lines 37-39).
    const Point2 pivot{t, x + eps};
    const double slope =
        ExtremeCandidateSlope(i, pivot, /*vertex_offset=*/-eps,
                              /*minimize=*/true);
    cur_.u[i] = Line(pivot, slope);
    slid = true;
  }
  return slid;
}

void SlideFilter::Accept(const DataPoint& point) {
  // Algorithm 2, line 33: the hull is updated before the bound search, and
  // the time guard inside the search keeps the new point from pairing with
  // itself. The slide trigger comes from the flags Violates' fused pass
  // just computed (the bound lines cannot have changed in between); a
  // flagged dimension runs SlideBoundsForDim, the data-dependent scalar
  // slide, which re-tests its own triggers.
  AddToGeometry(point);
  bool slid = false;
  for (size_t i = 0; i < dimensions(); ++i) {
    if (upd_flags_[i] != 0) slid |= SlideBoundsForDim(i, point);
  }
  if (slid) RefreshBoundShadows();
  AccumulateSums(point);
  cur_.last = point;
  ++cur_.n;
  RecordHullSize();
}

void SlideFilter::RecordHullSize() {
  if (mode_ == SlideHullMode::kAllPoints) return;
  for (size_t i = 0; i < dimensions(); ++i) {
    max_hull_vertices_ = std::max(max_hull_vertices_,
                                  cur_.hulls[i].vertex_count());
  }
}

// --------------------------------------------------------------------------
// Interval close and junction resolution
// --------------------------------------------------------------------------

std::optional<Point2> SlideFilter::PinchPoint(size_t dim) const {
  const auto t = cur_.u[dim].IntersectionTime(cur_.l[dim]);
  if (!t.has_value()) return std::nullopt;
  return Point2{*t, cur_.u[dim].ValueAt(*t)};
}

double SlideFilter::ClampedLsqSlopeThrough(size_t dim, const Point2& z,
                                           double lo, double hi,
                                           double* sse) const {
  // Least squares over the interval's points for a line through z, using
  // the first-point-relative sums (numerically centered):
  //   S_tz  = Σ (t_j - z.t)^2
  //   S_xz  = Σ (x_j - z.x)(t_j - z.t)
  //   S_xxz = Σ (x_j - z.x)^2
  const double n = static_cast<double>(cur_.n);
  const double zt = z.t - cur_.first.t;
  const double zx = z.x - cur_.first.x[dim];
  const double st = cur_.st.Total();
  const double stt = cur_.stt.Total();
  const double sx = cur_.sx.Total(dim);
  const double sxt = cur_.sxt.Total(dim);
  const double sxx = cur_.sxx.Total(dim);
  const double stz = stt - 2.0 * zt * st + n * zt * zt;
  const double sxz = sxt - zx * st - zt * sx + n * zx * zt;
  const double sxxz = sxx - 2.0 * zx * sx + n * zx * zx;
  if (lo > hi) std::swap(lo, hi);  // defensive: numerical slope inversion
  double a = stz > 0.0 ? sxz / stz : 0.5 * (lo + hi);
  a = std::clamp(a, lo, hi);
  if (sse != nullptr) *sse = sxxz - 2.0 * a * sxz + a * a * stz;
  return a;
}

std::optional<SlideFilter::Window> SlideFilter::PencilFeasibleWindow(
    size_t dim, const Point2& z) const {
  // A junction at time T induces g^k through z and (T, g_prev(T)). That
  // line stays inside the current bound pencil iff its slope lies in
  // [slope(l), slope(u)], which for T < z.t is equivalent to
  //   u(T) <= g_prev(T) <= l(T)
  // (before the pinch the upper bound line runs *below* the lower bound
  // line). Both constraints are linear in T, so the feasible set is the
  // intersection of two half-lines.
  const Line& g_prev = pending_.g[dim];
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  const auto intersect_halfline = [&](const Line& bound,
                                      bool want_g_above) -> bool {
    // h(T) = g_prev(T) - bound(T); constraint: h >= 0 (want_g_above) or
    // h <= 0. h is linear with slope (g_prev.slope - bound.slope).
    const double h_slope = g_prev.slope() - bound.slope();
    const double h_at_z = g_prev.ValueAt(z.t) - bound.ValueAt(z.t);
    if (h_slope == 0.0) {
      // Constant margin: either always satisfied or never.
      return want_g_above ? h_at_z >= 0.0 : h_at_z <= 0.0;
    }
    const double root = z.t - h_at_z / h_slope;
    const bool satisfied_right_of_root = want_g_above == (h_slope > 0.0);
    if (satisfied_right_of_root) {
      lo = std::max(lo, root);
    } else {
      hi = std::min(hi, root);
    }
    return true;
  };
  if (!intersect_halfline(cur_.u[dim], /*want_g_above=*/true)) {
    return std::nullopt;
  }
  if (!intersect_halfline(cur_.l[dim], /*want_g_above=*/false)) {
    return std::nullopt;
  }
  // Stay strictly before the pinch so the induced slope is well-defined.
  hi = std::min(hi, z.t);
  if (!(lo <= hi)) return std::nullopt;
  return Window{lo, hi};
}

SlideFilter::WindowPair SlideFilter::ConnectWindows(size_t dim,
                                                    const Point2& z) const {
  // Lemma 4.4, split into the two placements of the junction time T:
  //  - gap: t_end_prev <= T <= t_first_k; no data point's coverage changes
  //    hands beyond pencil feasibility on either side ("the interval
  //    [t(k-1), tj(k-1)] does not exist" in the Lemma 4.4 proof);
  //  - tail: T <= t_end_prev; g^k takes over the previous interval's tail
  //    points, so it must stay inside the previous bound band
  //    [l_prev, u_prev] over [T, t_end_prev].
  // For the tail placement we derive the window directly instead of via
  // the paper's s/q crossing bounds (whose max(c, d) form assumes a
  // particular orientation of the crossing):
  //  (a) T >= the previous pinch time, so the previous band is a convex
  //      set over [T, t_end_prev] and containment at the two endpoints
  //      implies containment throughout;
  //  (b) at T the candidate coincides with g_prev, which lies inside the
  //      band pointwise (all three lines share the previous pinch);
  //  (c) at t_end_prev the candidate's value is
  //        g_prev(t_end_prev) + n * w(T),  n = z.x - g_prev(z.t),
  //        w(T) = (t_end_prev - T) / (z.t - T)  in [0, 1), decreasing,
  //      so the band condition at t_end_prev is a closed-form T interval.
  // Parallel-line degeneracies conservatively produce no window: a missed
  // connection costs one recording, never the ε guarantee.
  WindowPair out;
  const auto feasible = PencilFeasibleWindow(dim, z);
  if (!feasible.has_value()) return out;
  const Line& g_prev = pending_.g[dim];
  const double t_end_prev = pending_.t_end;
  const double t_first_cur = cur_.first.t;

  // --- gap placement ---
  {
    const double alpha = std::max(feasible->alpha, t_end_prev);
    const double beta = std::min(feasible->beta, t_first_cur);
    if (alpha <= beta) out.gap = Window{alpha, beta};
  }

  // --- tail placement ---
  const Line& u_prev = pending_.u[dim];
  const Line& l_prev = pending_.l[dim];
  // (a) the band is convex from the previous pinch onward.
  double band_start = -std::numeric_limits<double>::infinity();
  const auto prev_pinch = u_prev.IntersectionTime(l_prev);
  if (prev_pinch.has_value()) {
    band_start = *prev_pinch;
  } else if (u_prev.ValueAt(t_end_prev) < l_prev.ValueAt(t_end_prev)) {
    return out;  // parallel bounds in inverted order: no proper band
  }
  double alpha = std::max(feasible->alpha, band_start);
  double beta = std::min(feasible->beta, t_end_prev);
  if (!(alpha <= beta)) return out;

  // (c) band containment at t_end_prev as a constraint on w = w(T).
  const double n = z.x - g_prev.ValueAt(z.t);
  const double g_at_end = g_prev.ValueAt(t_end_prev);
  const double lo_val = l_prev.ValueAt(t_end_prev) - g_at_end;
  const double hi_val = u_prev.ValueAt(t_end_prev) - g_at_end;
  if (n != 0.0) {
    double w_lo = lo_val / n;
    double w_hi = hi_val / n;
    if (w_lo > w_hi) std::swap(w_lo, w_hi);
    w_lo = std::max(w_lo, 0.0);
    w_hi = std::min(w_hi, 1.0 - 1e-12);
    if (!(w_lo <= w_hi)) return out;
    // T(w) = (t_end_prev - w z.t) / (1 - w); w decreases as T increases.
    alpha = std::max(alpha, (t_end_prev - w_hi * z.t) / (1.0 - w_hi));
    beta = std::min(beta, (t_end_prev - w_lo * z.t) / (1.0 - w_lo));
  } else if (!(lo_val <= 0.0 && 0.0 <= hi_val)) {
    // n == 0: the candidate equals g_prev at t_end_prev for every T, so
    // the band condition degenerates to g_prev itself being inside.
    return out;
  }
  if (alpha <= beta) out.tail = Window{alpha, beta};
  return out;
}

void SlideFilter::ResolveCloseAndShift(
    const std::vector<std::optional<Point2>>& zs) {
  const size_t d = dimensions();

  // ---- Try to connect to the pending segment (Lemma 4.4). ----
  bool connected = false;
  double junction_t = 0.0;
  const bool allow_tail =
      junction_policy_ == SlideJunctionPolicy::kTailAndGap ||
      junction_policy_ == SlideJunctionPolicy::kTailOnly;
  const bool allow_gap =
      junction_policy_ == SlideJunctionPolicy::kTailAndGap ||
      junction_policy_ == SlideJunctionPolicy::kGapOnly;
  if (pending_.exists && (allow_tail || allow_gap)) {
    // Intersect the per-dimension windows across dimensions, separately
    // for the tail and gap placements; prefer the paper's tail placement.
    bool tail_ok = allow_tail, gap_ok = allow_gap;
    double tail_alpha = -std::numeric_limits<double>::infinity();
    double tail_beta = std::numeric_limits<double>::infinity();
    double gap_alpha = -std::numeric_limits<double>::infinity();
    double gap_beta = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < d && (tail_ok || gap_ok); ++i) {
      if (!zs[i].has_value()) {
        tail_ok = gap_ok = false;
        break;
      }
      const WindowPair windows = ConnectWindows(i, *zs[i]);
      if (windows.tail.has_value()) {
        tail_alpha = std::max(tail_alpha, windows.tail->alpha);
        tail_beta = std::min(tail_beta, windows.tail->beta);
      } else {
        tail_ok = false;
      }
      if (windows.gap.has_value()) {
        gap_alpha = std::max(gap_alpha, windows.gap->alpha);
        gap_beta = std::min(gap_beta, windows.gap->beta);
      } else {
        gap_ok = false;
      }
    }
    // Keep the emitted chain well-formed: the junction must fall strictly
    // after the pending segment's start, and strictly before every pinch
    // time (the junction parameterization divides by z.t - T).
    const double min_t = std::nextafter(
        pending_.start_t, std::numeric_limits<double>::infinity());
    double max_t = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < d; ++i) {
      if (zs[i].has_value()) {
        max_t = std::min(
            max_t, std::nextafter(zs[i]->t,
                                  -std::numeric_limits<double>::infinity()));
      }
    }
    tail_alpha = std::max(tail_alpha, min_t);
    tail_beta = std::min(tail_beta, max_t);
    gap_alpha = std::max(gap_alpha, min_t);
    gap_beta = std::min(gap_beta, max_t);
    tail_ok = tail_ok && tail_alpha <= tail_beta;
    gap_ok = gap_ok && gap_alpha <= gap_beta;

    const bool feasible = tail_ok || gap_ok;
    const double alpha = tail_ok ? tail_alpha : gap_alpha;
    const double beta = tail_ok ? tail_beta : gap_beta;

    if (feasible) {
      // Pin the bounds so that every feasible slope crosses g^(k-1) inside
      // [alpha, beta] (Algorithm 2, lines 11-16). The slopes induced at the
      // window's ends delimit the pinned pencil; the larger is the new
      // upper bound. The pinned lines build in member scratch vectors so a
      // junction allocates nothing once the filter is warm.
      pinned_u_.resize(d);
      pinned_l_.resize(d);
      bool pin_ok = true;
      for (size_t i = 0; i < d && pin_ok; ++i) {
        const Line& g_prev = pending_.g[i];
        const Point2& z = *zs[i];
        const double slope_a = (z.x - g_prev.ValueAt(alpha)) / (z.t - alpha);
        const double slope_b = (z.x - g_prev.ValueAt(beta)) / (z.t - beta);
        if (!std::isfinite(slope_a) || !std::isfinite(slope_b)) {
          pin_ok = false;
          break;
        }
        pinned_u_[i] = Line(z, std::max(slope_a, slope_b));
        pinned_l_[i] = Line(z, std::min(slope_a, slope_b));
      }
      if (pin_ok) {
        cur_.u = pinned_u_;  // element-wise copy into retained capacity
        cur_.l = pinned_l_;
        connected = true;
        if (d == 1) {
          // Exact path: the clamped-LSQ slope determines the junction.
          const Point2& z = *zs[0];
          const double a = ClampedLsqSlopeThrough(0, z, cur_.l[0].slope(),
                                                  cur_.u[0].slope());
          const Line g(z, a);
          const auto t_opt = g.IntersectionTime(pending_.g[0]);
          junction_t =
              t_opt.has_value() ? std::clamp(*t_opt, alpha, beta) : alpha;
        } else {
          // d > 1: one common junction time must serve every dimension;
          // search [alpha, beta] for the total-SSE minimizer.
          double best_t = alpha;
          double best_sse = std::numeric_limits<double>::infinity();
          for (int s = 0; s < kJunctionGridSamples; ++s) {
            const double w =
                static_cast<double>(s) / (kJunctionGridSamples - 1);
            const double t_cand = alpha + w * (beta - alpha);
            double total = 0.0;
            for (size_t i = 0; i < d; ++i) {
              const Point2& z = *zs[i];
              double slope =
                  (z.x - pending_.g[i].ValueAt(t_cand)) / (z.t - t_cand);
              slope = std::clamp(slope, cur_.l[i].slope(), cur_.u[i].slope());
              double sse = 0.0;
              // Evaluate the SSE of the induced slope (the clamp inside is
              // a no-op here; we only need the sse output).
              ClampedLsqSlopeThrough(i, z, slope, slope, &sse);
              total += sse;
            }
            if (total < best_sse) {
              best_sse = total;
              best_t = t_cand;
            }
          }
          junction_t = best_t;
        }
      } else {
        ++pinning_fallbacks_;
      }
    }
  }

  // ---- Emit the pending segment. ----
  if (pending_.exists) {
    Segment seg;
    seg.t_start = pending_.start_t;
    seg.x_start = pending_.start_x;
    seg.connected_to_prev = pending_.start_connected;
    if (connected) {
      seg.t_end = junction_t;
      seg.x_end.resize(d);
      for (size_t i = 0; i < d; ++i) {
        seg.x_end[i] = pending_.g[i].ValueAt(junction_t);
      }
      ++connected_junctions_;
    } else {
      seg.t_end = pending_.t_end;
      seg.x_end.resize(d);
      for (size_t i = 0; i < d; ++i) {
        seg.x_end[i] = pending_.g[i].ValueAt(pending_.t_end);
      }
    }
    Emit(std::move(seg));
  }

  // ---- The closing interval becomes the new pending segment. ----
  // Updated in place: pending_'s vectors keep their capacity and the final
  // bound vectors swap with cur_'s (which InitBounds rewrites for the next
  // interval anyway), so closing an interval allocates nothing in steady
  // state. In the connected branch each pending_.g[i] is read (for the
  // junction's start value) before it is overwritten.
  pending_.exists = true;
  pending_.n = cur_.n;
  pending_.t_end = cur_.last.t;
  pending_.g.resize(d);
  pending_.start_x.resize(d);
  if (connected) {
    pending_.start_t = junction_t;
    pending_.start_connected = true;
    for (size_t i = 0; i < d; ++i) {
      const Point2& z = *zs[i];
      const double start_x = pending_.g[i].ValueAt(junction_t);
      pending_.start_x[i] = start_x;
      const double slope = (z.x - start_x) / (z.t - junction_t);
      pending_.g[i] = Line(z, slope);
    }
  } else {
    pending_.start_t = cur_.first.t;
    pending_.start_connected = false;
    for (size_t i = 0; i < d; ++i) {
      if (zs[i].has_value()) {
        const double a = ClampedLsqSlopeThrough(
            i, *zs[i], cur_.l[i].slope(), cur_.u[i].slope());
        pending_.g[i] = Line(*zs[i], a);
      } else {
        // Parallel bounds: the feasible pencil degenerated to one slope;
        // use the mid-line.
        const double mid = 0.5 * (cur_.u[i].ValueAt(cur_.first.t) +
                                  cur_.l[i].ValueAt(cur_.first.t));
        pending_.g[i] = Line(Point2{cur_.first.t, mid}, cur_.u[i].slope());
      }
      pending_.start_x[i] = pending_.g[i].ValueAt(cur_.first.t);
    }
  }
  pending_.u.swap(cur_.u);
  pending_.l.swap(cur_.l);
  cur_.u.resize(d);  // restore shape for the next interval's InitBounds
  cur_.l.resize(d);
}

void SlideFilter::CloseCurrentInterval() {
  const size_t d = dimensions();
  zs_scratch_.resize(d);
  for (size_t i = 0; i < d; ++i) zs_scratch_[i] = PinchPoint(i);
  ResolveCloseAndShift(zs_scratch_);
  cur_.open = false;
}

void SlideFilter::FlushPendingDisconnectedEnd() {
  if (!pending_.exists) return;
  const size_t d = dimensions();
  Segment seg;
  seg.t_start = pending_.start_t;
  seg.x_start = pending_.start_x;
  seg.t_end = pending_.t_end;
  seg.x_end.resize(d);
  for (size_t i = 0; i < d; ++i) {
    seg.x_end[i] = pending_.g[i].ValueAt(pending_.t_end);
  }
  seg.connected_to_prev = pending_.start_connected;
  Emit(std::move(seg));
  pending_.exists = false;
}

// --------------------------------------------------------------------------
// Max-lag freeze (Section 4.3 referring back to Section 3.3)
// --------------------------------------------------------------------------

void SlideFilter::FreezeCurrent() {
  const size_t d = dimensions();
  zs_scratch_.resize(d);
  for (size_t i = 0; i < d; ++i) zs_scratch_[i] = PinchPoint(i);
  // Resolve exactly as if the interval closed now: emits the pending
  // segment and computes this interval's line and start point...
  ResolveCloseAndShift(zs_scratch_);
  // ...but the interval stays open in committed (linear-filter) mode, so
  // the resolution must not linger as an emittable pending segment.
  cur_.frozen = true;
  cur_.committed = pending_.g;
  cur_.start_t = pending_.start_t;
  cur_.start_x = pending_.start_x;
  cur_.start_connected = pending_.start_connected;
  pending_.exists = false;

  ProvisionalLine line;
  line.t = cur_.start_t;
  line.x = cur_.start_x;
  line.slope.resize(d);
  for (size_t i = 0; i < d; ++i) line.slope[i] = cur_.committed[i].slope();
  // A junction-connected line starts at a point the receiver already
  // knows, so only the slope is new.
  line.recording_cost = cur_.start_connected ? 1 : 2;
  EmitProvisional(std::move(line));
}

void SlideFilter::MaybeFreeze() {
  if (options().max_lag == 0 || !cur_.open || cur_.frozen) return;
  if (unreported_points() < options().max_lag) return;
  if (cur_.bounds_ready) {
    FreezeCurrent();
  } else if (pending_.exists) {
    // The open interval cannot commit yet (one point); at least bring the
    // receiver up to date on the pending segment.
    FlushPendingDisconnectedEnd();
  }
}

void SlideFilter::CloseFrozenInterval() {
  const size_t d = dimensions();
  Segment seg;
  seg.t_start = cur_.start_t;
  seg.x_start = cur_.start_x;
  seg.t_end = cur_.last.t;
  seg.x_end.resize(d);
  for (size_t i = 0; i < d; ++i) {
    seg.x_end[i] = cur_.committed[i].ValueAt(cur_.last.t);
  }
  seg.connected_to_prev = cur_.start_connected;
  Emit(std::move(seg));
  cur_.open = false;
}

// --------------------------------------------------------------------------
// Filter interface
// --------------------------------------------------------------------------

Status SlideFilter::AppendValidated(const DataPoint& point) {
  if (!cur_.open) {
    OpenInterval(point);
    return Status::OK();
  }
  if (!cur_.bounds_ready) {
    InitBounds(point);
    MaybeFreeze();
    return Status::OK();
  }
  if (cur_.frozen) {
    // Frozen mode is already a cheap linear check; it stays scalar.
    bool within = true;
    for (size_t i = 0; i < dimensions() && within; ++i) {
      within = std::abs(point.x[i] - cur_.committed[i].ValueAt(point.t)) <=
               epsilon(i);
    }
    if (within) {
      cur_.last = point;
      ++cur_.n;
      return Status::OK();
    }
    CloseFrozenInterval();
    OpenInterval(point);
    MaybeFreeze();
    return Status::OK();
  }
  if (Violates(point)) {
    CloseCurrentInterval();
    OpenInterval(point);
    MaybeFreeze();
    return Status::OK();
  }
  Accept(point);
  MaybeFreeze();
  return Status::OK();
}

Status SlideFilter::FinishImpl() {
  if (!cur_.open) return Status::OK();  // Empty stream.
  if (cur_.frozen) {
    CloseFrozenInterval();
    return Status::OK();
  }
  if (cur_.bounds_ready) {
    CloseCurrentInterval();
    FlushPendingDisconnectedEnd();
    return Status::OK();
  }
  // Trailing single-point interval: flush the pending segment, then emit
  // the point itself (Algorithm 2 never reaches this state because its
  // getNext() pairing consumes two points, but a push API can).
  FlushPendingDisconnectedEnd();
  Segment seg;
  seg.t_start = cur_.first.t;
  seg.t_end = cur_.first.t;
  seg.x_start = cur_.first.x;
  seg.x_end = cur_.first.x;
  seg.connected_to_prev = false;
  Emit(std::move(seg));
  cur_.open = false;
  return Status::OK();
}

Status SlideFilter::CutImpl() {
  // Every FinishImpl path leaves cur_.open == false and pending_.exists ==
  // false — exactly the fresh-stream state: the next point reopens via
  // OpenInterval (full reset) and the next interval close has no pending
  // segment to junction with, so it starts disconnected.
  return FinishImpl();
}

std::vector<FilterCounter> SlideFilter::Counters() const {
  return {
      {"connected_junctions", static_cast<double>(connected_junctions_)},
      {"pinning_fallbacks", static_cast<double>(pinning_fallbacks_)},
      {"max_hull_vertices", static_cast<double>(max_hull_vertices_)},
      {"unreported_points", static_cast<double>(unreported_points())},
  };
}

void RegisterSlideFilterFamily(FilterRegistry& registry) {
  (void)registry.Register(
      "slide",
      [](const FilterSpec& spec,
         SegmentSink* sink) -> Result<std::unique_ptr<Filter>> {
        PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({"hull", "junction"}));
        SlideHullMode mode = SlideHullMode::kConvexHull;
        if (const std::string* value = spec.FindParam("hull")) {
          if (*value == "convex") {
            mode = SlideHullMode::kConvexHull;
          } else if (*value == "binary") {
            mode = SlideHullMode::kChainBinary;
          } else if (*value == "allpoints") {
            mode = SlideHullMode::kAllPoints;
          } else {
            return Status::InvalidArgument(
                "slide hull must be convex|binary|allpoints, got '" + *value +
                "'");
          }
        }
        SlideJunctionPolicy junction = SlideJunctionPolicy::kTailAndGap;
        if (const std::string* value = spec.FindParam("junction")) {
          if (*value == "tail+gap") {
            junction = SlideJunctionPolicy::kTailAndGap;
          } else if (*value == "tail") {
            junction = SlideJunctionPolicy::kTailOnly;
          } else if (*value == "gap") {
            junction = SlideJunctionPolicy::kGapOnly;
          } else if (*value == "none") {
            junction = SlideJunctionPolicy::kDisabled;
          } else {
            return Status::InvalidArgument(
                "slide junction must be tail+gap|tail|gap|none, got '" +
                *value + "'");
          }
        }
        PLASTREAM_ASSIGN_OR_RETURN(
            auto filter,
            SlideFilter::Create(spec.options, mode, sink, junction));
        return std::unique_ptr<Filter>(std::move(filter));
      });
}

}  // namespace plastream
