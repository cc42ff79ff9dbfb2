// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Slide filter (paper Section 4, Algorithm 2): piece-wise linear
// approximation with mostly disconnected segments and an L-infinity
// guarantee. The strongest compressor of the paper's four filter families.
//
// Per dimension the filter maintains the two extreme lines that can still
// represent every point of the current filtering interval within ε_i:
//  - u_i: the minimum-slope line through some (t_h, x_h-ε_i), (t_l, x_l+ε_i)
//  - l_i: the maximum-slope line through some (t_h, x_h+ε_i), (t_l, x_l-ε_i)
// (Lemma 4.1; h < l in time). A new point within the ±ε_i band around
// [l_i, u_i] is filtered out, and the bounds "slide" to honor it; only the
// convex hull vertices of the interval's points need to be scanned to find
// the new bound (Lemma 4.3). When an interval closes, Lemma 4.4 decides
// whether the new segment can *connect* to the previous one (one recording)
// or must start fresh (two recordings), and the segment's slope minimizes
// the mean squared error among all feasible lines through the pinch point
// z_i = u_i ∩ l_i.
//
// Complexity: O(m_H) time per point, where m_H is the hull vertex count —
// near-constant in practice (Figure 13).

#ifndef PLASTREAM_CORE_SLIDE_FILTER_H_
#define PLASTREAM_CORE_SLIDE_FILTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "core/filter.h"
#include "geometry/convex_hull.h"
#include "geometry/line.h"
#include "geometry/point.h"

namespace plastream {

/// Strategy for finding the replacement bound line when a point slides it.
enum class SlideHullMode {
  /// Lemma 4.3: linear scan over convex hull vertices (the paper's
  /// optimized filter; default).
  kConvexHull,
  /// Hull + O(log h) ternary search over the relevant chain (the
  /// refinement the paper cites as [6]).
  kChainBinary,
  /// Scan every point of the interval (the paper's "non-optimized slide",
  /// reproduced for Figure 13).
  kAllPoints,
};

/// Which junction placements (Lemma 4.4) the filter may use to connect
/// neighbouring segments. Exists for the junction-contribution ablation;
/// production use wants the default.
enum class SlideJunctionPolicy {
  /// Try the in-tail placement first, then the inter-interval gap
  /// (default; maximal connection rate).
  kTailAndGap,
  /// Only the placement Lemma 4.4 spells out (junction inside the
  /// previous interval).
  kTailOnly,
  /// Only junctions between the two intervals.
  kGapOnly,
  /// Never connect: every segment costs two recordings.
  kDisabled,
};

/// Mixed connected/disconnected slide filter.
class SlideFilter : public Filter {
 public:
  /// Validates options and constructs the filter. `sink` may be null.
  static Result<std::unique_ptr<SlideFilter>> Create(
      FilterOptions options, SlideHullMode mode = SlideHullMode::kConvexHull,
      SegmentSink* sink = nullptr,
      SlideJunctionPolicy junction_policy = SlideJunctionPolicy::kTailAndGap);

  /// "slide".
  std::string_view name() const override { return "slide"; }

  /// The bound-update strategy in use.
  SlideHullMode hull_mode() const { return mode_; }

  /// The junction placements in use.
  SlideJunctionPolicy junction_policy() const { return junction_policy_; }

  /// Points the transmitter has processed beyond the receiver's knowledge
  /// (spans the pending closed interval plus the open one).
  size_t unreported_points() const;

  /// Number of junctions where the Lemma 4.4 window existed but numerical
  /// pinning failed and the filter fell back to disconnected recordings.
  /// Expected to stay 0 or negligible; exposed for the invariant tests.
  size_t pinning_fallbacks() const { return pinning_fallbacks_; }

  /// Number of connected junctions emitted so far.
  size_t connected_junctions() const { return connected_junctions_; }

  /// Largest hull vertex count observed across all intervals/dimensions
  /// (the paper's m_H; near-constant per Figure 13's discussion).
  size_t max_hull_vertices() const { return max_hull_vertices_; }

  /// The accessors above as named counters, readable through a Filter*.
  std::vector<FilterCounter> Counters() const override;

 protected:
  Status AppendValidated(const DataPoint& point) override;
  Status FinishImpl() override;
  Status CutImpl() override;

 private:
  // Closed-form connect window [alpha, beta] for one dimension (Lemma 4.4),
  // or nullopt when the segments cannot be connected in that dimension.
  struct Window {
    double alpha;
    double beta;
  };
  // Per-dimension junction candidates: `tail` places the junction inside
  // the previous interval (the case Lemma 4.4 spells out), `gap` between
  // the two intervals (the case its proof dismisses as trivially safe).
  struct WindowPair {
    std::optional<Window> tail;
    std::optional<Window> gap;
  };

  // State of the open filtering interval.
  struct Interval {
    bool open = false;
    bool bounds_ready = false;  // first two points consumed
    DataPoint first;
    DataPoint last;
    size_t n = 0;
    std::vector<Line> u;
    std::vector<Line> l;
    std::vector<IncrementalHull> hulls;        // kConvexHull / kChainBinary
    std::vector<std::vector<Point2>> points;   // kAllPoints
    // Least-squares sums relative to (first.t, first.x): shared time sums
    // and per-dimension cross sums (see LsqSlopeThrough). The per-dim
    // sums are SoA (KahanVec) so the lane kernel accumulates lane groups.
    KahanSum st, stt;
    KahanVec sx, sxt, sxx;
    // Max-lag freeze state.
    bool frozen = false;
    std::vector<Line> committed;
    double start_t = 0.0;               // segment start fixed at freeze
    DimVec start_x;
    bool start_connected = false;
  };

  // A closed interval whose segment end awaits the next interval's close.
  struct Pending {
    bool exists = false;
    std::vector<Line> g;     // chosen approximation line per dimension
    std::vector<Line> u;     // final (possibly pinned) bounds
    std::vector<Line> l;
    double t_end = 0.0;      // time of the interval's last point
    double start_t = 0.0;    // segment start (junction or first point)
    DimVec start_x;
    bool start_connected = false;
    size_t n = 0;
  };

  SlideFilter(FilterOptions options, SlideHullMode mode, SegmentSink* sink,
              SlideJunctionPolicy junction_policy);

  // --- interval lifecycle -------------------------------------------------
  void OpenInterval(const DataPoint& point);
  void InitBounds(const DataPoint& second);
  void AccumulateSums(const DataPoint& point);
  void AddToGeometry(const DataPoint& point);
  // Violates makes one fused pass over the SoA bound shadows, computing
  // the violation verdict and the per-dimension slide-trigger flags
  // (upd_flags_) that Accept then consumes; a flagged dimension runs
  // SlideBoundsForDim, then the shadows are refreshed.
  bool Violates(const DataPoint& point);
  void Accept(const DataPoint& point);
  // One dimension's slide update (Algorithm 2, lines 34-39); true when a
  // bound changed.
  bool SlideBoundsForDim(size_t i, const DataPoint& point);
  // Copies cur_'s bound lines (anchor t/x, slope) into the SoA shadow
  // arrays the lane kernels load from. Must run after any bound change.
  void RefreshBoundShadows();

  // Replacement bound search dispatch (Lemmas 4.1/4.3).
  double ExtremeCandidateSlope(size_t dim, const Point2& pivot,
                               double vertex_offset, bool minimize) const;

  // --- interval close / junction (Lemma 4.4) ------------------------------
  // Pinch point z_i = u_i ∩ l_i; nullopt when the bounds are parallel.
  std::optional<Point2> PinchPoint(size_t dim) const;
  // Least-squares slope through `z` over the open interval's points,
  // clamped into [lo, hi]; also returns the sum of squared errors at the
  // chosen slope via *sse when non-null.
  double ClampedLsqSlopeThrough(size_t dim, const Point2& z, double lo,
                                double hi, double* sse = nullptr) const;
  // Times T (before the pinch) at which a line through z and
  // (T, g_prev(T)) stays within the current interval's bounds — i.e. the
  // junction times that keep g^k feasible for interval k's points.
  std::optional<Window> PencilFeasibleWindow(size_t dim,
                                             const Point2& z) const;
  // Lemma 4.4 windows for one dimension (tail and gap variants).
  WindowPair ConnectWindows(size_t dim, const Point2& z) const;
  // Resolves the junction between the pending segment and the closing
  // interval, emits the pending segment, and installs the closing interval
  // as the new pending. `zs[dim]` may be nullopt for degenerate pinches.
  void ResolveCloseAndShift(const std::vector<std::optional<Point2>>& zs);
  // Emits the pending segment ended at its own interval's last point.
  void FlushPendingDisconnectedEnd();
  // Full close path on a violation or Finish.
  void CloseCurrentInterval();
  // Max-lag freeze: emit pending, commit the open interval's line.
  void FreezeCurrent();
  void MaybeFreeze();
  // Frozen-mode close: the segment end is the committed line at last.t.
  void CloseFrozenInterval();

  void RecordHullSize();

  SlideHullMode mode_;
  SlideJunctionPolicy junction_policy_;
  Interval cur_;
  Pending pending_;
  // SoA shadows of cur_.u / cur_.l (anchor time, anchor value, slope) so
  // the lane kernels load contiguous doubles instead of gathering from
  // the array-of-Line layout. Refreshed by RefreshBoundShadows().
  std::vector<double> sh_ut_, sh_ux_, sh_us_;
  std::vector<double> sh_lt_, sh_lx_, sh_ls_;
  // Slide-trigger flags from Violates' fused pass, one per dimension (each
  // holds its lane group's trigger); valid only for the point just checked.
  std::vector<uint8_t> upd_flags_;
  // Junction scratch buffers, hoisted onto the filter so closing an
  // interval reuses their capacity instead of allocating per segment cut.
  std::vector<Line> pinned_u_;
  std::vector<Line> pinned_l_;
  std::vector<std::optional<Point2>> zs_scratch_;
  size_t pinning_fallbacks_ = 0;
  size_t connected_junctions_ = 0;
  size_t max_hull_vertices_ = 0;
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_SLIDE_FILTER_H_
