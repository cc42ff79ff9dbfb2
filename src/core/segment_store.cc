// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/segment_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace plastream {

namespace {

constexpr size_t kBlockBits = 64;

// Segment::ValueAt's arithmetic, on one dimension of the segment from
// (t0, x0) to (t1, x1).
double Interpolate(double t0, double x0, double t1, double x1, double t) {
  if (t0 == t1) return x0;
  const double w = (t - t0) / (t1 - t0);
  return x0 + w * (x1 - x0);
}

}  // namespace

static_assert(std::ranges::random_access_range<SegmentStore::SegmentView>);

SegmentStore::SegmentStore(size_t dimensions) : dimensions_(dimensions) {}

Status SegmentStore::Append(const Segment& segment) {
  if (segment.x_start.size() != dimensions_ ||
      segment.x_end.size() != dimensions_) {
    return Status::InvalidArgument("segment dimensionality mismatch");
  }
  if (!(segment.t_start <= segment.t_end)) {
    return Status::InvalidArgument("segment with t_start > t_end");
  }
  for (size_t i = 0; i < dimensions_; ++i) {
    if (!std::isfinite(segment.x_start[i]) ||
        !std::isfinite(segment.x_end[i])) {
      return Status::InvalidArgument("segment with non-finite value");
    }
  }
  const size_t k = segment_count();
  if (k > 0) {
    const Recording prev = End(k - 1);
    if (segment.t_start < prev.t) {
      return Status::OutOfOrder("segment overlaps the stored chain");
    }
    if (segment.connected_to_prev) {
      if (segment.t_start != prev.t) {
        return Status::InvalidArgument(
            "connected segment does not share the previous end time");
      }
      for (size_t i = 0; i < dimensions_; ++i) {
        if (segment.x_start[i] != prev.x[i]) {
          return Status::InvalidArgument(
              "connected segment does not share the previous end value");
        }
      }
    }
  } else if (segment.connected_to_prev) {
    return Status::InvalidArgument("first segment marked connected");
  }
  if (k % kBlockBits == 0) {
    blocks_.push_back({0, starts_.size() / (dimensions_ + 1)});
  }
  // A connected start is not stored; it reads back as the previous end.
  // The junction check compares with ==, so a -0.0 start after a +0.0 end
  // reads back as +0.0, as it does from a delta archive.
  if (!segment.connected_to_prev) {
    blocks_.back().disconnected |= uint64_t{1} << (k % kBlockBits);
    starts_.push_back(segment.t_start);
    starts_.insert(starts_.end(), segment.x_start.begin(),
                   segment.x_start.end());
  }
  t_end_.push_back(segment.t_end);
  x_end_.insert(x_end_.end(), segment.x_end.begin(), segment.x_end.end());
  return Status::OK();
}

Status SegmentStore::AppendAll(std::span<const Segment> segments) {
  for (const Segment& segment : segments) {
    PLASTREAM_RETURN_NOT_OK(Append(segment));
  }
  return Status::OK();
}

bool SegmentStore::KeepsStart(size_t k) const {
  return (blocks_[k / kBlockBits].disconnected >> (k % kBlockBits) & 1) != 0;
}

SegmentStore::Recording SegmentStore::End(size_t k) const {
  return {t_end_[k], x_end_.data() + k * dimensions_};
}

SegmentStore::Recording SegmentStore::Start(size_t k) const {
  if (!KeepsStart(k)) return End(k - 1);
  const Block& block = blocks_[k / kBlockBits];
  const uint64_t below = (uint64_t{1} << (k % kBlockBits)) - 1;
  const size_t rank = block.rank + std::popcount(block.disconnected & below);
  const double* recording = starts_.data() + rank * (dimensions_ + 1);
  return {recording[0], recording + 1};
}

Segment SegmentStore::SegmentAt(size_t k) const {
  const Recording start = Start(k);
  const Recording end = End(k);
  Segment segment;
  segment.t_start = start.t;
  segment.t_end = end.t;
  segment.x_start.resize(dimensions_);
  segment.x_end.resize(dimensions_);
  std::copy_n(start.x, dimensions_, segment.x_start.data());
  std::copy_n(end.x, dimensions_, segment.x_end.data());
  segment.connected_to_prev = !KeepsStart(k);
  return segment;
}

size_t SegmentStore::LowerBound(double t) const {
  return static_cast<size_t>(
      std::lower_bound(t_end_.begin(), t_end_.end(), t) - t_end_.begin());
}

Result<double> SegmentStore::ValueAt(double t, size_t dim) const {
  if (dim >= dimensions_) {
    return Status::InvalidArgument("dimension out of range");
  }
  const size_t idx = LowerBound(t);
  if (idx < segment_count()) {
    const Recording start = Start(idx);
    // Tested as start <= t, so a NaN t (lower_bound sends it to segment 0)
    // is not covered.
    if (start.t <= t) {
      const Recording end = End(idx);
      return Interpolate(start.t, start.x[dim], end.t, end.x[dim], t);
    }
  }
  return Status::NotFound("no segment covers t=" + std::to_string(t));
}

Result<SegmentStore::RangeAggregate> SegmentStore::Aggregate(
    double t_begin, double t_end, size_t dim) const {
  if (dim >= dimensions_) {
    return Status::InvalidArgument("dimension out of range");
  }
  if (!(t_begin <= t_end)) {
    return Status::InvalidArgument("reversed aggregate range");
  }
  RangeAggregate agg;
  bool any = false;
  for (size_t idx = LowerBound(t_begin); idx < segment_count(); ++idx) {
    const Recording start = Start(idx);
    const Recording end = End(idx);
    if (start.t > t_end) break;
    // Clip the segment to the query range.
    const double a = std::max(start.t, t_begin);
    const double b = std::min(end.t, t_end);
    if (a > b) continue;
    const double va = Interpolate(start.t, start.x[dim], end.t, end.x[dim], a);
    const double vb = Interpolate(start.t, start.x[dim], end.t, end.x[dim], b);
    if (!any) {
      agg.min = std::min(va, vb);
      agg.max = std::max(va, vb);
      any = true;
    } else {
      agg.min = std::min({agg.min, va, vb});
      agg.max = std::max({agg.max, va, vb});
    }
    // Linear pieces: extrema at clip endpoints, integral by trapezoid.
    agg.integral += 0.5 * (va + vb) * (b - a);
    agg.covered_duration += b - a;
    ++agg.segments_touched;
  }
  if (!any) {
    return Status::NotFound("aggregate range touches no segment");
  }
  agg.mean = agg.covered_duration > 0.0
                 ? agg.integral / agg.covered_duration
                 : 0.5 * (agg.min + agg.max);  // instant query on a point
  return agg;
}

std::vector<std::pair<double, double>> SegmentStore::IntervalsAbove(
    double threshold, double t_begin, double t_end, size_t dim) const {
  std::vector<std::pair<double, double>> out;
  if (dim >= dimensions_ || !(t_begin <= t_end)) return out;

  bool open = false;
  double open_start = 0.0;
  double last_covered = 0.0;
  auto close_interval = [&](double at) {
    if (open && at > open_start) out.emplace_back(open_start, at);
    open = false;
  };

  for (size_t idx = LowerBound(t_begin); idx < segment_count(); ++idx) {
    const Recording start = Start(idx);
    const Recording end = End(idx);
    if (start.t > t_end) break;
    const double a = std::max(start.t, t_begin);
    const double b = std::min(end.t, t_end);
    if (a > b) continue;
    // A coverage gap (or a disconnected jump) ends any open interval.
    if (open && a > last_covered) close_interval(last_covered);

    const double va = Interpolate(start.t, start.x[dim], end.t, end.x[dim], a);
    const double vb = Interpolate(start.t, start.x[dim], end.t, end.x[dim], b);
    const bool above_a = va > threshold;
    const bool above_b = vb > threshold;
    if (above_a != above_b && b > a) {
      // One crossing strictly inside the clipped piece.
      const double cross = a + (threshold - va) / (vb - va) * (b - a);
      if (above_a) {
        if (!open) {
          open = true;
          open_start = a;
        }
        close_interval(cross);
      } else {
        close_interval(a);  // terminates any stale state; no-op when closed
        open = true;
        open_start = cross;
      }
    } else if (above_a && above_b) {
      if (!open) {
        // Degenerate double-crossing inside one linear piece is impossible;
        // the piece is entirely above.
        open = true;
        open_start = a;
      }
    } else if (b > a) {
      // Entirely at/below threshold.
      close_interval(a);
    }
    last_covered = b;
  }
  close_interval(last_covered);
  return out;
}

}  // namespace plastream
