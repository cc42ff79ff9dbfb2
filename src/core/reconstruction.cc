// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/reconstruction.h"

#include <algorithm>
#include <string>

namespace plastream {

Result<PiecewiseLinearFunction> PiecewiseLinearFunction::Make(
    std::vector<Segment> segments) {
  PLASTREAM_RETURN_NOT_OK(ValidateSegmentChain(segments));
  return PiecewiseLinearFunction(std::move(segments));
}

std::optional<size_t> PiecewiseLinearFunction::FindSegment(double t) const {
  if (segments_.empty()) return std::nullopt;
  // First segment whose end time is >= t; covers t iff its start is <= t.
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), t,
      [](const Segment& seg, double time) { return seg.t_end < time; });
  // Tested as t_start <= t, so a NaN t (lower_bound sends it to segment 0)
  // is not covered.
  if (it == segments_.end() || !(it->t_start <= t)) return std::nullopt;
  return static_cast<size_t>(it - segments_.begin());
}

Result<double> PiecewiseLinearFunction::Evaluate(double t, size_t dim) const {
  const auto idx = FindSegment(t);
  if (!idx.has_value()) {
    return Status::NotFound("no segment covers t=" + std::to_string(t));
  }
  if (dim >= dimensions()) {
    return Status::InvalidArgument("dimension " + std::to_string(dim) +
                                   " out of range");
  }
  return segments_[*idx].ValueAt(t, dim);
}

Result<DimVec> PiecewiseLinearFunction::EvaluateAll(double t) const {
  const auto idx = FindSegment(t);
  if (!idx.has_value()) {
    return Status::NotFound("no segment covers t=" + std::to_string(t));
  }
  return segments_[*idx].ValueAt(t);
}

}  // namespace plastream
