// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/cache_filter.h"

#include <utility>

#include "common/simd.h"
#include "core/filter_registry.h"

namespace plastream {

namespace {

// Lane group of the Accepts check: true in a lane when that dimension
// rejects the point. Min and max are compare+Select in std::min/std::max's
// operand order, not native min/max, whose ±0 convention differs.
template <typename V>
typename V::Mask CacheRejectLanes(CacheValueMode mode, const double* x,
                                  const double* eps, const double* first,
                                  const double* mn, const double* mx,
                                  const double* sum, double count_plus_one) {
  const V vx = V::Load(x);
  const V veps = V::Load(eps);
  switch (mode) {
    case CacheValueMode::kFirst:
      return Abs(vx - V::Load(first)) > veps;
    case CacheValueMode::kMidrange: {
      // Representable by the midrange iff the value spread stays <= 2ε.
      const V vmn = V::Load(mn);
      const V vmx = V::Load(mx);
      const V lo = Select(vx < vmn, vx, vmn);
      const V hi = Select(vmx < vx, vx, vmx);
      return (hi - lo) > (V::Broadcast(2.0) * veps);
    }
    case CacheValueMode::kMean: {
      // The new mean must stay within ε of every point, i.e. of the
      // updated extrema.
      const V vmn = V::Load(mn);
      const V vmx = V::Load(mx);
      const V lo = Select(vx < vmn, vx, vmn);
      const V hi = Select(vmx < vx, vx, vmx);
      const V mean = (V::Load(sum) + vx) / V::Broadcast(count_plus_one);
      return ((hi - mean) > veps) | ((mean - lo) > veps);
    }
  }
  return typename V::Mask{};
}

// Lane group of Absorb: min/max/sum updates, same blend discipline.
template <typename V>
void CacheAbsorbLanes(const double* x, double* mn, double* mx, double* sum) {
  const V vx = V::Load(x);
  const V vmn = V::Load(mn);
  Select(vx < vmn, vx, vmn).Store(mn);
  const V vmx = V::Load(mx);
  Select(vmx < vx, vx, vmx).Store(mx);
  (V::Load(sum) + vx).Store(sum);
}

}  // namespace

Result<std::unique_ptr<CacheFilter>> CacheFilter::Create(FilterOptions options,
                                                         CacheValueMode mode,
                                                         SegmentSink* sink) {
  PLASTREAM_RETURN_NOT_OK(ValidateFilterOptions(options));
  return std::unique_ptr<CacheFilter>(
      new CacheFilter(std::move(options), mode, sink));
}

CacheFilter::CacheFilter(FilterOptions options, CacheValueMode mode,
                         SegmentSink* sink)
    : Filter(std::move(options), sink), mode_(mode) {}

void CacheFilter::CloseInterval() {
  DimVec value(dimensions());
  for (size_t i = 0; i < dimensions(); ++i) {
    switch (mode_) {
      case CacheValueMode::kFirst:
        value[i] = first_[i];
        break;
      case CacheValueMode::kMidrange:
        value[i] = 0.5 * (min_[i] + max_[i]);
        break;
      case CacheValueMode::kMean:
        value[i] = sum_[i] / static_cast<double>(count_);
        break;
    }
  }
  Segment seg;
  seg.t_start = t_first_;
  seg.t_end = t_last_;
  seg.x_start = value;
  seg.x_end = std::move(value);
  seg.connected_to_prev = false;
  Emit(std::move(seg));
  interval_open_ = false;
}

void CacheFilter::OpenInterval(const DataPoint& point) {
  interval_open_ = true;
  t_first_ = point.t;
  t_last_ = point.t;
  count_ = 1;
  first_ = point.x;
  min_ = point.x;
  max_ = point.x;
  sum_ = point.x;
}

bool CacheFilter::Accepts(const DataPoint& point) const {
  const double* x = point.x.data();
  const double* eps = options().epsilon.data();
  const double* first = first_.data();
  const double* mn = min_.data();
  const double* mx = max_.data();
  const double* sum = sum_.data();
  const double count_plus_one = static_cast<double>(count_ + 1);
  return !simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    return CacheRejectLanes<V>(mode_, x + i, eps + i, first + i, mn + i,
                               mx + i, sum + i, count_plus_one)
        .Any();
  });
}

void CacheFilter::Absorb(const DataPoint& point) {
  t_last_ = point.t;
  ++count_;
  const double* x = point.x.data();
  double* mn = min_.data();
  double* mx = max_.data();
  double* sum = sum_.data();
  simd::ForEachLaneGroup(dimensions(), [&]<typename V>(size_t i) {
    CacheAbsorbLanes<V>(x + i, mn + i, mx + i, sum + i);
    return false;
  });
}

Status CacheFilter::AppendValidated(const DataPoint& point) {
  if (!interval_open_) {
    OpenInterval(point);
    return Status::OK();
  }
  if (Accepts(point)) {
    Absorb(point);
    return Status::OK();
  }
  CloseInterval();
  OpenInterval(point);
  return Status::OK();
}

Status CacheFilter::FinishImpl() {
  if (interval_open_) CloseInterval();
  return Status::OK();
}

Status CacheFilter::CutImpl() {
  // CloseInterval clears interval_open_, so the next point opens a fresh
  // interval exactly like the first point of a stream.
  if (interval_open_) CloseInterval();
  return Status::OK();
}

void RegisterCacheFilterFamily(FilterRegistry& registry) {
  (void)registry.Register(
      "cache",
      [](const FilterSpec& spec,
         SegmentSink* sink) -> Result<std::unique_ptr<Filter>> {
        PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({"mode"}));
        CacheValueMode mode = CacheValueMode::kFirst;
        if (const std::string* value = spec.FindParam("mode")) {
          if (*value == "first") {
            mode = CacheValueMode::kFirst;
          } else if (*value == "midrange") {
            mode = CacheValueMode::kMidrange;
          } else if (*value == "mean") {
            mode = CacheValueMode::kMean;
          } else {
            return Status::InvalidArgument(
                "cache mode must be first|midrange|mean, got '" + *value +
                "'");
          }
        }
        PLASTREAM_ASSIGN_OR_RETURN(
            auto filter, CacheFilter::Create(spec.options, mode, sink));
        return std::unique_ptr<Filter>(std::move(filter));
      });
}

}  // namespace plastream
