// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit and property tests for SegmentStore: incremental chain validation,
// point/range queries, trapezoid integration, and threshold intervals.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/segment_store.h"
#include "core/slide_filter.h"
#include "datagen/sea_surface.h"
#include "datagen/shapes.h"
#include "eval/metrics.h"
#include "eval/runner.h"

namespace plastream {
namespace {

Segment MakeSegment(double t0, double t1, double x0, double x1,
                    bool connected = false) {
  Segment seg;
  seg.t_start = t0;
  seg.t_end = t1;
  seg.x_start = {x0};
  seg.x_end = {x1};
  seg.connected_to_prev = connected;
  return seg;
}

TEST(SegmentStoreTest, AppendValidatesIncrementally) {
  SegmentStore store(1);
  EXPECT_TRUE(store.Append(MakeSegment(0, 2, 0, 4)).ok());
  // Overlap.
  EXPECT_EQ(store.Append(MakeSegment(1, 3, 0, 1)).code(),
            StatusCode::kOutOfOrder);
  // Connected without sharing the junction.
  EXPECT_EQ(store.Append(MakeSegment(2, 4, 3.5, 0, true)).code(),
            StatusCode::kInvalidArgument);
  // Proper continuation.
  EXPECT_TRUE(store.Append(MakeSegment(2, 4, 4, 0, true)).ok());
  EXPECT_EQ(store.segment_count(), 2u);
  EXPECT_DOUBLE_EQ(store.t_min(), 0.0);
  EXPECT_DOUBLE_EQ(store.t_max(), 4.0);
}

TEST(SegmentStoreTest, RejectsBadFirstSegment) {
  SegmentStore store(1);
  EXPECT_EQ(store.Append(MakeSegment(0, 1, 0, 1, true)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Append(MakeSegment(2, 1, 0, 1)).code(),
            StatusCode::kInvalidArgument);
  Segment nan_seg = MakeSegment(0, 1, 0, 1);
  nan_seg.x_end[0] = std::nan("");
  EXPECT_EQ(store.Append(nan_seg).code(), StatusCode::kInvalidArgument);
  Segment wrong_dim = MakeSegment(0, 1, 0, 1);
  wrong_dim.x_start = {0.0, 0.0};
  wrong_dim.x_end = {1.0, 1.0};
  EXPECT_EQ(store.Append(wrong_dim).code(), StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, ValueAtMatchesReconstruction) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 20)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(15, 20, 5, 5)).ok());
  EXPECT_DOUBLE_EQ(*store.ValueAt(5, 0), 10.0);
  EXPECT_DOUBLE_EQ(*store.ValueAt(17, 0), 5.0);
  EXPECT_EQ(store.ValueAt(12, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.ValueAt(5, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, NanQueryTimeIsNotCovered) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 20)).ok());
  const Result<double> value = store.ValueAt(std::nan(""), 0);
  EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(value.status().message(), "no segment covers t=nan");
}

TEST(SegmentStoreTest, AggregateHandComputed) {
  SegmentStore store(1);
  // Ramp 0->10 over [0,10]: integral 50, mean 5, min 0, max 10.
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  const auto agg = store.Aggregate(0, 10, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->integral, 50.0);
  EXPECT_DOUBLE_EQ(agg->mean, 5.0);
  EXPECT_DOUBLE_EQ(agg->min, 0.0);
  EXPECT_DOUBLE_EQ(agg->max, 10.0);
  EXPECT_DOUBLE_EQ(agg->covered_duration, 10.0);
  EXPECT_EQ(agg->segments_touched, 1u);
}

TEST(SegmentStoreTest, AggregateClipsToRange) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  // Clip [4, 6]: values 4..6, integral 10, mean 5.
  const auto agg = store.Aggregate(4, 6, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->min, 4.0);
  EXPECT_DOUBLE_EQ(agg->max, 6.0);
  EXPECT_DOUBLE_EQ(agg->integral, 10.0);
  EXPECT_DOUBLE_EQ(agg->mean, 5.0);
}

TEST(SegmentStoreTest, AggregateSkipsGaps) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 1, 1)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(8, 10, 3, 3)).ok());
  const auto agg = store.Aggregate(0, 10, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ(agg->covered_duration, 4.0);
  EXPECT_DOUBLE_EQ(agg->integral, 2.0 * 1 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(agg->mean, 2.0);
  EXPECT_EQ(agg->segments_touched, 2u);
}

TEST(SegmentStoreTest, AggregateRangeInsideGapIsNotFound) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 1, 1)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(8, 10, 3, 3)).ok());
  // Both a window and a single instant strictly inside the gap miss.
  EXPECT_EQ(store.Aggregate(3, 7, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Aggregate(5, 5, 0).status().code(), StatusCode::kNotFound);
  // A range that merely *touches* a segment boundary does not miss.
  EXPECT_TRUE(store.Aggregate(2, 7, 0).ok());
}

TEST(SegmentStoreTest, AggregateAtJunctionInstant) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 0, 4)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(2, 4, 4, 0, true)).ok());
  // t_begin == t_end == the junction: both segments touch, the covered
  // duration is zero, and the instant-query value is the junction value.
  const auto agg = store.Aggregate(2, 2, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->segments_touched, 2u);
  EXPECT_DOUBLE_EQ(agg->covered_duration, 0.0);
  EXPECT_DOUBLE_EQ(agg->integral, 0.0);
  EXPECT_DOUBLE_EQ(agg->min, 4.0);
  EXPECT_DOUBLE_EQ(agg->max, 4.0);
  EXPECT_DOUBLE_EQ(agg->mean, 4.0);
}

TEST(SegmentStoreTest, AggregateSingleInstantInsideSegment) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  const auto agg = store.Aggregate(5, 5, 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->segments_touched, 1u);
  EXPECT_DOUBLE_EQ(agg->covered_duration, 0.0);
  EXPECT_DOUBLE_EQ(agg->min, 5.0);
  EXPECT_DOUBLE_EQ(agg->max, 5.0);
  EXPECT_DOUBLE_EQ(agg->mean, 5.0);
  // The same instant at the very edges of coverage.
  EXPECT_DOUBLE_EQ(store.Aggregate(0, 0, 0)->mean, 0.0);
  EXPECT_DOUBLE_EQ(store.Aggregate(10, 10, 0)->mean, 10.0);
}

TEST(SegmentStoreTest, AggregateErrorsOnEmptyRange) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 2, 1, 1)).ok());
  EXPECT_EQ(store.Aggregate(5, 7, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Aggregate(7, 5, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SegmentStoreTest, AggregateMatchesSineIntegral) {
  // Store a fine PLA of a sine wave and compare the trapezoid integral
  // against the closed form.
  SegmentStore store(1);
  const double period = 100.0;
  double prev_t = 0.0, prev_v = 0.0;
  for (int j = 1; j <= 400; ++j) {
    const double t = j * 0.5;
    const double v = std::sin(2 * M_PI * t / period);
    ASSERT_TRUE(store
                    .Append(MakeSegment(prev_t, t, prev_v, v,
                                        /*connected=*/j > 1))
                    .ok());
    prev_t = t;
    prev_v = v;
  }
  // Integral over two full periods is ~0; over a half period it is
  // period/pi.
  EXPECT_NEAR(store.Aggregate(0, 200, 0)->integral, 0.0, 1e-2);
  EXPECT_NEAR(store.Aggregate(0, 50, 0)->integral, period / M_PI, 2e-2);
  EXPECT_NEAR(store.Aggregate(0, 200, 0)->min, -1.0, 1e-3);
  EXPECT_NEAR(store.Aggregate(0, 200, 0)->max, 1.0, 1e-3);
}

TEST(SegmentStoreTest, IntervalsAboveSimpleCrossing) {
  SegmentStore store(1);
  // Triangle: up 0->10 over [0,10], down 10->0 over [10,20].
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 0, 10)).ok());
  ASSERT_TRUE(store.Append(MakeSegment(10, 20, 10, 0, true)).ok());
  const auto intervals = store.IntervalsAbove(5.0, 0, 20, 0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].first, 5.0);
  EXPECT_DOUBLE_EQ(intervals[0].second, 15.0);
}

TEST(SegmentStoreTest, IntervalsAboveRespectsGapsAndClipping) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 4, 8, 8)).ok());   // above
  ASSERT_TRUE(store.Append(MakeSegment(6, 10, 8, 8)).ok());  // above, after gap
  const auto intervals = store.IntervalsAbove(5.0, 1, 9, 0);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals[0].first, 1.0);
  EXPECT_DOUBLE_EQ(intervals[0].second, 4.0);
  EXPECT_DOUBLE_EQ(intervals[1].first, 6.0);
  EXPECT_DOUBLE_EQ(intervals[1].second, 9.0);
}

TEST(SegmentStoreTest, IntervalsAboveNoneWhenBelow) {
  SegmentStore store(1);
  ASSERT_TRUE(store.Append(MakeSegment(0, 10, 1, 2)).ok());
  EXPECT_TRUE(store.IntervalsAbove(5.0, 0, 10, 0).empty());
  EXPECT_TRUE(store.IntervalsAbove(5.0, 20, 30, 0).empty());
}

// Integration: filter a real-shaped signal, archive it, and check the
// error-bounded analytics contract: the aggregate of the approximation is
// within epsilon of the aggregate of the raw samples.
TEST(SegmentStoreTest, ErrorBoundedAnalyticsOverFilteredSignal) {
  const Signal signal = *GenerateSeaSurfaceTemperature({});
  const double eps = signal.Range(0) * 0.02;
  const auto run = RunFilter(FilterSpec{.family = "slide"},
                             FilterOptions::Scalar(eps), signal)
                       .value();
  SegmentStore store(1);
  ASSERT_TRUE(store.AppendAll(run.segments).ok());

  // Compare means over a mid-trace window.
  const double t0 = 2000.0, t1 = 9000.0;
  double raw_sum = 0.0;
  size_t raw_count = 0;
  double raw_min = 1e300, raw_max = -1e300;
  for (const DataPoint& p : signal.points) {
    if (p.t < t0 || p.t > t1) continue;
    raw_sum += p.x[0];
    ++raw_count;
    raw_min = std::min(raw_min, p.x[0]);
    raw_max = std::max(raw_max, p.x[0]);
  }
  ASSERT_GT(raw_count, 0u);
  const auto agg = store.Aggregate(t0, t1, 0);
  ASSERT_TRUE(agg.ok());
  // Uniform sampling makes the time-weighted mean comparable to the raw
  // sample mean; both sides are epsilon-close pointwise.
  EXPECT_NEAR(agg->mean, raw_sum / raw_count, eps + 0.05);
  EXPECT_NEAR(agg->min, raw_min, eps + 1e-9);
  EXPECT_NEAR(agg->max, raw_max, eps + 1e-9);
}

TEST(SegmentStoreTest, MultiDimensionalQueries) {
  SegmentStore store(2);
  Segment seg;
  seg.t_start = 0;
  seg.t_end = 10;
  seg.x_start = {0.0, 100.0};
  seg.x_end = {10.0, 90.0};
  ASSERT_TRUE(store.Append(seg).ok());
  EXPECT_DOUBLE_EQ(*store.ValueAt(5, 0), 5.0);
  EXPECT_DOUBLE_EQ(*store.ValueAt(5, 1), 95.0);
  EXPECT_DOUBLE_EQ(store.Aggregate(0, 10, 1)->mean, 95.0);
}

// ---------------------------------------------------------------------------
// The columns against a std::vector<Segment> oracle.
// ---------------------------------------------------------------------------

// The store's queries as a walk over a std::vector<Segment>, the layout the
// columns replaced. Every answer of the store must match it bit for bit.
class VectorOracle {
 public:
  explicit VectorOracle(const std::vector<Segment>& segments)
      : segments_(segments) {}

  Result<double> ValueAt(double t, size_t dim) const {
    const size_t idx = LowerBound(t);
    if (idx == segments_.size() || segments_[idx].t_start > t) {
      return Status::NotFound("no segment covers t=" + std::to_string(t));
    }
    return segments_[idx].ValueAt(t, dim);
  }

  Result<SegmentStore::RangeAggregate> Aggregate(double t_begin,
                                                 double t_end,
                                                 size_t dim) const {
    SegmentStore::RangeAggregate agg;
    bool any = false;
    for (size_t idx = LowerBound(t_begin); idx < segments_.size(); ++idx) {
      const Segment& seg = segments_[idx];
      if (seg.t_start > t_end) break;
      const double a = std::max(seg.t_start, t_begin);
      const double b = std::min(seg.t_end, t_end);
      if (a > b) continue;
      const double va = seg.ValueAt(a, dim);
      const double vb = seg.ValueAt(b, dim);
      if (!any) {
        agg.min = std::min(va, vb);
        agg.max = std::max(va, vb);
        any = true;
      } else {
        agg.min = std::min({agg.min, va, vb});
        agg.max = std::max({agg.max, va, vb});
      }
      agg.integral += 0.5 * (va + vb) * (b - a);
      agg.covered_duration += b - a;
      ++agg.segments_touched;
    }
    if (!any) return Status::NotFound("aggregate range touches no segment");
    agg.mean = agg.covered_duration > 0.0
                   ? agg.integral / agg.covered_duration
                   : 0.5 * (agg.min + agg.max);
    return agg;
  }

  std::vector<std::pair<double, double>> IntervalsAbove(double threshold,
                                                        double t_begin,
                                                        double t_end,
                                                        size_t dim) const {
    std::vector<std::pair<double, double>> out;
    bool open = false;
    double open_start = 0.0;
    double last_covered = 0.0;
    auto close_interval = [&](double at) {
      if (open && at > open_start) out.emplace_back(open_start, at);
      open = false;
    };
    for (size_t idx = LowerBound(t_begin); idx < segments_.size(); ++idx) {
      const Segment& seg = segments_[idx];
      if (seg.t_start > t_end) break;
      const double a = std::max(seg.t_start, t_begin);
      const double b = std::min(seg.t_end, t_end);
      if (a > b) continue;
      if (open && a > last_covered) close_interval(last_covered);
      const double va = seg.ValueAt(a, dim);
      const double vb = seg.ValueAt(b, dim);
      const bool above_a = va > threshold;
      const bool above_b = vb > threshold;
      if (above_a != above_b && b > a) {
        const double cross = a + (threshold - va) / (vb - va) * (b - a);
        if (above_a) {
          if (!open) {
            open = true;
            open_start = a;
          }
          close_interval(cross);
        } else {
          close_interval(a);
          open = true;
          open_start = cross;
        }
      } else if (above_a && above_b) {
        if (!open) {
          open = true;
          open_start = a;
        }
      } else if (b > a) {
        close_interval(a);
      }
      last_covered = b;
    }
    close_interval(last_covered);
    return out;
  }

 private:
  size_t LowerBound(double t) const {
    return static_cast<size_t>(
        std::lower_bound(segments_.begin(), segments_.end(), t,
                         [](const Segment& seg, double time) {
                           return seg.t_end < time;
                         }) -
        segments_.begin());
  }

  const std::vector<Segment>& segments_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

DimVec RandomValues(Rng& rng, size_t dims) {
  DimVec x(dims);
  for (double& v : x) v = rng.Uniform(-100.0, 100.0);
  return x;
}

// A seeded chain mixing connected segments, disconnected ones (after a gap,
// or at the previous end time with or without a jump) and point segments.
std::vector<Segment> RandomChain(Rng& rng, size_t dims, size_t count) {
  std::vector<Segment> chain;
  for (size_t k = 0; k < count; ++k) {
    Segment seg;
    const double kind = rng.NextDouble();
    seg.connected_to_prev = k > 0 && kind < 0.5;
    if (k == 0) {
      seg.t_start = rng.Uniform(-50.0, 50.0);
      seg.x_start = RandomValues(rng, dims);
    } else if (seg.connected_to_prev || kind >= 0.9) {
      // kind >= 0.9: the previous end again, yet marked disconnected.
      seg.t_start = chain.back().t_end;
      seg.x_start = chain.back().x_end;
    } else {
      seg.t_start =
          chain.back().t_end + (kind < 0.75 ? rng.Uniform(0.1, 5.0) : 0.0);
      seg.x_start = RandomValues(rng, dims);
    }
    const bool point = rng.Bernoulli(0.15);
    seg.t_end = point ? seg.t_start : seg.t_start + rng.Uniform(0.01, 10.0);
    seg.x_end = point && rng.Bernoulli(0.5) ? seg.x_start
                                            : RandomValues(rng, dims);
    chain.push_back(std::move(seg));
  }
  return chain;
}

// One invalid next segment for a store holding `chain`, with the status
// Append must answer it with.
struct Rejected {
  Segment segment;
  StatusCode code = StatusCode::kInvalidArgument;
  std::string message;
};

Rejected RandomRejected(Rng& rng, size_t dims,
                        const std::vector<Segment>& chain) {
  Rejected r;
  Segment& seg = r.segment;
  const double t = chain.empty() ? 0.0 : chain.back().t_end;
  seg.t_start = t + 1.0;
  seg.t_end = t + 2.0;
  seg.x_start = RandomValues(rng, dims);
  seg.x_end = RandomValues(rng, dims);
  const uint64_t kind = chain.empty() ? rng.UniformInt(4) : rng.UniformInt(6);
  switch (kind) {
    case 0:
      seg.x_end.push_back(0.0);
      r.message = "segment dimensionality mismatch";
      break;
    case 1:
      std::swap(seg.t_start, seg.t_end);
      r.message = "segment with t_start > t_end";
      break;
    case 2:
      seg.x_start[rng.UniformInt(dims)] = std::nan("");
      r.message = "segment with non-finite value";
      break;
    case 3:
      if (chain.empty()) {
        seg.connected_to_prev = true;
        r.message = "first segment marked connected";
      } else {
        seg.t_start = t - 0.5;
        r.code = StatusCode::kOutOfOrder;
        r.message = "segment overlaps the stored chain";
      }
      break;
    case 4:
      seg.connected_to_prev = true;
      seg.x_start = chain.back().x_end;
      r.message = "connected segment does not share the previous end time";
      break;
    default:
      seg.connected_to_prev = true;
      seg.t_start = t;
      seg.x_start = chain.back().x_end;
      seg.x_start[rng.UniformInt(dims)] += 1.0;
      r.message = "connected segment does not share the previous end value";
      break;
  }
  return r;
}

void ExpectSameValue(const Result<double>& got, const Result<double>& want) {
  ASSERT_EQ(got.status().code(), want.status().code());
  if (want.ok()) {
    EXPECT_EQ(Bits(*got), Bits(*want));
  }
}

void ExpectSameAggregate(const Result<SegmentStore::RangeAggregate>& got,
                         const Result<SegmentStore::RangeAggregate>& want) {
  ASSERT_EQ(got.status().code(), want.status().code());
  if (!want.ok()) return;
  EXPECT_EQ(Bits(got->min), Bits(want->min));
  EXPECT_EQ(Bits(got->max), Bits(want->max));
  EXPECT_EQ(Bits(got->mean), Bits(want->mean));
  EXPECT_EQ(Bits(got->integral), Bits(want->integral));
  EXPECT_EQ(Bits(got->covered_duration), Bits(want->covered_duration));
  EXPECT_EQ(got->segments_touched, want->segments_touched);
}

// Query times: segment endpoints half the time, else anywhere around the
// chain, gaps included.
double RandomTime(Rng& rng, const std::vector<Segment>& chain) {
  if (rng.Bernoulli(0.5)) {
    const Segment& seg = chain[rng.UniformInt(chain.size())];
    return rng.Bernoulli(0.5) ? seg.t_start : seg.t_end;
  }
  return rng.Uniform(chain.front().t_start - 5.0, chain.back().t_end + 5.0);
}

TEST(SegmentStoreTest, ColumnsMatchVectorOracle) {
  for (const size_t dims : {1, 3, 4, 8, 9}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("dims=" + std::to_string(dims) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed * 1000 + dims);
      // Past 128 segments, so the rank directory spans several blocks.
      const std::vector<Segment> chain =
          RandomChain(rng, dims, 130 + rng.UniformInt(300));
      SegmentStore store(dims);
      std::vector<Segment> appended;
      for (const Segment& seg : chain) {
        // Every Append is preceded by a rejected one, which must leave the
        // store as it was (block boundaries included).
        const Rejected bad = RandomRejected(rng, dims, appended);
        const Status status = store.Append(bad.segment);
        ASSERT_EQ(status.code(), bad.code);
        ASSERT_EQ(status.message(), bad.message);
        ASSERT_EQ(store.segment_count(), appended.size());
        if (!appended.empty()) {
          ASSERT_EQ(store.segments().back(), appended.back());
        }
        ASSERT_TRUE(store.Append(seg).ok());
        appended.push_back(seg);
      }

      ASSERT_EQ(store.segment_count(), chain.size());
      ASSERT_EQ(store.segments().size(), chain.size());
      for (size_t k = 0; k < chain.size(); ++k) {
        ASSERT_EQ(store.segments()[k], chain[k]) << "segment " << k;
      }
      EXPECT_EQ(store.segments().front(), chain.front());
      EXPECT_EQ(store.segments().back(), chain.back());
      EXPECT_EQ(Bits(store.t_min()), Bits(chain.front().t_start));
      EXPECT_EQ(Bits(store.t_max()), Bits(chain.back().t_end));
      // bench_e2e's idioms: iterators of two segments() calls form a range.
      EXPECT_TRUE(std::equal(store.segments().begin(), store.segments().end(),
                             chain.begin(), chain.end()));
      EXPECT_EQ(std::vector<Segment>(store.segments().begin(),
                                     store.segments().end()),
                chain);

      const VectorOracle oracle(chain);
      for (const Segment& seg : chain) {
        for (size_t dim = 0; dim < dims; ++dim) {
          ExpectSameValue(store.ValueAt(seg.t_start, dim),
                          oracle.ValueAt(seg.t_start, dim));
          ExpectSameValue(store.ValueAt(seg.t_end, dim),
                          oracle.ValueAt(seg.t_end, dim));
        }
      }
      size_t gaps = 0;
      for (int q = 0; q < 400; ++q) {
        const double t = RandomTime(rng, chain);
        const size_t dim = rng.UniformInt(dims);
        const Result<double> want = oracle.ValueAt(t, dim);
        gaps += want.ok() ? 0 : 1;
        ExpectSameValue(store.ValueAt(t, dim), want);
      }
      EXPECT_GT(gaps, 0u);
      for (int q = 0; q < 200; ++q) {
        double a = RandomTime(rng, chain);
        double b = RandomTime(rng, chain);
        if (a > b) std::swap(a, b);
        const size_t dim = rng.UniformInt(dims);
        ExpectSameAggregate(store.Aggregate(a, b, dim),
                            oracle.Aggregate(a, b, dim));
        const double threshold = rng.Uniform(-100.0, 100.0);
        EXPECT_EQ(store.IntervalsAbove(threshold, a, b, dim),
                  oracle.IntervalsAbove(threshold, a, b, dim));
      }
    }
  }
}

}  // namespace
}  // namespace plastream
