// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Cross-validation tests: independent recomputation of internal results
// that the filters produce incrementally.
//
//  - Swing's recording slope (Eq. 5-6) against a brute-force clamped
//    least-squares solve over the interval's raw points.
//  - SegmentStore point queries against PiecewiseLinearFunction.
//  - Wire transport round trip over randomly generated segment chains
//    (independent of any filter).
//  - CSV round trips over random dimensionalities.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/reconstruction.h"
#include "core/segment_sink.h"
#include "core/segment_store.h"
#include "core/swing_filter.h"
#include "geometry/point.h"
#include "io/csv.h"
#include "stream/channel.h"
#include "stream/receiver.h"
#include "stream/transmitter.h"

namespace plastream {
namespace {

// ---------------------------------------------------------------------------
// Swing recording = clamped least squares (Eq. 5-6)
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, SwingRecordingMatchesBruteForceLsq) {
  Rng rng(901);
  const double eps = 0.7;
  Signal signal;
  double v = 0.0;
  for (int j = 0; j < 3000; ++j) {
    v += rng.Uniform(-1.0, 1.1);
    signal.points.push_back(DataPoint::Scalar(j, v));
  }
  auto filter = SwingFilter::Create(FilterOptions::Scalar(eps)).value();
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(filter->Append(p).ok());
  }
  ASSERT_TRUE(filter->Finish().ok());
  const auto segments = filter->TakeSegments();
  ASSERT_GT(segments.size(), 5u);

  size_t next = 1;  // the first data point is the first pivot
  for (size_t k = 0; k < segments.size(); ++k) {
    const double t0 = segments[k].t_start;
    const double x0 = segments[k].x_start[0];
    // Gather interval points and recompute slope bounds and LSQ directly.
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    double s1 = 0.0, s2 = 0.0;
    size_t count = 0;
    while (next < signal.size() &&
           signal.points[next].t <= segments[k].t_end) {
      const DataPoint& p = signal.points[next];
      const double dt = p.t - t0;
      lo = std::max(lo, (p.x[0] - eps - x0) / dt);
      hi = std::min(hi, (p.x[0] + eps - x0) / dt);
      s1 += (p.x[0] - x0) * dt;
      s2 += dt * dt;
      ++next;
      ++count;
    }
    ASSERT_GT(count, 0u) << "segment " << k;
    const double expected_slope = std::clamp(s1 / s2, lo, hi);
    const double actual_slope =
        (segments[k].x_end[0] - x0) / (segments[k].t_end - t0);
    EXPECT_NEAR(actual_slope, expected_slope, 1e-9) << "segment " << k;
  }
}

// The clamped-LSQ recording minimizes the interval's SSE among feasible
// slopes: perturbing the slope within bounds never reduces the error.
TEST(CrossValidationTest, SwingRecordingIsSseOptimalAmongFeasibleSlopes) {
  Rng rng(902);
  const double eps = 1.2;
  Signal signal;
  double v = 0.0;
  for (int j = 0; j < 800; ++j) {
    v += rng.Uniform(-1.0, 1.4);
    signal.points.push_back(DataPoint::Scalar(j, v));
  }
  auto filter = SwingFilter::Create(FilterOptions::Scalar(eps)).value();
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(filter->Append(p).ok());
  }
  ASSERT_TRUE(filter->Finish().ok());
  const auto segments = filter->TakeSegments();

  size_t next = 1;
  for (const Segment& seg : segments) {
    std::vector<Point2> interval;
    while (next < signal.size() && signal.points[next].t <= seg.t_end) {
      interval.push_back({signal.points[next].t, signal.points[next].x[0]});
      ++next;
    }
    if (interval.size() < 3) continue;
    const double t0 = seg.t_start;
    const double x0 = seg.x_start[0];
    const double chosen = (seg.x_end[0] - x0) / (seg.t_end - t0);
    auto sse = [&](double slope) {
      double total = 0.0;
      for (const Point2& p : interval) {
        const double r = p.x - (x0 + slope * (p.t - t0));
        total += r * r;
      }
      return total;
    };
    const double base = sse(chosen);
    // Any feasible perturbation (still within eps of every point) must
    // not improve the SSE.
    for (const double delta : {-1e-3, 1e-3, -1e-2, 1e-2}) {
      const double candidate = chosen + delta;
      bool feasible = true;
      for (const Point2& p : interval) {
        if (std::abs(p.x - (x0 + candidate * (p.t - t0))) > eps) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        EXPECT_GE(sse(candidate) + 1e-9, base);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SegmentStore vs PiecewiseLinearFunction
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, StoreAndReconstructionAgreeEverywhere) {
  Rng rng(903);
  std::vector<Segment> chain;
  double t = 0.0;
  double last_end = 0.0;
  for (int k = 0; k < 50; ++k) {
    Segment seg;
    const bool connect = k > 0 && rng.Bernoulli(0.5);
    seg.t_start = connect ? t : t + rng.Uniform(0.1, 2.0);
    seg.t_end = seg.t_start + rng.Uniform(0.5, 5.0);
    seg.x_start = {connect ? last_end : rng.Uniform(-10.0, 10.0)};
    seg.x_end = {rng.Uniform(-10.0, 10.0)};
    seg.connected_to_prev = connect;
    t = seg.t_end;
    last_end = seg.x_end[0];
    chain.push_back(seg);
  }
  const auto fn = PiecewiseLinearFunction::Make(chain);
  ASSERT_TRUE(fn.ok());
  SegmentStore store(1);
  ASSERT_TRUE(store.AppendAll(chain).ok());

  Rng probe(904);
  for (int i = 0; i < 2000; ++i) {
    const double q = probe.Uniform(-1.0, t + 1.0);
    const auto from_fn = fn->Evaluate(q, 0);
    const auto from_store = store.ValueAt(q, 0);
    ASSERT_EQ(from_fn.ok(), from_store.ok()) << "t=" << q;
    if (from_fn.ok()) {
      EXPECT_DOUBLE_EQ(*from_fn, *from_store) << "t=" << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire transport over random chains
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, WireRoundTripOverRandomChains) {
  Rng rng(905);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t d = 1 + rng.UniformInt(4);
    std::vector<Segment> chain;
    double t = 0.0;
    std::vector<double> last_end(d, 0.0);
    const int n = 1 + static_cast<int>(rng.UniformInt(40));
    for (int k = 0; k < n; ++k) {
      Segment seg;
      const bool connect = k > 0 && rng.Bernoulli(0.4);
      seg.t_start = connect ? t : t + rng.Uniform(0.1, 1.0);
      const bool point_seg = !connect && rng.Bernoulli(0.1);
      seg.t_end = point_seg ? seg.t_start : seg.t_start + rng.Uniform(0.5, 3.0);
      seg.x_start.resize(d);
      seg.x_end.resize(d);
      for (size_t i = 0; i < d; ++i) {
        seg.x_start[i] = connect ? last_end[i] : rng.Uniform(-5.0, 5.0);
        seg.x_end[i] = point_seg ? seg.x_start[i] : rng.Uniform(-5.0, 5.0);
        last_end[i] = seg.x_end[i];
      }
      seg.connected_to_prev = connect;
      t = seg.t_end;
      chain.push_back(seg);
    }
    ASSERT_TRUE(ValidateSegmentChain(chain).ok()) << "trial " << trial;

    Channel channel;
    Transmitter tx(&channel);
    for (const Segment& seg : chain) tx.OnSegment(seg);
    CollectingSink received;
    Receiver rx(&received);
    ASSERT_TRUE(rx.Poll(&channel).ok());
    ASSERT_TRUE(rx.FinishStream().ok());
    const std::vector<Segment>& got = received.segments();
    ASSERT_EQ(got.size(), chain.size()) << "trial " << trial;
    for (size_t k = 0; k < chain.size(); ++k) {
      EXPECT_EQ(got[k].t_start, chain[k].t_start);
      EXPECT_EQ(got[k].t_end, chain[k].t_end);
      EXPECT_EQ(got[k].x_start, chain[k].x_start);
      EXPECT_EQ(got[k].x_end, chain[k].x_end);
      EXPECT_EQ(got[k].connected_to_prev, chain[k].connected_to_prev);
    }
    EXPECT_EQ(tx.records_sent(),
              CountRecordings(chain, RecordingCostModel::kPiecewiseLinear));
  }
}

// ---------------------------------------------------------------------------
// CSV round trips over random dimensionalities
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, CsvRoundTripRandomSignals) {
  Rng rng(906);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t d = 1 + rng.UniformInt(6);
    Signal signal;
    double t = rng.Uniform(-100.0, 100.0);
    const int n = 1 + static_cast<int>(rng.UniformInt(300));
    for (int j = 0; j < n; ++j) {
      t += rng.Uniform(0.001, 10.0);
      std::vector<double> x(d);
      for (double& value : x) value = rng.Uniform(-1e6, 1e6);
      signal.points.emplace_back(t, std::move(x));
    }
    std::stringstream buffer;
    ASSERT_TRUE(WriteSignalCsv(buffer, signal).ok()) << "trial " << trial;
    const auto restored = ReadSignalCsv(buffer);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ASSERT_EQ(restored->size(), signal.size());
    for (size_t j = 0; j < signal.size(); ++j) {
      EXPECT_EQ(restored->points[j], signal.points[j]);
    }
  }
}

}  // namespace
}  // namespace plastream
