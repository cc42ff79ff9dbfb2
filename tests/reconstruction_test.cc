// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit tests for the receiver-side piece-wise linear reconstruction.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/reconstruction.h"

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

TEST(ReconstructionTest, EmptyFunction) {
  const auto fn = PiecewiseLinearFunction::Make({});
  ASSERT_TRUE(fn.ok());
  EXPECT_EQ(fn->segment_count(), 0u);
  EXPECT_FALSE(fn->Covers(0.0));
  EXPECT_EQ(fn->Evaluate(0.0, 0).status().code(), StatusCode::kNotFound);
}

TEST(ReconstructionTest, MakeRejectsInvalidChain) {
  const auto fn = PiecewiseLinearFunction::Make(
      {MakeSegment(0, 2, 0, 1), MakeSegment(1, 3, 0, 1)});
  EXPECT_EQ(fn.status().code(), StatusCode::kCorruption);
}

TEST(ReconstructionTest, EvaluateInsideSegments) {
  const auto fn = PiecewiseLinearFunction::Make(
      {MakeSegment(0, 10, 0, 10), MakeSegment(20, 30, 100, 200)});
  ASSERT_TRUE(fn.ok());
  EXPECT_DOUBLE_EQ(*fn->Evaluate(5, 0), 5.0);
  EXPECT_DOUBLE_EQ(*fn->Evaluate(25, 0), 150.0);
}

TEST(ReconstructionTest, GapIsNotCovered) {
  const auto fn = PiecewiseLinearFunction::Make(
      {MakeSegment(0, 10, 0, 10), MakeSegment(20, 30, 100, 200)});
  ASSERT_TRUE(fn.ok());
  EXPECT_FALSE(fn->Covers(15.0));
  EXPECT_EQ(fn->Evaluate(15, 0).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(fn->Covers(-1.0));
  EXPECT_FALSE(fn->Covers(31.0));
}

TEST(ReconstructionTest, NanTimeIsNotCovered) {
  const auto fn = PiecewiseLinearFunction::Make(
      {MakeSegment(0, 10, 0, 10), MakeSegment(20, 30, 100, 200)});
  ASSERT_TRUE(fn.ok());
  const double nan = std::nan("");
  EXPECT_FALSE(fn->FindSegment(nan).has_value());
  EXPECT_FALSE(fn->Covers(nan));
  const Result<double> value = fn->Evaluate(nan, 0);
  EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(value.status().message(), "no segment covers t=nan");
  EXPECT_EQ(fn->EvaluateAll(nan).status().code(), StatusCode::kNotFound);
}

TEST(ReconstructionTest, JunctionResolvesToEarlierSegmentWithSameValue) {
  const auto fn = PiecewiseLinearFunction::Make(
      {MakeSegment(0, 10, 0, 10), MakeSegment(10, 20, 10, 0, true)});
  ASSERT_TRUE(fn.ok());
  const auto idx = fn->FindSegment(10.0);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 0u);
  EXPECT_DOUBLE_EQ(*fn->Evaluate(10.0, 0), 10.0);
}

TEST(ReconstructionTest, EndpointsAreInclusive) {
  const auto fn =
      PiecewiseLinearFunction::Make({MakeSegment(2, 8, 1, 7)});
  ASSERT_TRUE(fn.ok());
  EXPECT_TRUE(fn->Covers(2.0));
  EXPECT_TRUE(fn->Covers(8.0));
  EXPECT_DOUBLE_EQ(*fn->Evaluate(2.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(*fn->Evaluate(8.0, 0), 7.0);
}

TEST(ReconstructionTest, PointSegmentCoversItsInstant) {
  const auto fn =
      PiecewiseLinearFunction::Make({MakeSegment(5, 5, 3, 3)});
  ASSERT_TRUE(fn.ok());
  EXPECT_TRUE(fn->Covers(5.0));
  EXPECT_DOUBLE_EQ(*fn->Evaluate(5.0, 0), 3.0);
  EXPECT_FALSE(fn->Covers(5.0001));
}

TEST(ReconstructionTest, EvaluateAllReturnsEveryDimension) {
  Segment seg;
  seg.t_start = 0;
  seg.t_end = 2;
  seg.x_start = {0.0, 10.0};
  seg.x_end = {2.0, 30.0};
  const auto fn = PiecewiseLinearFunction::Make({seg});
  ASSERT_TRUE(fn.ok());
  const auto values = fn->EvaluateAll(1.0);
  ASSERT_TRUE(values.ok());
  EXPECT_DOUBLE_EQ((*values)[0], 1.0);
  EXPECT_DOUBLE_EQ((*values)[1], 20.0);
}

TEST(ReconstructionTest, DimensionOutOfRange) {
  const auto fn = PiecewiseLinearFunction::Make({MakeSegment(0, 1, 0, 1)});
  ASSERT_TRUE(fn.ok());
  EXPECT_EQ(fn->Evaluate(0.5, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReconstructionTest, TimeBounds) {
  const auto fn = PiecewiseLinearFunction::Make(
      {MakeSegment(1, 4, 0, 1), MakeSegment(6, 9, 2, 3)});
  ASSERT_TRUE(fn.ok());
  EXPECT_DOUBLE_EQ(fn->t_min(), 1.0);
  EXPECT_DOUBLE_EQ(fn->t_max(), 9.0);
}

TEST(ReconstructionTest, BinarySearchOverManySegments) {
  std::vector<Segment> segments;
  for (int k = 0; k < 1000; ++k) {
    segments.push_back(
        MakeSegment(2.0 * k, 2.0 * k + 1.0, k, k));  // gaps at odd times
  }
  const auto fn = PiecewiseLinearFunction::Make(std::move(segments));
  ASSERT_TRUE(fn.ok());
  for (int k : {0, 1, 499, 998, 999}) {
    const auto idx = fn->FindSegment(2.0 * k + 0.5);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, static_cast<size_t>(k));
    EXPECT_FALSE(fn->Covers(2.0 * k + 1.5));
  }
}

}  // namespace
}  // namespace plastream
