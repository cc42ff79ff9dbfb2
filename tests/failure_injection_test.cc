// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Failure-injection suite: malformed inputs, degenerate configurations and
// corrupted transport must surface Status errors (never UB, never a silent
// wrong answer), and filters must stay usable after rejected inputs.

#include <cctype>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/cache_filter.h"
#include "core/linear_filter.h"
#include "core/slide_filter.h"
#include "core/swab.h"
#include "core/swing_filter.h"
#include "eval/runner.h"
#include "stream/channel.h"
#include "stream/codec.h"
#include "stream/receiver.h"

namespace plastream {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds `spec` with its options replaced by `options`.
Result<std::unique_ptr<Filter>> MakeWith(FilterSpec spec,
                                         FilterOptions options) {
  spec.options = std::move(options);
  return MakeFilter(spec);
}

class AllFiltersFailureTest : public ::testing::TestWithParam<FilterSpec> {};

TEST_P(AllFiltersFailureTest, RejectsNaNValue) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  EXPECT_EQ(filter->Append(DataPoint::Scalar(0, kNaN)).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(AllFiltersFailureTest, RejectsInfiniteValue) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  EXPECT_EQ(filter->Append(DataPoint::Scalar(0, kInf)).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(AllFiltersFailureTest, RejectsNaNTimestamp) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  EXPECT_EQ(filter->Append(DataPoint(kNaN, {0.0})).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(AllFiltersFailureTest, RejectsDimensionMismatch) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  EXPECT_EQ(filter->Append(DataPoint(0, {1.0, 2.0})).code(),
            StatusCode::kInvalidArgument);
  auto filter2 =
      MakeWith(GetParam(), FilterOptions::Uniform(2, 1.0)).value();
  EXPECT_EQ(filter2->Append(DataPoint::Scalar(0, 1.0)).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(AllFiltersFailureTest, RejectsNonIncreasingTime) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(10, 0)).ok());
  EXPECT_EQ(filter->Append(DataPoint::Scalar(10, 0)).code(),
            StatusCode::kOutOfOrder);
  EXPECT_EQ(filter->Append(DataPoint::Scalar(9, 0)).code(),
            StatusCode::kOutOfOrder);
}

TEST_P(AllFiltersFailureTest, RecoversAfterRejectedPoint) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(0, 0)).ok());
  ASSERT_FALSE(filter->Append(DataPoint::Scalar(1, kNaN)).ok());
  ASSERT_FALSE(filter->Append(DataPoint::Scalar(0, 1)).ok());
  // A valid continuation still works and produces a sane chain.
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(1, 0.5)).ok());
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(2, 1.0)).ok());
  ASSERT_TRUE(filter->Finish().ok());
  EXPECT_TRUE(ValidateSegmentChain(filter->TakeSegments()).ok());
}

TEST_P(AllFiltersFailureTest, AppendAfterFinishFails) {
  auto filter = MakeWith(GetParam(), FilterOptions::Scalar(1.0)).value();
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(0, 0)).ok());
  ASSERT_TRUE(filter->Finish().ok());
  EXPECT_EQ(filter->Append(DataPoint::Scalar(1, 0)).code(),
            StatusCode::kFailedPrecondition);
  // Finish is idempotent.
  EXPECT_TRUE(filter->Finish().ok());
}

TEST_P(AllFiltersFailureTest, RejectsInvalidOptions) {
  FilterOptions empty;
  EXPECT_EQ(MakeWith(GetParam(), empty).status().code(),
            StatusCode::kInvalidArgument);
  FilterOptions negative;
  negative.epsilon = {1.0, -0.5};
  EXPECT_EQ(MakeWith(GetParam(), negative).status().code(),
            StatusCode::kInvalidArgument);
  FilterOptions nan_eps;
  nan_eps.epsilon = {kNaN};
  EXPECT_EQ(MakeWith(GetParam(), nan_eps).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(AllFiltersFailureTest, RejectsUnknownParam) {
  FilterSpec spec = GetParam();
  spec.options = FilterOptions::Scalar(1.0);
  spec.params["no_such_knob"] = "1";
  EXPECT_EQ(MakeFilter(spec).status().code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    EveryVariant, AllFiltersFailureTest,
    ::testing::ValuesIn(AllFilterVariants()),
    [](const ::testing::TestParamInfo<FilterSpec>& info) {
      std::string name = info.param.Label();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SwabFailureTest, MirrorsFilterValidation) {
  SwabOptions options;
  options.base = FilterOptions::Scalar(1.0);
  options.buffer_capacity = 1;
  EXPECT_EQ(SwabSegmenter::Create(options).status().code(),
            StatusCode::kInvalidArgument);
  options.buffer_capacity = 8;
  auto swab = SwabSegmenter::Create(options).value();
  EXPECT_EQ(swab->Append(DataPoint::Scalar(0, kNaN)).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(swab->Append(DataPoint::Scalar(0, 1.0)).ok());
  EXPECT_EQ(swab->Append(DataPoint::Scalar(0, 1.0)).code(),
            StatusCode::kOutOfOrder);
  ASSERT_TRUE(swab->Finish().ok());
  EXPECT_EQ(swab->Append(DataPoint::Scalar(1, 1.0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TransportFailureTest, EveryByteFlipIsDetected) {
  WireRecord record;
  record.type = WireRecordType::kProvisionalLine;
  record.t = 3.25;
  record.x = {1.0, 2.0};
  record.slope = {0.5, -0.5};
  const auto frame = EncodeWireRecord(record);
  for (size_t offset = 0; offset < frame.size(); ++offset) {
    for (const uint8_t mask : {0x01, 0x80}) {
      auto corrupted = frame;
      corrupted[offset] ^= mask;
      EXPECT_FALSE(DecodeWireRecord(corrupted).ok())
          << "offset " << offset << " mask " << int(mask);
    }
  }
}

TEST(TransportFailureTest, ReceiverStopsAtCorruptFrameButKeepsState) {
  Channel channel;
  WireRecord start;
  start.type = WireRecordType::kSegmentBreak;
  start.t = 0.0;
  start.x = {1.0};
  WireRecord end = start;
  end.type = WireRecordType::kSegmentPoint;
  end.t = 1.0;
  channel.Push(EncodeWireRecord(start));
  channel.Push(EncodeWireRecord(end));
  channel.CorruptLastFrame(3);
  CollectingSink received;
  Receiver rx(&received);
  EXPECT_EQ(rx.Poll(&channel).code(), StatusCode::kCorruption);
  // The first (valid) record was applied before the corruption; the
  // segment it starts was never completed, so nothing was emitted.
  EXPECT_EQ(rx.records_received(), 1u);
  EXPECT_TRUE(received.segments().empty());
}

TEST(EdgeCaseTest, HugeTimestampsStayStable) {
  // Epoch-nanosecond-like magnitudes: anchored line representation must
  // not lose the ε guarantee to cancellation.
  const double t0 = 1.7e18;
  auto filter = SlideFilter::Create(FilterOptions::Scalar(0.5)).value();
  Signal signal;
  for (int j = 0; j < 500; ++j) {
    signal.points.push_back(
        DataPoint::Scalar(t0 + j * 1e6, std::sin(j * 0.1) * 10.0));
  }
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(filter->Append(p).ok());
  }
  ASSERT_TRUE(filter->Finish().ok());
  const auto segments = filter->TakeSegments();
  EXPECT_TRUE(ValidateSegmentChain(segments).ok());
}

TEST(EdgeCaseTest, TinyEpsilonOnNoisyData) {
  auto filter = SlideFilter::Create(FilterOptions::Scalar(1e-12)).value();
  for (int j = 0; j < 100; ++j) {
    ASSERT_TRUE(
        filter->Append(DataPoint::Scalar(j, std::sin(j * 1.7))).ok());
  }
  ASSERT_TRUE(filter->Finish().ok());
  const auto segments = filter->TakeSegments();
  EXPECT_TRUE(ValidateSegmentChain(segments).ok());
  // Essentially every pair becomes its own segment.
  EXPECT_GT(segments.size(), 30u);
}

TEST(EdgeCaseTest, IdenticalValuesForever) {
  for (const FilterSpec& spec : AllFilterVariants()) {
    auto filter = MakeWith(spec, FilterOptions::Scalar(0.0)).value();
    for (int j = 0; j < 1000; ++j) {
      ASSERT_TRUE(filter->Append(DataPoint::Scalar(j, 42.0)).ok());
    }
    ASSERT_TRUE(filter->Finish().ok());
    const auto segments = filter->TakeSegments();
    EXPECT_EQ(segments.size(), 1u) << spec.Label();
  }
}

}  // namespace
}  // namespace plastream
