// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit and integration tests for the stream transport: codec, channel,
// transmitter and receiver, including full filter -> wire -> reconstruction
// round trips.

#include <vector>

#include <gtest/gtest.h>

#include "core/reconstruction.h"
#include "core/segment_sink.h"
#include "core/slide_filter.h"
#include "core/swing_filter.h"
#include "datagen/random_walk.h"
#include "eval/metrics.h"
#include "stream/channel.h"
#include "stream/codec.h"
#include "stream/receiver.h"
#include "stream/transmitter.h"
#include "stream/wire_codec.h"

namespace plastream {
namespace {

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(CodecTest, RoundTripSegmentPoint) {
  WireRecord record;
  record.type = WireRecordType::kSegmentPoint;
  record.t = 123.456;
  record.x = {1.0, -2.0, 3.5};
  const auto frame = EncodeWireRecord(record);
  EXPECT_EQ(frame.size(),
            EncodedWireRecordSize(record.type, record.x.size()));
  const auto decoded = DecodeWireRecord(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

TEST(CodecTest, RoundTripProvisionalLineWithSlopes) {
  WireRecord record;
  record.type = WireRecordType::kProvisionalLine;
  record.t = -7.0;
  record.x = {0.5};
  record.slope = {2.25};
  const auto frame = EncodeWireRecord(record);
  const auto decoded = DecodeWireRecord(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, record);
}

TEST(CodecTest, DetectsFlippedBit) {
  WireRecord record;
  record.type = WireRecordType::kSegmentBreak;
  record.t = 1.0;
  record.x = {2.0};
  auto frame = EncodeWireRecord(record);
  for (size_t offset = 0; offset < frame.size(); ++offset) {
    auto corrupted = frame;
    corrupted[offset] ^= 0x40;
    const auto decoded = DecodeWireRecord(corrupted);
    EXPECT_FALSE(decoded.ok()) << "offset " << offset;
  }
}

TEST(CodecTest, RejectsTruncatedFrame) {
  WireRecord record;
  record.type = WireRecordType::kSegmentPoint;
  record.t = 1.0;
  record.x = {2.0};
  auto frame = EncodeWireRecord(record);
  frame.pop_back();
  EXPECT_EQ(DecodeWireRecord(frame).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeWireRecord(std::vector<uint8_t>{}).status().code(),
            StatusCode::kCorruption);
}

TEST(CodecTest, RejectsUnknownType) {
  WireRecord record;
  record.type = WireRecordType::kSegmentPoint;
  record.t = 1.0;
  record.x = {2.0};
  auto frame = EncodeWireRecord(record);
  frame[0] = 9;  // invalid tag
  EXPECT_EQ(DecodeWireRecord(frame).status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST(ChannelTest, FifoOrderAndAccounting) {
  Channel channel;
  channel.Push({1, 2, 3});
  channel.Push({4, 5});
  EXPECT_EQ(channel.queued(), 2u);
  EXPECT_EQ(channel.frames_sent(), 2u);
  EXPECT_EQ(channel.bytes_sent(), 5u);
  EXPECT_EQ(channel.Pop()->size(), 3u);
  EXPECT_EQ(channel.Pop()->size(), 2u);
  EXPECT_FALSE(channel.Pop().has_value());
  // Statistics survive draining.
  EXPECT_EQ(channel.bytes_sent(), 5u);
}

TEST(ChannelTest, CorruptLastFrame) {
  Channel channel;
  EXPECT_FALSE(channel.CorruptLastFrame(0));
  channel.Push({0x00, 0x01});
  EXPECT_FALSE(channel.CorruptLastFrame(5));
  EXPECT_TRUE(channel.CorruptLastFrame(0, 0xFF));
  EXPECT_EQ((*channel.Pop())[0], 0xFF);
}

TEST(ChannelTest, CorruptFrameTargetsAnyQueuedFrame) {
  Channel channel;
  EXPECT_FALSE(channel.CorruptFrame(0, 0));
  channel.Push({0x10, 0x11});
  channel.Push({0x20, 0x21});
  channel.Push({0x30, 0x31});
  // Out-of-range index or offset: untouched, reported.
  EXPECT_FALSE(channel.CorruptFrame(3, 0));
  EXPECT_FALSE(channel.CorruptFrame(1, 2));
  // Index 0 is the oldest queued frame; masks XOR into the byte.
  EXPECT_TRUE(channel.CorruptFrame(0, 1, 0x0F));
  EXPECT_TRUE(channel.CorruptFrame(1, 0));  // default mask 0xFF
  EXPECT_EQ(*channel.Pop(), (std::vector<uint8_t>{0x10, 0x1E}));
  EXPECT_EQ(*channel.Pop(), (std::vector<uint8_t>{0xDF, 0x21}));
  EXPECT_EQ(*channel.Pop(), (std::vector<uint8_t>{0x30, 0x31}));
  // After draining, indices are gone.
  EXPECT_FALSE(channel.CorruptFrame(0, 0));
}

// ---------------------------------------------------------------------------
// Transmitter -> Receiver round trips
// ---------------------------------------------------------------------------

Signal MakeWalk(size_t n, uint64_t seed) {
  RandomWalkOptions o;
  o.count = n;
  o.max_delta = 2.0;
  o.seed = seed;
  return *GenerateRandomWalk(o);
}

TEST(StreamRoundTripTest, SlideFilterSegmentsSurviveTheWire) {
  const Signal signal = MakeWalk(3000, 21);
  Channel channel;
  Transmitter tx(&channel);
  auto filter = SlideFilter::Create(FilterOptions::Scalar(0.75),
                                    SlideHullMode::kConvexHull, &tx)
                    .value();
  CollectingSink received;
  Receiver rx(&received);
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(filter->Append(p).ok());
    ASSERT_TRUE(rx.Poll(&channel).ok());  // interleaved polling
  }
  ASSERT_TRUE(filter->Finish().ok());
  ASSERT_TRUE(rx.Poll(&channel).ok());
  ASSERT_TRUE(rx.FinishStream().ok());

  // A sinked filter hands everything to its sink; a sink-less shadow run
  // over the same signal yields the reference segments (deterministic).
  auto shadow = SlideFilter::Create(FilterOptions::Scalar(0.75),
                                    SlideHullMode::kConvexHull)
                    .value();
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(shadow->Append(p).ok());
  }
  ASSERT_TRUE(shadow->Finish().ok());
  const auto local = shadow->TakeSegments();
  const std::vector<Segment>& got = received.segments();
  ASSERT_EQ(got.size(), local.size());
  for (size_t k = 0; k < local.size(); ++k) {
    EXPECT_EQ(got[k].connected_to_prev, local[k].connected_to_prev);
    EXPECT_DOUBLE_EQ(got[k].t_start, local[k].t_start);
    EXPECT_DOUBLE_EQ(got[k].t_end, local[k].t_end);
    EXPECT_DOUBLE_EQ(got[k].x_start[0], local[k].x_start[0]);
    EXPECT_DOUBLE_EQ(got[k].x_end[0], local[k].x_end[0]);
  }
  // Wire records match the recording-count accounting exactly.
  EXPECT_EQ(tx.records_sent(),
            CountRecordings(local, RecordingCostModel::kPiecewiseLinear));
  EXPECT_EQ(rx.records_received(), tx.records_sent());
}

TEST(StreamRoundTripTest, ReceiverReconstructionHonorsPrecision) {
  const Signal signal = MakeWalk(2000, 22);
  const double eps = 0.5;
  Channel channel;
  Transmitter tx(&channel);
  auto filter =
      SwingFilter::Create(FilterOptions::Scalar(eps), &tx).value();
  for (const DataPoint& p : signal.points) ASSERT_TRUE(filter->Append(p).ok());
  ASSERT_TRUE(filter->Finish().ok());
  CollectingSink received;
  Receiver rx(&received);
  ASSERT_TRUE(rx.Poll(&channel).ok());
  ASSERT_TRUE(rx.FinishStream().ok());
  const auto approx = PiecewiseLinearFunction::Make(received.segments());
  ASSERT_TRUE(approx.ok());
  const std::vector<double> epsilon{eps};
  EXPECT_TRUE(VerifyPrecision(signal, *approx, epsilon).ok());
}

TEST(StreamRoundTripTest, PointSegmentSurvivesTheWire) {
  Channel channel;
  Transmitter tx(&channel);
  auto filter =
      SlideFilter::Create(FilterOptions::Scalar(1.0),
                          SlideHullMode::kConvexHull, &tx)
          .value();
  ASSERT_TRUE(filter->Append(DataPoint::Scalar(5, 9)).ok());
  ASSERT_TRUE(filter->Finish().ok());
  CollectingSink received;
  Receiver rx(&received);
  ASSERT_TRUE(rx.Poll(&channel).ok());
  // The lone break is pending until end-of-stream materializes it.
  EXPECT_TRUE(received.segments().empty());
  ASSERT_TRUE(rx.FinishStream().ok());
  ASSERT_EQ(received.segments().size(), 1u);
  EXPECT_TRUE(received.segments()[0].IsPoint());
  EXPECT_DOUBLE_EQ(received.segments()[0].x_start[0], 9.0);
}

TEST(StreamRoundTripTest, BorrowedCodecDrivesTransmitterAndReceiver) {
  // The non-default transport wiring: one codec instance, borrowed by both
  // ends of the stream (encode and decode state are independent).
  const Signal signal = MakeWalk(2500, 27);
  Channel channel;
  auto codec = MakeWireCodec("batch(n=16)").value();
  Transmitter tx(&channel, codec.get());
  CollectingSink received;
  Receiver rx(&received, codec.get());
  auto filter = SlideFilter::Create(FilterOptions::Scalar(0.6),
                                    SlideHullMode::kConvexHull, &tx)
                    .value();
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(filter->Append(p).ok());
    ASSERT_TRUE(rx.Poll(&channel).ok());  // interleaved polling
  }
  ASSERT_TRUE(filter->Finish().ok());
  ASSERT_TRUE(tx.Flush().ok());  // emit the partial batch
  ASSERT_TRUE(rx.Poll(&channel).ok());
  ASSERT_TRUE(rx.FinishStream().ok());
  EXPECT_EQ(rx.records_received(), tx.records_sent());
  auto shadow = SlideFilter::Create(FilterOptions::Scalar(0.6),
                                    SlideHullMode::kConvexHull)
                    .value();
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(shadow->Append(p).ok());
  }
  ASSERT_TRUE(shadow->Finish().ok());
  EXPECT_EQ(received.segments(), shadow->TakeSegments());
  EXPECT_TRUE(tx.status().ok());
}

TEST(StreamRoundTripTest, ReceiverDetectsCorruptedFrame) {
  Channel channel;
  Transmitter tx(&channel);
  auto filter =
      SwingFilter::Create(FilterOptions::Scalar(0.1), &tx).value();
  const Signal signal = MakeWalk(200, 23);
  for (const DataPoint& p : signal.points) ASSERT_TRUE(filter->Append(p).ok());
  ASSERT_TRUE(filter->Finish().ok());
  ASSERT_GT(channel.queued(), 0u);
  ASSERT_TRUE(channel.CorruptLastFrame(4, 0x80));
  CollectingSink received;
  Receiver rx(&received);
  EXPECT_EQ(rx.Poll(&channel).code(), StatusCode::kCorruption);
}

TEST(StreamRoundTripTest, SegmentEndWithoutStartIsCorruption) {
  Channel channel;
  WireRecord record;
  record.type = WireRecordType::kSegmentPoint;
  record.t = 0.0;
  record.x = {1.0};
  channel.Push(EncodeWireRecord(record));
  CollectingSink received;
  Receiver rx(&received);
  EXPECT_EQ(rx.Poll(&channel).code(), StatusCode::kCorruption);
  EXPECT_TRUE(received.segments().empty());
}

TEST(StreamRoundTripTest, CoverageAdvancesWithSegments) {
  Channel channel;
  Transmitter tx(&channel);
  auto filter =
      SwingFilter::Create(FilterOptions::Scalar(0.01), &tx).value();
  CollectingSink received;
  Receiver rx(&received);
  for (int j = 0; j < 50; ++j) {
    ASSERT_TRUE(
        filter->Append(DataPoint::Scalar(j, (j % 5) * 2.0)).ok());
  }
  ASSERT_TRUE(rx.Poll(&channel).ok());
  EXPECT_GT(rx.coverage_t(), 0.0);
  EXPECT_LT(rx.coverage_t(), 50.0);
  ASSERT_FALSE(received.segments().empty());
  EXPECT_EQ(rx.coverage_t(), received.segments().back().t_end);
}

}  // namespace
}  // namespace plastream
