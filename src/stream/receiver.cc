// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/receiver.h"

#include <algorithm>
#include <limits>

#include "stream/wire_codec.h"

namespace plastream {

Receiver::Receiver(SegmentSink* sink)
    : sink_(sink), owned_codec_(MakeFrameWireCodec()) {
  codec_ = owned_codec_.get();
}

Receiver::Receiver(SegmentSink* sink, WireCodec* codec)
    : sink_(sink), codec_(codec) {}

Status Receiver::Poll(Channel* channel) {
  while (auto frame = channel->Pop()) {
    PLASTREAM_RETURN_NOT_OK(ApplyFrame(*frame));
    // The frame's storage goes back to the channel so the next encode
    // reuses it instead of allocating.
    channel->Recycle(std::move(*frame));
  }
  return Status::OK();
}

Status Receiver::ApplyFrame(std::span<const uint8_t> frame) {
  decoded_.clear();
  PLASTREAM_RETURN_NOT_OK(codec_->Decode(frame, &decoded_));
  for (const WireRecord& record : decoded_) {
    PLASTREAM_RETURN_NOT_OK(Apply(record));
  }
  return Status::OK();
}

void Receiver::Emit(const WireRecord& start, const WireRecord& end,
                    bool connected) {
  segment_.t_start = start.t;
  segment_.x_start = start.x;
  segment_.t_end = end.t;
  segment_.x_end = end.x;
  segment_.connected_to_prev = connected;
  coverage_t_ = std::max(coverage_t_, end.t);
  sink_->OnSegment(segment_);
  last_end_ = end;
}

Status Receiver::Apply(const WireRecord& record) {
  switch (record.type) {
    case WireRecordType::kSegmentBreak: {
      FlushPendingBreak();
      pending_break_ = record;
      break;
    }
    case WireRecordType::kSegmentPoint: {
      // Ends a disconnected segment: its start must be pending.
      if (!pending_break_.has_value()) {
        return Status::Corruption(
            "disconnected segment end without its start record");
      }
      if (record.t < pending_break_->t) {
        return Status::Corruption("segment end precedes its start");
      }
      Emit(*pending_break_, record, /*connected=*/false);
      pending_break_.reset();
      break;
    }
    case WireRecordType::kSegmentPointConnected: {
      // A preceding lone break was a point segment; materialize it so this
      // segment can connect to its end.
      FlushPendingBreak();
      if (!last_end_.has_value()) {
        return Status::Corruption(
            "connected segment end without a previous segment");
      }
      if (record.t < last_end_->t) {
        return Status::Corruption("segment end precedes its start");
      }
      Emit(*last_end_, record, /*connected=*/true);
      break;
    }
    case WireRecordType::kProvisionalLine: {
      line_.t = record.t;
      line_.x = record.x;
      line_.slope = record.slope;
      line_.recording_cost = 1;  // informational on the receiving side
      coverage_t_ = std::max(coverage_t_, record.t);
      sink_->OnProvisionalLine(line_);
      break;
    }
  }
  ++records_received_;
  return Status::OK();
}

void Receiver::FlushPendingBreak() {
  if (!pending_break_.has_value()) return;
  // A break that was never continued is a zero-length (point) segment.
  Emit(*pending_break_, *pending_break_, /*connected=*/false);
  pending_break_.reset();
}

Status Receiver::FinishStream() {
  FlushPendingBreak();
  return Status::OK();
}

}  // namespace plastream
