// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Receiver: a streaming decoder. It decodes wire records from a channel (or
// from frames a byte-stream transport reassembled) and emits each rebuilt
// segment into a SegmentSink, holding no copy of its own. The round-trip
// property (received segments == filter segments) is part of the
// integration test suite.

#ifndef PLASTREAM_STREAM_RECEIVER_H_
#define PLASTREAM_STREAM_RECEIVER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/segment_sink.h"
#include "core/types.h"
#include "stream/channel.h"
#include "stream/wire.h"
#include "stream/wire_codec.h"

namespace plastream {

/// Rebuilds segments from the wire protocol.
class Receiver {
 public:
  /// Receives through an owned default "frame" codec, emitting into
  /// `sink` (borrowed; must outlive the receiver).
  explicit Receiver(SegmentSink* sink);

  /// Receives through `codec`, which must match the transmitter's codec
  /// spec, emitting into `sink`. Both are borrowed and must outlive the
  /// receiver. Stateful codecs (delta) need one instance per stream.
  Receiver(SegmentSink* sink, WireCodec* codec);

  /// Drains every queued frame from `channel`, decoding and applying the
  /// records each carries. Stops at the first corrupt frame with its
  /// Corruption status.
  Status Poll(Channel* channel);

  /// Decodes one complete frame and applies the records it carries — the
  /// unit Poll repeats per queued Channel frame. Byte-stream transports
  /// (the network collector) reassemble partial reads with a
  /// FrameSplitter and feed each popped frame here, so Channel-fed and
  /// socket-fed streams share one decode path. Errors with Corruption on
  /// a frame that fails validation; previously applied records stand.
  Status ApplyFrame(std::span<const uint8_t> frame);

  /// Marks end-of-stream: a trailing segment-break becomes a point segment.
  Status FinishStream();

  /// Wire records successfully applied.
  size_t records_received() const { return records_received_; }

  /// Latest time the receiver has full knowledge of: the end of the last
  /// closed segment, or the provisional anchor if later.
  double coverage_t() const { return coverage_t_; }

 private:
  Status Apply(const WireRecord& record);
  // Materializes a never-continued break record as a point segment.
  void FlushPendingBreak();
  // Emits the segment from `start` to `end` and makes `end` the chain's
  // last recording.
  void Emit(const WireRecord& start, const WireRecord& end, bool connected);

  SegmentSink* sink_;
  std::unique_ptr<WireCodec> owned_codec_;  // set by the sink-only ctor
  WireCodec* codec_;
  std::vector<WireRecord> decoded_;  // scratch, reused across frames
  std::optional<WireRecord> pending_break_;
  std::optional<WireRecord> last_end_;
  Segment segment_;       // scratch, reused across emitted segments
  ProvisionalLine line_;  // scratch, reused across provisional commits
  size_t records_received_ = 0;
  double coverage_t_ = -std::numeric_limits<double>::infinity();
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_RECEIVER_H_
