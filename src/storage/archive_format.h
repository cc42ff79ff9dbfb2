// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The on-disk segment-archive log shared by the "file" storage backend
// (writer + crash recovery) and SegmentArchiveReader (read-only replay).
// Layout (little-endian throughout, built on stream/wire_bytes.h):
//
//   archive := header record*
//   header  := magic "PLAR" | version u8 | codec u8 | reserved u16
//              | crc32c u32                                  (12 bytes)
//   record  := payload_len u32 | payload | crc32c u32 (over the payload)
//   payload := stream_id varint | kind u8 | body
//
//   kind 1 (stream-open): key_len varint | key bytes | dims varint
//   kind 2 (segment):     body per the archive's segment codec
//
// Segment bodies come in two codecs, fixed per archive at creation:
//
//   frame  flags u8 (bit0 = connected) | t_start f64 | t_end f64
//          | x_start d×f64 | x_end d×f64 — fully explicit, golden-simple.
//   delta  flag-gated compact forms: a connected segment omits its start
//          point entirely (it equals the previous segment's end), times
//          encode as exactness-checked zigzag-varint deltas, integral
//          values as zigzag varints — the delta wire codec's tricks,
//          applied to whole segments. Never lossy: every compact form is
//          chosen only when decoding reproduces the exact doubles.
//
// Every record is independently CRC32C-validated, so recovery is a
// prefix scan: the first invalid byte (bad length, bad checksum, bad
// body) marks a torn tail and everything before it stays queryable. A
// crash mid-append therefore loses at most the record being written.

#ifndef PLASTREAM_STORAGE_ARCHIVE_FORMAT_H_
#define PLASTREAM_STORAGE_ARCHIVE_FORMAT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/segment_store.h"
#include "core/types.h"

namespace plastream {

/// How segment bodies are encoded in an archive file; fixed per archive.
enum class ArchiveSegmentCodec : uint8_t {
  /// Fully explicit fixed-width doubles.
  kFrame = 1,
  /// Connected-segment elision + exactness-checked varint deltas.
  kDelta = 2,
};

/// Parses a codec name ("frame" or "delta"); InvalidArgument otherwise.
Result<ArchiveSegmentCodec> ParseArchiveSegmentCodec(std::string_view name);

/// The codec's spec name ("frame" or "delta").
std::string_view ArchiveSegmentCodecName(ArchiveSegmentCodec codec);

/// Record kind tag: declares a stream (id -> key, dimensionality).
inline constexpr uint8_t kArchiveRecordStreamOpen = 1;
/// Record kind tag: one segment of a declared stream.
inline constexpr uint8_t kArchiveRecordSegment = 2;

/// Size of the fixed archive header in bytes.
inline constexpr size_t kArchiveHeaderSize = 12;

/// Serializes the 12-byte archive header for `codec`.
std::vector<uint8_t> EncodeArchiveHeader(ArchiveSegmentCodec codec);

/// Validates the header at the front of `bytes` and returns the
/// archive's segment codec. Errors with Corruption on a short buffer,
/// bad magic, unsupported version/codec, or a checksum mismatch.
Result<ArchiveSegmentCodec> DecodeArchiveHeader(
    std::span<const uint8_t> bytes);

/// Appends a complete stream-open record (stream id -> key,
/// dimensionality) to `*out`.
void AppendStreamOpenRecord(uint64_t stream_id, std::string_view key,
                            size_t dimensions, std::vector<uint8_t>* out);

/// Stateful per-stream segment body coder. Encode and decode share the
/// single "previous segment end" state, so a coder primed by decoding a
/// recovered archive continues encoding appends seamlessly. One instance
/// serves one stream; bodies must be processed in chain order.
class ArchiveSegmentCoder {
 public:
  /// The chain state: the end of the previously coded segment, if any.
  /// A writer snapshots it before an append and restores it when the log
  /// write fails, so the next record continues from what reached the log.
  struct Chain {
    /// False until a segment has been coded (or primed).
    bool has_prev = false;
    /// The previous segment's end time.
    double t_end = 0.0;
    /// The previous segment's end values.
    DimVec x_end;
  };

  /// A coder for one stream of `dimensions`-dimensional segments.
  ArchiveSegmentCoder(ArchiveSegmentCodec codec, size_t dimensions);

  /// Appends a complete segment record of stream `stream_id` for
  /// `segment` to `*out` and advances the chain state. The segment must
  /// already satisfy the SegmentStore chain invariants relative to the
  /// previously coded segment. Allocates nothing once `*out` has room.
  void AppendRecord(uint64_t stream_id, const Segment& segment,
                    std::vector<uint8_t>* out);

  /// Decodes one segment body into `*segment` (every field overwritten,
  /// so one Segment can be reused across calls) and advances the chain
  /// state. Errors with Corruption on truncation, stray bytes, reserved
  /// flags, or a connected segment with no predecessor.
  Status DecodeBody(std::span<const uint8_t> body, Segment* segment);

  /// Resets the chain state to "previous segment = `segment`". A
  /// recovering writer primes a fresh coder with the last intact segment
  /// of each stream so appends continue the chain exactly where the
  /// truncated archive left off.
  void Prime(const Segment& segment);

  /// The current chain state.
  const Chain& chain() const { return chain_; }

  /// Restores a chain state previously read with chain().
  void set_chain(const Chain& chain) { chain_ = chain; }

 private:
  void EncodeBody(const Segment& segment, std::vector<uint8_t>* out);

  const ArchiveSegmentCodec codec_;
  const size_t dimensions_;
  Chain chain_;
};

/// One stream reconstructed by scanning an archive file.
struct ArchiveStream {
  /// The stream's key.
  std::string key;
  /// Dimensionality of its segments.
  size_t dimensions = 0;
  /// Every intact segment, in chain order, queryable.
  std::unique_ptr<SegmentStore> store;
  /// Encoded record bytes attributed to this stream (incl. framing).
  uint64_t bytes = 0;
};

/// Result of scanning an archive file front to back.
struct ArchiveScan {
  /// The archive's segment codec, from the header.
  ArchiveSegmentCodec codec = ArchiveSegmentCodec::kDelta;
  /// Streams indexed by their archive stream id.
  std::vector<std::unique_ptr<ArchiveStream>> streams;
  /// Key -> stream id.
  std::map<std::string, size_t, std::less<>> by_key;
  /// File offset just past the last intact record; a recovering writer
  /// truncates the file to this length.
  uint64_t valid_bytes = 0;
  /// Bytes the scan read: the file's size when the scan opened it.
  uint64_t file_bytes = 0;
  /// Intact records (stream-opens + segments).
  size_t records = 0;
  /// Intact segment records across all streams.
  size_t segments = 0;
  /// True when the scan stopped before the end of the file.
  bool torn = false;
  /// Why the scan stopped, when torn.
  std::string torn_reason;
};

/// Reads and validates the archive at `path`, rebuilding every stream's
/// store. Never modifies the file, and reads it with one sized read.
/// Errors with IOError when the file cannot be stat'ed or read (or is not
/// a regular file) and Corruption when it cannot be an archive at all
/// (short or invalid header); any later invalid byte is reported as a
/// torn tail (`torn`/`valid_bytes`), not an error — everything before
/// the tear is returned intact.
Result<ArchiveScan> ScanArchiveFile(const std::string& path);

}  // namespace plastream

#endif  // PLASTREAM_STORAGE_ARCHIVE_FORMAT_H_
