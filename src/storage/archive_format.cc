// Copyright (c) 2026 The plastream Authors. MIT license.

#include "storage/archive_format.h"

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "stream/wire_bytes.h"

namespace plastream {
namespace {

constexpr uint8_t kMagic[4] = {'P', 'L', 'A', 'R'};
constexpr uint8_t kVersion = 1;

// Delta segment-body flags.
constexpr uint8_t kConnected = 0x01;     // start point elided (== prev end)
constexpr uint8_t kStartTimeDelta = 0x02;  // t_start as zigzag dt vs prev end
constexpr uint8_t kEndTimeDelta = 0x04;    // t_end as zigzag dt vs t_start
constexpr uint8_t kStartValuesVarint = 0x08;
constexpr uint8_t kEndValuesVarint = 0x10;
constexpr uint8_t kDeltaFlagMask = 0x1F;

// Frame segment-body flags.
constexpr uint8_t kFrameConnected = 0x01;

// True when every element of `values` has a compact integral form.
bool AllCompactIntegral(std::span<const double> values) {
  int64_t unused = 0;
  for (const double v : values) {
    if (!IsCompactIntegral(v, &unused)) return false;
  }
  return !values.empty();
}

// Appends `values` as zigzag varints when `integral` (every value passed
// AllCompactIntegral, so the int64 cast is exact), else as raw f64s.
void PutValues(std::span<const double> values, bool integral,
               std::vector<uint8_t>* out) {
  for (const double v : values) {
    if (integral) {
      PutVarint(out, ZigZag(static_cast<int64_t>(v)));
    } else {
      PutF64(out, v);
    }
  }
}

// Record framing, in place at the end of `*out`. BeginRecord appends the
// 4-byte length placeholder and the payload's stream id and kind, and
// returns the record's offset; the caller appends the rest of the payload;
// EndRecord patches the length and appends the CRC32C over the payload.
size_t BeginRecord(uint64_t stream_id, uint8_t kind,
                   std::vector<uint8_t>* out) {
  const size_t start = out->size();
  PutU32(out, 0);
  PutVarint(out, stream_id);
  out->push_back(kind);
  return start;
}

void EndRecord(size_t start, std::vector<uint8_t>* out) {
  const size_t len = out->size() - start - 4;
  uint8_t* const record = out->data() + start;
  for (int i = 0; i < 4; ++i) {
    record[i] = static_cast<uint8_t>(len >> (8 * i));
  }
  PutU32(out, Crc32c(std::span<const uint8_t>(record + 4, len)));
}

// Reads the whole file at `path` with one read sized by fstat. A writer
// appending concurrently only adds bytes past the size snapshot.
Status ReadArchiveFile(const std::string& path,
                       std::unique_ptr<uint8_t[]>* bytes, size_t* size) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open archive '" + path + "' for reading");
  }
  struct stat st {};
  bool ok = ::fstat(fileno(file), &st) == 0 && S_ISREG(st.st_mode);
  if (ok) {
    const auto expected = static_cast<size_t>(st.st_size);
    *bytes = std::make_unique_for_overwrite<uint8_t[]>(expected);
    *size = std::fread(bytes->get(), 1, expected, file);
    ok = std::ferror(file) == 0;
  }
  std::fclose(file);
  if (!ok) return Status::IOError("error reading archive '" + path + "'");
  return Status::OK();
}

}  // namespace

Result<ArchiveSegmentCodec> ParseArchiveSegmentCodec(std::string_view name) {
  if (name == "frame") return ArchiveSegmentCodec::kFrame;
  if (name == "delta") return ArchiveSegmentCodec::kDelta;
  return Status::InvalidArgument("unknown archive segment codec '" +
                                 std::string(name) +
                                 "' (supported: frame, delta)");
}

std::string_view ArchiveSegmentCodecName(ArchiveSegmentCodec codec) {
  return codec == ArchiveSegmentCodec::kFrame ? "frame" : "delta";
}

std::vector<uint8_t> EncodeArchiveHeader(ArchiveSegmentCodec codec) {
  std::vector<uint8_t> header;
  header.reserve(kArchiveHeaderSize);
  header.insert(header.end(), std::begin(kMagic), std::end(kMagic));
  header.push_back(kVersion);
  header.push_back(static_cast<uint8_t>(codec));
  PutU16(&header, 0);  // reserved
  AppendCrc32cTrailer(&header);
  return header;
}

Result<ArchiveSegmentCodec> DecodeArchiveHeader(
    std::span<const uint8_t> bytes) {
  if (bytes.size() < kArchiveHeaderSize) {
    return Status::Corruption("archive shorter than its header");
  }
  const std::span<const uint8_t> header = bytes.first(kArchiveHeaderSize);
  std::span<const uint8_t> body;
  if (!SplitCrc32cTrailer(header, &body)) {
    return Status::Corruption("archive header checksum mismatch");
  }
  for (size_t i = 0; i < 4; ++i) {
    if (body[i] != kMagic[i]) {
      return Status::Corruption("archive magic mismatch (not a plastream "
                                "segment archive)");
    }
  }
  if (body[4] != kVersion) {
    return Status::Corruption("unsupported archive version " +
                              std::to_string(body[4]));
  }
  const uint8_t codec = body[5];
  if (codec != static_cast<uint8_t>(ArchiveSegmentCodec::kFrame) &&
      codec != static_cast<uint8_t>(ArchiveSegmentCodec::kDelta)) {
    return Status::Corruption("unsupported archive segment codec tag " +
                              std::to_string(codec));
  }
  return static_cast<ArchiveSegmentCodec>(codec);
}

void AppendStreamOpenRecord(uint64_t stream_id, std::string_view key,
                            size_t dimensions, std::vector<uint8_t>* out) {
  const size_t start = BeginRecord(stream_id, kArchiveRecordStreamOpen, out);
  PutVarint(out, key.size());
  out->insert(out->end(), key.begin(), key.end());
  PutVarint(out, dimensions);
  EndRecord(start, out);
}

ArchiveSegmentCoder::ArchiveSegmentCoder(ArchiveSegmentCodec codec,
                                         size_t dimensions)
    : codec_(codec), dimensions_(dimensions) {}

void ArchiveSegmentCoder::AppendRecord(uint64_t stream_id,
                                       const Segment& segment,
                                       std::vector<uint8_t>* out) {
  const size_t start = BeginRecord(stream_id, kArchiveRecordSegment, out);
  EncodeBody(segment, out);
  EndRecord(start, out);
}

void ArchiveSegmentCoder::EncodeBody(const Segment& segment,
                                     std::vector<uint8_t>* out) {
  if (codec_ == ArchiveSegmentCodec::kFrame) {
    out->push_back(segment.connected_to_prev ? kFrameConnected : 0);
    PutF64(out, segment.t_start);
    PutF64(out, segment.t_end);
    PutValues(segment.x_start, false, out);
    PutValues(segment.x_end, false, out);
  } else {
    uint8_t flags = 0;
    int64_t dt_start = 0;
    bool start_time_delta = false;
    bool start_varint = false;
    if (segment.connected_to_prev) {
      // Start point == previous end point (SegmentStore-validated), so it
      // costs zero bytes; the decoder replays it from chain state.
      flags |= kConnected;
    } else {
      if (chain_.has_prev) {
        const double dt = segment.t_start - chain_.t_end;
        start_time_delta = IsCompactIntegral(dt, &dt_start) &&
                           chain_.t_end + static_cast<double>(dt_start) ==
                               segment.t_start;
      }
      if (start_time_delta) flags |= kStartTimeDelta;
      start_varint = AllCompactIntegral(segment.x_start);
      if (start_varint) flags |= kStartValuesVarint;
    }
    int64_t dt_end = 0;
    const double de = segment.t_end - segment.t_start;
    const bool end_time_delta =
        IsCompactIntegral(de, &dt_end) &&
        segment.t_start + static_cast<double>(dt_end) == segment.t_end;
    if (end_time_delta) flags |= kEndTimeDelta;
    const bool end_varint = AllCompactIntegral(segment.x_end);
    if (end_varint) flags |= kEndValuesVarint;

    out->push_back(flags);
    if (!segment.connected_to_prev) {
      if (start_time_delta) {
        PutVarint(out, ZigZag(dt_start));
      } else {
        PutF64(out, segment.t_start);
      }
      PutValues(segment.x_start, start_varint, out);
    }
    if (end_time_delta) {
      PutVarint(out, ZigZag(dt_end));
    } else {
      PutF64(out, segment.t_end);
    }
    PutValues(segment.x_end, end_varint, out);
  }
  Prime(segment);
}

Status ArchiveSegmentCoder::DecodeBody(std::span<const uint8_t> body,
                                       Segment* segment) {
  ByteReader reader(body);
  uint8_t flags = 0;
  if (!reader.ReadU8(&flags)) {
    return Status::Corruption("segment body truncated at flags");
  }
  if (codec_ == ArchiveSegmentCodec::kFrame) {
    if ((flags & ~kFrameConnected) != 0) {
      return Status::Corruption("frame segment body with reserved flags");
    }
    segment->connected_to_prev = (flags & kFrameConnected) != 0;
    if (segment->connected_to_prev && !chain_.has_prev) {
      return Status::Corruption("connected segment with no predecessor");
    }
    segment->x_start.resize(dimensions_);
    segment->x_end.resize(dimensions_);
    if (!reader.ReadF64(&segment->t_start) ||
        !reader.ReadF64(&segment->t_end)) {
      return Status::Corruption("frame segment body times truncated");
    }
    for (double& v : segment->x_start) {
      if (!reader.ReadF64(&v)) {
        return Status::Corruption("frame segment body values truncated");
      }
    }
    for (double& v : segment->x_end) {
      if (!reader.ReadF64(&v)) {
        return Status::Corruption("frame segment body values truncated");
      }
    }
  } else {
    if ((flags & ~kDeltaFlagMask) != 0) {
      return Status::Corruption("delta segment body with reserved flags");
    }
    segment->connected_to_prev = (flags & kConnected) != 0;
    if (segment->connected_to_prev) {
      if (!chain_.has_prev) {
        return Status::Corruption("connected segment with no predecessor");
      }
      if ((flags & (kStartTimeDelta | kStartValuesVarint)) != 0) {
        return Status::Corruption(
            "connected segment carries explicit start-point flags");
      }
      segment->t_start = chain_.t_end;
      segment->x_start = chain_.x_end;
    } else {
      if ((flags & kStartTimeDelta) != 0) {
        if (!chain_.has_prev) {
          return Status::Corruption(
              "delta-coded start time with no predecessor");
        }
        uint64_t zz = 0;
        if (!reader.ReadVarint(&zz)) {
          return Status::Corruption("segment body start time truncated");
        }
        segment->t_start = chain_.t_end + static_cast<double>(UnZigZag(zz));
      } else if (!reader.ReadF64(&segment->t_start)) {
        return Status::Corruption("segment body start time truncated");
      }
      segment->x_start.resize(dimensions_);
      for (double& v : segment->x_start) {
        if ((flags & kStartValuesVarint) != 0) {
          uint64_t zz = 0;
          if (!reader.ReadVarint(&zz)) {
            return Status::Corruption("segment body start values truncated");
          }
          v = static_cast<double>(UnZigZag(zz));
        } else if (!reader.ReadF64(&v)) {
          return Status::Corruption("segment body start values truncated");
        }
      }
    }
    if ((flags & kEndTimeDelta) != 0) {
      uint64_t zz = 0;
      if (!reader.ReadVarint(&zz)) {
        return Status::Corruption("segment body end time truncated");
      }
      segment->t_end = segment->t_start + static_cast<double>(UnZigZag(zz));
    } else if (!reader.ReadF64(&segment->t_end)) {
      return Status::Corruption("segment body end time truncated");
    }
    segment->x_end.resize(dimensions_);
    for (double& v : segment->x_end) {
      if ((flags & kEndValuesVarint) != 0) {
        uint64_t zz = 0;
        if (!reader.ReadVarint(&zz)) {
          return Status::Corruption("segment body end values truncated");
        }
        v = static_cast<double>(UnZigZag(zz));
      } else if (!reader.ReadF64(&v)) {
        return Status::Corruption("segment body end values truncated");
      }
    }
  }
  if (!reader.Done()) {
    return Status::Corruption("segment body length mismatch");
  }
  Prime(*segment);
  return Status::OK();
}

void ArchiveSegmentCoder::Prime(const Segment& segment) {
  chain_.has_prev = true;
  chain_.t_end = segment.t_end;
  chain_.x_end = segment.x_end;
}

Result<ArchiveScan> ScanArchiveFile(const std::string& path) {
  std::unique_ptr<uint8_t[]> buffer;
  size_t size = 0;
  PLASTREAM_RETURN_NOT_OK(ReadArchiveFile(path, &buffer, &size));
  const std::span<const uint8_t> bytes(buffer.get(), size);

  ArchiveScan scan;
  scan.file_bytes = bytes.size();
  PLASTREAM_ASSIGN_OR_RETURN(scan.codec, DecodeArchiveHeader(bytes));
  scan.valid_bytes = kArchiveHeaderSize;
  // Per-stream chain state, scan-local: a torn record may pollute its
  // coder, so recovering writers re-Prime fresh coders from the stores.
  std::vector<std::unique_ptr<ArchiveSegmentCoder>> coders;
  // Every segment decodes into this one scratch Segment before its store
  // copies it.
  Segment segment;

  // Prefix scan: every record must be intact and semantically valid; the
  // first one that is not marks the torn tail and ends the scan, keeping
  // everything before it.
  const auto tear = [&scan](std::string reason) {
    scan.torn = true;
    scan.torn_reason = std::move(reason);
  };
  size_t offset = kArchiveHeaderSize;
  while (offset < bytes.size()) {
    const size_t remaining = bytes.size() - offset;
    if (remaining < 8) {
      tear("truncated record framing");
      break;
    }
    const uint32_t len = GetU32(bytes.data() + offset);
    if (len > remaining - 8) {
      tear("record length exceeds the file");
      break;
    }
    const std::span<const uint8_t> payload(bytes.data() + offset + 4, len);
    if (Crc32c(payload) != GetU32(bytes.data() + offset + 4 + len)) {
      tear("record checksum mismatch");
      break;
    }

    size_t pos = 0;
    uint64_t stream_id = 0;
    if (!ReadVarint(payload, &pos, &stream_id) || pos >= payload.size()) {
      tear("record payload truncated at stream id");
      break;
    }
    const uint8_t kind = payload[pos++];
    bool ok = false;
    if (kind == kArchiveRecordStreamOpen) {
      uint64_t key_len = 0;
      uint64_t dims = 0;
      std::string key;
      if (ReadVarint(payload, &pos, &key_len) &&
          payload.size() - pos >= key_len) {
        key.assign(reinterpret_cast<const char*>(payload.data() + pos),
                   key_len);
        pos += key_len;
        if (ReadVarint(payload, &pos, &dims) && pos == payload.size() &&
            dims >= 1 && dims <= 65535) {  // same bound as the wire codecs
          if (stream_id < scan.streams.size()) {
            // Idempotent redeclaration of a known stream is tolerated;
            // anything conflicting is treated as tail corruption.
            const ArchiveStream& existing = *scan.streams[stream_id];
            ok = existing.key == key && existing.dimensions == dims;
            if (!ok) tear("conflicting stream redeclaration");
          } else if (stream_id == scan.streams.size()) {
            if (scan.by_key.contains(key)) {
              tear("stream key redeclared under a new id");
            } else {
              auto stream = std::make_unique<ArchiveStream>();
              stream->key = key;
              stream->dimensions = dims;
              stream->store = std::make_unique<SegmentStore>(dims);
              coders.push_back(
                  std::make_unique<ArchiveSegmentCoder>(scan.codec, dims));
              scan.by_key.emplace(std::move(key), scan.streams.size());
              scan.streams.push_back(std::move(stream));
              ok = true;
            }
          } else {
            tear("non-sequential stream id");
          }
        } else {
          // Covers truncation, stray bytes and an out-of-range
          // dimensionality — a CRC-valid but absurd dims must tear, not
          // feed a multi-terabyte resize.
          tear("stream-open record malformed");
        }
      } else {
        tear("stream-open record malformed");
      }
    } else if (kind == kArchiveRecordSegment) {
      if (stream_id >= scan.streams.size()) {
        tear("segment for an undeclared stream");
      } else {
        ArchiveStream& stream = *scan.streams[stream_id];
        if (const Status decoded =
                coders[stream_id]->DecodeBody(payload.subspan(pos), &segment);
            !decoded.ok()) {
          tear(decoded.message());
        } else if (const Status appended = stream.store->Append(segment);
                   !appended.ok()) {
          tear("segment violates the chain: " + appended.message());
        } else {
          ++scan.segments;
          ok = true;
        }
      }
    } else {
      tear("unknown record kind " + std::to_string(kind));
    }
    if (!ok) break;

    const uint64_t record_bytes = 8 + static_cast<uint64_t>(len);
    if (stream_id < scan.streams.size()) {
      scan.streams[stream_id]->bytes += record_bytes;
    }
    ++scan.records;
    offset += record_bytes;
    scan.valid_bytes = offset;
  }
  return scan;
}

}  // namespace plastream
