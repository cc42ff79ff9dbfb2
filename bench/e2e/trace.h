// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Timing primitives of the end-to-end benchmark: a steady_clock reader,
// latency sample sets with interpolated percentiles, and a per-thread span
// tracer. Spans are recorded from the benchmark's own code around every
// call into a library layer (see timed_layers.h); the library itself
// carries no instrumentation.
//
// Self time: a span's duration minus the part of it covered by its child
// spans, summed per operation over every call. Full spans (name, start,
// end, parent, request id) are kept for a deterministic 1-in-256 sample of
// root calls and can be written out as Chrome-trace JSON.
//
// Spans read the TSC, which costs about half a steady_clock read, and the
// cost a span adds is measured once per run (SpanCost) and subtracted when
// self times are reported: each span's own duration carries `inner` of it,
// its parent's self time the remaining `outer`. Without that a layer of
// many tiny calls would be billed for the tracer's clock reads.

#ifndef PLASTREAM_BENCH_E2E_TRACE_H_
#define PLASTREAM_BENCH_E2E_TRACE_H_

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

namespace plastream::e2e {

/// Monotonic nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span timestamps: the TSC on x86-64, steady_clock ns elsewhere.
inline uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return NowNs();
#endif
}

/// Nanoseconds per tick, measured once against steady_clock over 20 ms.
inline double NsPerTick() {
  static const double rate = [] {
    const uint64_t ns0 = NowNs();
    const uint64_t ticks0 = Ticks();
    while (NowNs() - ns0 < 20'000'000) {
    }
    const uint64_t ns1 = NowNs();
    const uint64_t ticks1 = Ticks();
    return ticks1 == ticks0 ? 1.0
                            : static_cast<double>(ns1 - ns0) /
                                  static_cast<double>(ticks1 - ticks0);
  }();
  return rate;
}

/// Durations (ns, or ticks in a Tracer), for percentiles and means.
class Samples {
 public:
  /// Reserves and touches room for `n` samples, so that filling them later
  /// does not show up as memory growth of the system under test.
  void Preallocate(size_t n) {
    ns_.resize(n);
    ns_.clear();
  }
  void Add(uint64_t ns) {
    ns_.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max())));
  }
  void Append(const Samples& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  void Clear() { ns_.clear(); }
  size_t size() const { return ns_.size(); }

  double Mean() const {
    if (ns_.empty()) return 0.0;
    double sum = 0.0;
    for (uint32_t v : ns_) sum += v;
    return sum / static_cast<double>(ns_.size());
  }

  /// The q-quantile (0..1), interpolated linearly between the two
  /// order statistics around position q*(n-1). Reorders the samples.
  double Percentile(double q) {
    if (ns_.empty()) return 0.0;
    const double pos = q * static_cast<double>(ns_.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    std::nth_element(ns_.begin(), ns_.begin() + lo, ns_.end());
    const double a = ns_[lo];
    if (lo + 1 >= ns_.size()) return a;
    const double b = *std::min_element(ns_.begin() + lo + 1, ns_.end());
    return a + (pos - static_cast<double>(lo)) * (b - a);
  }

 private:
  std::vector<uint32_t> ns_;
};

/// Library layers, named after the repository's modules.
enum Layer : uint8_t {
  kLayerStream,     // stream: Pipeline, ShardedFilterBank, Receiver glue
  kLayerFilter,     // core.filter: Filter
  kLayerEncode,     // stream.encode: Transmitter + wire codec encode
  kLayerDecode,     // stream.decode: wire codec decode
  kLayerStorage,    // storage: StorageBackend / StreamStorage
  kLayerTransport,  // transport: Transport / TransportLink
  kNumLayers,
};

inline constexpr const char* kLayerNames[kNumLayers] = {
    "stream", "filter", "encode", "decode", "storage", "transport"};

/// Timed calls. Each belongs to one layer.
enum Op : uint8_t {
  kStreamAppend,      // Pipeline::Append / AppendBatch
  kStreamFlush,       // Pipeline::Flush
  kStreamFinish,      // Pipeline::Finish
  kFilterAppend,      // Filter::Append / AppendBatch
  kFilterFinish,      // Filter::Finish
  kEncodeRecord,      // SegmentSink::OnSegment / OnProvisionalLine
  kEncodeFlush,       // WireCodec::Flush
  kDecodeFrame,       // WireCodec::Decode
  kStorageAppend,     // StreamStorage::Append
  kStorageFlush,      // StorageBackend::Flush
  kStorageOpen,       // StorageBackend::Open
  kStorageClose,      // StorageBackend::Close
  kTransportSend,     // TransportLink::SendFrame
  kTransportFinish,   // TransportLink::Finish
  kTransportFlush,    // Transport::Flush
  kTransportConnect,  // Transport::Connect
  kNumOps,
};

struct OpInfo {
  const char* name;
  Layer layer;
};

inline constexpr OpInfo kOps[kNumOps] = {
    {"stream.append", kLayerStream},
    {"stream.flush", kLayerStream},
    {"stream.finish", kLayerStream},
    {"filter.append", kLayerFilter},
    {"filter.finish", kLayerFilter},
    {"encode.record", kLayerEncode},
    {"encode.flush", kLayerEncode},
    {"decode.frame", kLayerDecode},
    {"storage.append", kLayerStorage},
    {"storage.flush", kLayerStorage},
    {"storage.open", kLayerStorage},
    {"storage.close", kLayerStorage},
    {"transport.send", kLayerTransport},
    {"transport.finish", kLayerTransport},
    {"transport.flush", kLayerTransport},
    {"transport.connect", kLayerTransport},
};

/// One kept span.
struct SpanRecord {
  uint64_t request = 0;  // index of the root call on its thread
  uint32_t id = 0;
  uint32_t parent = 0;   // 0 for a root span
  uint32_t thread = 0;
  Op op = kStreamAppend;
  uint64_t start = 0;  // ticks
  uint64_t end = 0;
};

/// What one span adds to the traced time, in ticks: `inner` lies between
/// its own two timestamps, `outer` inside its parent but outside itself.
struct SpanCost {
  double inner = 0.0;
  double outer = 0.0;
};

/// Per-thread span stack with per-operation totals, in ticks.
class Tracer {
 public:
  static constexpr uint64_t kSampleEvery = 256;

  explicit Tracer(uint32_t thread = 0) : thread_(thread) {}

  void Begin(Op op) {
    if (depth_ == kMaxDepth) {
      ++overflow;
      return;
    }
    if (depth_ == 0) {
      request_ = roots_++;
      sampled_ = request_ % kSampleEvery == 0;
    }
    Frame& frame = stack_[depth_++];
    frame.op = op;
    frame.child_ticks = 0;
    frame.id = sampled_ ? ++next_id_ : 0;
    frame.start = Ticks();
  }

  void End() {
    const uint64_t end = Ticks();
    if (overflow > 0) {
      --overflow;
      return;
    }
    Frame& frame = stack_[--depth_];
    const uint64_t duration = end - frame.start;
    self_ticks[frame.op] += duration - std::min(duration, frame.child_ticks);
    ++calls[frame.op];
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ticks += duration;
      ++child_calls[stack_[depth_ - 1].op];
    }
    if (frame.op == kStorageFlush) storage_flush.Add(duration);
    if (frame.op == kTransportFlush) transport_flush.Add(duration);
    if (sampled_) {
      spans.push_back({request_, frame.id,
                       depth_ > 0 ? stack_[depth_ - 1].id : 0, thread_,
                       frame.op, frame.start, end});
    }
  }

  /// Adds another tracer's totals and kept spans to this one.
  void Merge(const Tracer& other) {
    for (int op = 0; op < kNumOps; ++op) {
      self_ticks[op] += other.self_ticks[op];
      calls[op] += other.calls[op];
      child_calls[op] += other.child_calls[op];
    }
    storage_flush.Append(other.storage_flush);
    transport_flush.Append(other.transport_flush);
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
  }

  /// Self time of `op` in ns, less the tracer's own cost.
  double SelfNs(Op op, const SpanCost& cost) const {
    const double ticks = static_cast<double>(self_ticks[op]) -
                         static_cast<double>(calls[op]) * cost.inner -
                         static_cast<double>(child_calls[op]) * cost.outer;
    return ticks * NsPerTick();
  }

  /// Self time of every operation of `layer`, in ns.
  double LayerSelfNs(Layer layer, const SpanCost& cost) const {
    double sum = 0.0;
    for (int op = 0; op < kNumOps; ++op) {
      if (kOps[op].layer == layer) sum += SelfNs(static_cast<Op>(op), cost);
    }
    return sum;
  }

  uint64_t LayerCalls(Layer layer) const {
    uint64_t sum = 0;
    for (int op = 0; op < kNumOps; ++op) {
      if (kOps[op].layer == layer) sum += calls[op];
    }
    return sum;
  }

  /// Measures SpanCost on this machine: empty spans nested in one root,
  /// median of several trials.
  static SpanCost Calibrate() {
    constexpr int kSpans = 2000;
    constexpr int kTrials = 25;
    std::vector<double> inner;
    std::vector<double> total;
    for (int trial = 0; trial < kTrials; ++trial) {
      Tracer probe;
      probe.Begin(kStreamFlush);  // request 0 is sampled; use request 1
      probe.End();
      probe.Begin(kStreamFlush);
      const uint64_t a = Ticks();
      for (int i = 0; i < kSpans; ++i) {
        probe.Begin(kStreamAppend);
        probe.End();
      }
      const uint64_t b = Ticks();
      probe.End();
      total.push_back(static_cast<double>(b - a) / kSpans);
      inner.push_back(static_cast<double>(probe.self_ticks[kStreamAppend]) /
                      kSpans);
    }
    std::sort(inner.begin(), inner.end());
    std::sort(total.begin(), total.end());
    const double median_inner = inner[kTrials / 2];
    return {median_inner, std::max(0.0, total[kTrials / 2] - median_inner)};
  }

  uint64_t self_ticks[kNumOps] = {};
  uint64_t calls[kNumOps] = {};
  uint64_t child_calls[kNumOps] = {};  // direct children of spans of op
  Samples storage_flush;    // StorageBackend::Flush durations, ticks
  Samples transport_flush;  // Transport::Flush durations, ticks
  std::vector<SpanRecord> spans;
  size_t overflow = 0;  // spans nested deeper than kMaxDepth (dropped)

 private:
  static constexpr int kMaxDepth = 16;
  struct Frame {
    Op op;
    uint32_t id;
    uint64_t start;
    uint64_t child_ticks;
  };
  uint32_t thread_;
  Frame stack_[kMaxDepth] = {};
  int depth_ = 0;
  uint64_t roots_ = 0;
  uint64_t request_ = 0;
  bool sampled_ = false;
  uint32_t next_id_ = 0;
};

/// The calling thread's tracer; null while untraced.
inline thread_local Tracer* tls_tracer = nullptr;

/// Times one call into a layer on the calling thread's tracer.
class Span {
 public:
  explicit Span(Op op) : tracer_(tls_tracer) {
    if (tracer_ != nullptr) tracer_->Begin(op);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Writes kept spans as Chrome-trace JSON ("X" complete events, µs,
/// relative to `origin`, a Ticks() reading). Returns false when the file
/// cannot be written.
inline bool WriteChromeTrace(const char* path,
                             const std::vector<SpanRecord>& spans,
                             uint64_t origin) {
  const double us_per_tick = NsPerTick() / 1e3;
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"request\":%llu,\"span\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",", kOps[s.op].name,
                 kLayerNames[kOps[s.op].layer],
                 static_cast<double>(s.start - origin) * us_per_tick,
                 static_cast<double>(s.end - s.start) * us_per_tick, s.thread,
                 static_cast<unsigned long long>(s.request), s.id, s.parent);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace plastream::e2e

#endif  // PLASTREAM_BENCH_E2E_TRACE_H_
