// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Timing decorators for the traced runs of the end-to-end benchmark. Each
// wraps one library interface — Filter (with the SegmentSink it emits
// into), WireCodec, StorageBackend / StreamStorage, Transport /
// TransportLink — forwards every call unchanged, and opens a Span
// (trace.h) around the calls that belong to its layer. Private registries
// whose every built-in family is decorated plug them into the real
// Pipeline (Builder::WithRegistry, WithCodecRegistry, WithStorageRegistry,
// WithTransportRegistry) and CollectorServer (Options::codec_registry,
// storage_registry), so a traced run executes the library's own
// composition and the library itself carries no instrumentation.

#ifndef PLASTREAM_BENCH_E2E_TIMED_LAYERS_H_
#define PLASTREAM_BENCH_E2E_TIMED_LAYERS_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_registry.h"
#include "storage/storage_backend.h"
#include "stream/wire_codec.h"
#include "trace.h"
#include "transport/transport.h"

namespace plastream::e2e {

/// Times the encode side: every record a filter hands its sink (the
/// stream's Transmitter, which encodes it onto the channel).
class TimingSink final : public SegmentSink {
 public:
  explicit TimingSink(SegmentSink* inner) : inner_(inner) {}
  void OnSegment(const Segment& segment) override {
    Span span(kEncodeRecord);
    inner_->OnSegment(segment);
  }
  void OnProvisionalLine(const ProvisionalLine& line) override {
    Span span(kEncodeRecord);
    inner_->OnProvisionalLine(line);
  }

 private:
  SegmentSink* inner_;
};

/// Times Filter calls; the inner filter emits through a TimingSink, so the
/// encode work it triggers is a child span, not filter self time.
class TimedFilter final : public Filter {
 public:
  /// Builds `spec` from the global registry, emitting into `sink` (may be
  /// null) through a TimingSink.
  static Result<std::unique_ptr<Filter>> Make(const FilterSpec& spec,
                                              SegmentSink* sink) {
    auto timing = sink == nullptr ? nullptr : std::make_unique<TimingSink>(sink);
    PLASTREAM_ASSIGN_OR_RETURN(
        auto inner, FilterRegistry::Global().MakeFilter(spec, timing.get()));
    return std::unique_ptr<Filter>(
        new TimedFilter(std::move(inner), std::move(timing)));
  }

  Status AppendBatch(std::span<const DataPoint> points) override {
    const size_t before = inner_->points_seen();
    Status status;
    {
      Span span(kFilterAppend);
      status = inner_->AppendBatch(points);
    }
    for (size_t j = 0, n = inner_->points_seen() - before; j < n; ++j) {
      NoteAppended(points[j].t);
    }
    return status;
  }

  Status AppendBatch(std::span<const double> ts,
                     std::span<const double> vals) override {
    const size_t before = inner_->points_seen();
    Status status;
    {
      Span span(kFilterAppend);
      status = inner_->AppendBatch(ts, vals);
    }
    for (size_t j = 0, n = inner_->points_seen() - before; j < n; ++j) {
      NoteAppended(ts[j]);
    }
    return status;
  }

  std::string_view name() const override { return inner_->name(); }
  RecordingCostModel cost_model() const override {
    return inner_->cost_model();
  }
  std::vector<FilterCounter> Counters() const override {
    return inner_->Counters();
  }

 protected:
  // The base Append has validated the point once already; the inner
  // filter validates it again (one check per point of tracing overhead).
  Status AppendValidated(const DataPoint& point) override {
    Span span(kFilterAppend);
    return inner_->Append(point);
  }
  Status FinishImpl() override {
    Span span(kFilterFinish);
    return inner_->Finish();
  }

 private:
  TimedFilter(std::unique_ptr<Filter> inner, std::unique_ptr<TimingSink> sink)
      : Filter(inner->options()),
        sink_(std::move(sink)),
        inner_(std::move(inner)) {}

  std::unique_ptr<TimingSink> sink_;  // outlives inner_, which emits into it
  std::unique_ptr<Filter> inner_;
};

/// Times WireCodec::Flush (encode) and WireCodec::Decode (one call per
/// frame). Encode runs inside TimingSink's span already.
class TimedCodec final : public WireCodec {
 public:
  explicit TimedCodec(std::unique_ptr<WireCodec> inner)
      : inner_(std::move(inner)) {}
  Status Encode(const WireRecord& record, Channel* channel) override {
    return inner_->Encode(record, channel);
  }
  Status Flush(Channel* channel) override {
    Span span(kEncodeFlush);
    return inner_->Flush(channel);
  }
  Status Decode(std::span<const uint8_t> frame,
                std::vector<WireRecord>* out) override {
    Span span(kDecodeFrame);
    return inner_->Decode(frame, out);
  }
  size_t EncodedSizeBound(WireRecordType type, size_t dims) const override {
    return inner_->EncodedSizeBound(type, dims);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<WireCodec> inner_;
};

/// Times StreamStorage::Append.
class TimedStreamStorage final : public StreamStorage {
 public:
  explicit TimedStreamStorage(StreamStorage* inner) : inner_(inner) {}
  Status Append(const Segment& segment) override {
    Span span(kStorageAppend);
    return inner_->Append(segment);
  }
  const SegmentStore* store() const override { return inner_->store(); }
  uint64_t bytes_written() const override { return inner_->bytes_written(); }

 private:
  StreamStorage* inner_;  // owned by the wrapped backend
};

/// Times a backend's Open/Flush/Close and its streams' Appends.
class TimedStorageBackend final : public StorageBackend {
 public:
  explicit TimedStorageBackend(std::unique_ptr<StorageBackend> inner)
      : inner_(std::move(inner)) {}
  Status Open() override {
    Span span(kStorageOpen);
    return inner_->Open();
  }
  Result<StreamStorage*> OpenStream(std::string_view key,
                                    size_t dimensions) override {
    PLASTREAM_ASSIGN_OR_RETURN(StreamStorage * handle,
                               inner_->OpenStream(key, dimensions));
    if (handle == nullptr) return handle;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<TimedStreamStorage>& timed = streams_[std::string(key)];
    if (timed == nullptr) timed = std::make_unique<TimedStreamStorage>(handle);
    return timed.get();
  }
  std::vector<std::string> StreamKeys() const override {
    return inner_->StreamKeys();
  }
  const StreamStorage* FindStream(std::string_view key) const override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = streams_.find(key);
      if (it != streams_.end()) return it->second.get();
    }
    return inner_->FindStream(key);
  }
  Status Flush() override {
    Span span(kStorageFlush);
    return inner_->Flush();
  }
  Status Close() override {
    Span span(kStorageClose);
    return inner_->Close();
  }
  uint64_t bytes_written() const override { return inner_->bytes_written(); }
  StorageHealth Health() const override { return inner_->Health(); }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<StorageBackend> inner_;
  mutable std::mutex mutex_;  // guards streams_
  std::map<std::string, std::unique_ptr<TimedStreamStorage>, std::less<>>
      streams_;
};

/// Times TransportLink::SendFrame/Finish.
class TimedLink final : public TransportLink {
 public:
  explicit TimedLink(std::unique_ptr<TransportLink> inner)
      : inner_(std::move(inner)) {}
  Status SendFrame(std::span<const uint8_t> frame) override {
    Span span(kTransportSend);
    return inner_->SendFrame(frame);
  }
  Status Finish() override {
    Span span(kTransportFinish);
    return inner_->Finish();
  }

 private:
  std::unique_ptr<TransportLink> inner_;
};

/// Times Transport::Connect/Flush and hands out TimedLinks.
class TimedTransport final : public Transport {
 public:
  explicit TimedTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  bool remote() const override { return inner_->remote(); }
  Status Connect(std::string_view codec_spec) override {
    Span span(kTransportConnect);
    return inner_->Connect(codec_spec);
  }
  Result<std::unique_ptr<TransportLink>> OpenLink(std::string_view key,
                                                  uint16_t dims) override {
    PLASTREAM_ASSIGN_OR_RETURN(auto link, inner_->OpenLink(key, dims));
    return std::unique_ptr<TransportLink>(new TimedLink(std::move(link)));
  }
  Status Flush() override {
    Span span(kTransportFlush);
    return inner_->Flush();
  }
  TransportStats GetStats() const override { return inner_->GetStats(); }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Transport> inner_;
};

/// Registries whose every built-in family is built by the global registry
/// and wrapped in its timing decorator.
struct TimedRegistries {
  FilterRegistry filters;
  CodecRegistry codecs;
  StorageRegistry storage;
  TransportRegistry transports;
};

inline const TimedRegistries& Timed() {
  static const TimedRegistries registries = [] {
    TimedRegistries r;
    for (const std::string& name : FilterRegistry::Global().ListFamilies()) {
      (void)r.filters.Register(name, &TimedFilter::Make);
    }
    for (const std::string& name : CodecRegistry::Global().ListCodecs()) {
      (void)r.codecs.Register(
          name,
          [](const FilterSpec& spec) -> Result<std::unique_ptr<WireCodec>> {
            PLASTREAM_ASSIGN_OR_RETURN(
                auto inner, CodecRegistry::Global().MakeCodec(spec));
            return std::unique_ptr<WireCodec>(new TimedCodec(std::move(inner)));
          });
    }
    for (const std::string& name : StorageRegistry::Global().ListBackends()) {
      (void)r.storage.Register(
          name,
          [](const FilterSpec& spec)
              -> Result<std::unique_ptr<StorageBackend>> {
            PLASTREAM_ASSIGN_OR_RETURN(
                auto inner, StorageRegistry::Global().MakeBackend(spec));
            return std::unique_ptr<StorageBackend>(
                new TimedStorageBackend(std::move(inner)));
          });
    }
    for (const std::string& name :
         TransportRegistry::Global().ListTransports()) {
      (void)r.transports.Register(
          name, [](const FilterSpec& spec) -> Result<std::unique_ptr<Transport>> {
            PLASTREAM_ASSIGN_OR_RETURN(
                auto inner, TransportRegistry::Global().MakeTransport(spec));
            return std::unique_ptr<Transport>(
                new TimedTransport(std::move(inner)));
          });
    }
    return r;
  }();
  return registries;
}

}  // namespace plastream::e2e

#endif  // PLASTREAM_BENCH_E2E_TIMED_LAYERS_H_
