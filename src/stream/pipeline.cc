// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/pipeline.h"

#include <algorithm>
#include <utility>

namespace plastream {

Pipeline::Builder::Builder()
    : registry_(&FilterRegistry::Global()),
      codec_registry_(&CodecRegistry::Global()),
      storage_registry_(&StorageRegistry::Global()),
      transport_registry_(&TransportRegistry::Global()) {}

Pipeline::Builder& Pipeline::Builder::DefaultSpec(FilterSpec spec) {
  default_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::DefaultSpec(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return DefaultSpec(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::PerKeySpec(std::string_view key,
                                                 FilterSpec spec) {
  per_key_.insert_or_assign(std::string(key), std::move(spec));
  return *this;
}

Pipeline::Builder& Pipeline::Builder::PerKeySpec(std::string_view key,
                                                 std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return PerKeySpec(key, std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::PrefixSpec(std::string_view prefix,
                                                 FilterSpec spec) {
  // Longest prefix first; a repeated prefix overrides in place.
  const auto it = std::find_if(
      prefixes_.begin(), prefixes_.end(),
      [prefix](const auto& entry) { return entry.first == prefix; });
  if (it != prefixes_.end()) {
    it->second = std::move(spec);
    return *this;
  }
  const auto pos = std::find_if(
      prefixes_.begin(), prefixes_.end(), [prefix](const auto& entry) {
        return entry.first.size() < prefix.size();
      });
  prefixes_.emplace(pos, std::string(prefix), std::move(spec));
  return *this;
}

Pipeline::Builder& Pipeline::Builder::PrefixSpec(std::string_view prefix,
                                                 std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return PrefixSpec(prefix, std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::Storage(FilterSpec spec) {
  storage_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Storage(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Storage(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::WithStorageRegistry(
    const StorageRegistry* registry) {
  storage_registry_ = registry;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Codec(FilterSpec spec) {
  codec_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Codec(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Codec(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::WithCodecRegistry(
    const CodecRegistry* registry) {
  codec_registry_ = registry;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Transport(FilterSpec spec) {
  transport_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Transport(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Transport(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::WithTransportRegistry(
    const TransportRegistry* registry) {
  transport_registry_ = registry;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Ingest(FilterSpec spec) {
  ingest_spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Ingest(std::string_view spec_text) {
  auto parsed = FilterSpec::Parse(spec_text);
  if (!parsed.ok()) {
    if (deferred_.ok()) deferred_ = parsed.status();
    return *this;
  }
  return Ingest(std::move(parsed).value());
}

Pipeline::Builder& Pipeline::Builder::Shards(size_t n) {
  shards_ = n;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Threads(bool enable) {
  threaded_ = enable;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::QueueCapacity(size_t points) {
  queue_capacity_ = points;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::WithRegistry(
    const FilterRegistry* registry) {
  registry_ = registry;
  return *this;
}

Result<std::unique_ptr<Pipeline>> Pipeline::Builder::Build() {
  PLASTREAM_RETURN_NOT_OK(deferred_);
  if (registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline registry is null");
  }
  if (codec_registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline codec registry is null");
  }
  if (storage_registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline storage registry is null");
  }
  if (transport_registry_ == nullptr) {
    return Status::InvalidArgument("Pipeline transport registry is null");
  }
  if (!default_spec_.has_value() && per_key_.empty() && prefixes_.empty()) {
    return Status::InvalidArgument(
        "Pipeline has no filter specs: call DefaultSpec, PerKeySpec or "
        "PrefixSpec");
  }
  if (shards_ == 0) {
    return Status::InvalidArgument("Pipeline needs Shards >= 1");
  }
  if (threaded_ && queue_capacity_ == 0) {
    return Status::InvalidArgument(
        "Pipeline threaded mode needs QueueCapacity >= 1");
  }
  // Fail at build time, not first append: every configured family must be
  // registered and every configured spec must produce a filter.
  if (default_spec_.has_value()) {
    PLASTREAM_RETURN_NOT_OK(
        registry_->MakeFilter(*default_spec_, nullptr).status());
  }
  for (const auto& [key, spec] : per_key_) {
    PLASTREAM_RETURN_NOT_OK(registry_->MakeFilter(spec, nullptr).status());
  }
  for (const auto& [prefix, spec] : prefixes_) {
    PLASTREAM_RETURN_NOT_OK(registry_->MakeFilter(spec, nullptr).status());
  }
  // Same early-failure contract for the codec: an unknown codec or a bad
  // codec parameter is a Build()-time error, not a first-append surprise.
  FilterSpec codec_spec;
  codec_spec.family = "frame";
  if (codec_spec_.has_value()) codec_spec = *codec_spec_;
  PLASTREAM_RETURN_NOT_OK(codec_registry_->MakeCodec(codec_spec).status());
  // The transport is built AND connected here: an unknown family, a bad
  // endpoint spec or an unreachable collector all fail the build. The
  // default "inproc" transport keeps everything in-process.
  FilterSpec transport_spec;
  transport_spec.family = "inproc";
  if (transport_spec_.has_value()) transport_spec = *transport_spec_;
  PLASTREAM_ASSIGN_OR_RETURN(
      auto transport, transport_registry_->MakeTransport(transport_spec));
  if (transport->remote() && storage_spec_.has_value() &&
      storage_spec_->family != "none") {
    return Status::InvalidArgument(
        "Storage('" + storage_spec_->Format() +
        "') conflicts with remote transport '" + transport_spec.Format() +
        "': the collector owns the archives — configure storage there, or "
        "pass Storage(\"none\")");
  }
  PLASTREAM_RETURN_NOT_OK(transport->Connect(codec_spec.Format()));
  // The storage backend is built AND opened here: an unknown backend, a
  // bad parameter, an unwritable path or an unrecoverable archive all
  // fail the build. File backends run crash recovery inside Open().
  // With a remote transport there is nothing to archive locally.
  FilterSpec storage_spec;
  storage_spec.family = transport->remote() ? "none" : "memory";
  if (storage_spec_.has_value()) storage_spec = *storage_spec_;
  PLASTREAM_ASSIGN_OR_RETURN(auto storage,
                             storage_registry_->MakeBackend(storage_spec));
  PLASTREAM_RETURN_NOT_OK(storage->Open());
  ShardedFilterBank::Options bank_options;
  bank_options.shards = shards_;
  bank_options.threaded = threaded_;
  bank_options.queue_capacity = queue_capacity_;
  if (ingest_spec_.has_value()) {
    // An unknown policy family, a bad parameter or an inconsistent
    // combination (dup=last without a reorder buffer) fails the build.
    PLASTREAM_ASSIGN_OR_RETURN(bank_options.ingest,
                               IngestPolicy::FromSpec(*ingest_spec_));
  }
  return std::unique_ptr<Pipeline>(new Pipeline(
      std::move(default_spec_), std::move(per_key_), std::move(prefixes_),
      registry_, std::move(codec_spec), codec_registry_,
      std::move(storage_spec), std::move(storage),
      std::move(transport_spec), std::move(transport),
      std::move(bank_options)));
}

Pipeline::Pipeline(std::optional<FilterSpec> default_spec,
                   std::map<std::string, FilterSpec, std::less<>> per_key,
                   std::vector<std::pair<std::string, FilterSpec>> prefixes,
                   const FilterRegistry* registry, FilterSpec codec_spec,
                   const CodecRegistry* codec_registry,
                   FilterSpec storage_spec,
                   std::unique_ptr<StorageBackend> storage,
                   FilterSpec transport_spec,
                   std::unique_ptr<class Transport> transport,
                   ShardedFilterBank::Options bank_options)
    : default_spec_(std::move(default_spec)),
      per_key_(std::move(per_key)),
      prefixes_(std::move(prefixes)),
      registry_(registry),
      codec_spec_(std::move(codec_spec)),
      codec_registry_(codec_registry),
      storage_spec_(std::move(storage_spec)),
      storage_(std::move(storage)),
      transport_spec_(std::move(transport_spec)),
      transport_(std::move(transport)),
      ingest_policy_(bank_options.ingest) {
  // The factory runs on the thread that processes the key's first point
  // and hands the bank the filter plus the Stream it emits into; the bank
  // owns both, so the post-append hook gets the Stream with no lookup.
  auto factory =
      [this](std::string_view key) -> Result<FilterBank::NewStream> {
    PLASTREAM_ASSIGN_OR_RETURN(const FilterSpec spec, SpecFor(key));
    auto stream = std::make_unique<Stream>();
    PLASTREAM_ASSIGN_OR_RETURN(stream->codec,
                               codec_registry_->MakeCodec(codec_spec_));
    stream->transmitter.emplace(&stream->channel, stream->codec.get());
    const size_t dims = spec.options.epsilon.size();
    if (transport_->remote()) {
      // Frames leave through the transport; the collector archives.
      PLASTREAM_ASSIGN_OR_RETURN(
          stream->link,
          transport_->OpenLink(key, static_cast<uint16_t>(dims)));
    } else {
      // The backend hands back this stream's archive handle (or nullptr
      // for "none"); a file backend that recovered the key returns the
      // handle with every pre-crash segment already queryable.
      PLASTREAM_ASSIGN_OR_RETURN(stream->storage,
                                 storage_->OpenStream(key, dims));
    }
    PLASTREAM_ASSIGN_OR_RETURN(auto filter,
                               registry_->MakeFilter(spec, stream.get()));
    return FilterBank::NewStream(std::move(filter), std::move(stream));
  };
  bank_options.post_append = [](StreamContext* stream) {
    return static_cast<Stream*>(stream)->Drain();
  };
  bank_ = ShardedFilterBank::Create(std::move(factory),
                                    std::move(bank_options))
              .value();
}

Result<FilterSpec> Pipeline::SpecFor(std::string_view key) const {
  const auto it = per_key_.find(key);
  if (it != per_key_.end()) return it->second;
  // prefixes_ is ordered longest-first, so the first hit is the most
  // specific wildcard.
  for (const auto& [prefix, spec] : prefixes_) {
    if (key.starts_with(prefix)) return spec;
  }
  if (default_spec_.has_value()) return *default_spec_;
  return Status::NotFound("no filter spec for stream '" + std::string(key) +
                          "' and no default spec");
}

Status Pipeline::Append(std::string_view key, const DataPoint& point) {
  // Filtering, encoding and archiving run inside the bank, on the shard
  // that owns the key; its post-append hook (Stream::Drain) ships or
  // recycles the frames and reports the stream's sticky errors.
  return bank_->Append(key, point);
}

Status Pipeline::Append(std::string_view key, double t, double value) {
  return Append(key, DataPoint::Scalar(t, value));
}

Status Pipeline::AppendBatch(std::string_view key,
                             std::span<const DataPoint> points) {
  // The bank batches the shard lock/queue hop and runs the post-append
  // hook (Stream::Drain) once for the whole key-group.
  return bank_->AppendBatch(key, points);
}

Status Pipeline::AppendBatch(std::string_view key, std::span<const double> ts,
                             std::span<const double> vals) {
  return bank_->AppendBatch(key, ts, vals);
}

void Pipeline::Stream::OnSegment(const Segment& segment) {
  transmitter->OnSegment(segment);
  if (link == nullptr) RecycleFrames();
  if (storage != nullptr && archive_status.ok()) {
    archive_status = storage->Append(segment);
  }
}

void Pipeline::Stream::OnProvisionalLine(const ProvisionalLine& line) {
  transmitter->OnProvisionalLine(line);
  if (link == nullptr) RecycleFrames();
}

void Pipeline::Stream::RecycleFrames() {
  while (std::optional<std::vector<uint8_t>> frame = channel.Pop()) {
    channel.Recycle(std::move(*frame));
  }
}

Status Pipeline::Stream::Drain() {
  // Runs after every append: test the sticky errors without copying them.
  if (!transmitter->status().ok()) return transmitter->status();
  if (!archive_status.ok()) return archive_status;
  if (link == nullptr) return Status::OK();
  // The frame goes out over the transport, which may block on backpressure
  // and reconnect under the hood.
  while (std::optional<std::vector<uint8_t>> frame = channel.Pop()) {
    PLASTREAM_RETURN_NOT_OK(link->SendFrame(*frame));
    channel.Recycle(std::move(*frame));
  }
  return Status::OK();
}

Status Pipeline::Stream::Flush() {
  PLASTREAM_RETURN_NOT_OK(transmitter->Flush());
  if (link == nullptr) RecycleFrames();
  return Drain();
}

Status Pipeline::Flush() {
  // Quiesce the shard workers first (threaded mode), then force every
  // stream's codec to emit what it still buffers and drain it. Callers
  // hold the between-phases contract (no concurrent Append), so touching
  // stream state here is safe.
  PLASTREAM_RETURN_NOT_OK(bank_->Flush());
  PLASTREAM_RETURN_NOT_OK(bank_->ForEachContext([](StreamContext& stream) {
    return static_cast<Stream&>(stream).Flush();
  }));
  // Durability point: everything archived so far reaches the backend's
  // medium — and, over a remote transport, everything sent is
  // acknowledged by the collector — before Flush returns.
  PLASTREAM_RETURN_NOT_OK(transport_->Flush());
  return storage_->Flush();
}

Status Pipeline::Finish() {
  if (finished_) return Status::OK();
  // Joins shard workers (threaded mode) and finishes every filter, which
  // emits each stream's final segments; the codec flush then emits
  // anything a batching codec still buffers, and remote links close.
  PLASTREAM_RETURN_NOT_OK(bank_->FinishAll());
  PLASTREAM_RETURN_NOT_OK(bank_->ForEachContext([](StreamContext& context) {
    Stream& stream = static_cast<Stream&>(context);
    PLASTREAM_RETURN_NOT_OK(stream.Flush());
    return stream.link == nullptr ? Status::OK() : stream.link->Finish();
  }));
  finished_ = true;
  // Wait for the collector's acknowledgment of every frame (remote), then
  // finalize the archive medium; the in-memory stores stay queryable.
  PLASTREAM_RETURN_NOT_OK(transport_->Flush());
  return storage_->Close();
}

std::vector<std::string> Pipeline::Keys() const {
  // Streams recovered from a pre-existing archive exist in the backend
  // before (and whether or not) anything re-appends to them; the key
  // list is the union of both sides.
  std::vector<std::string> keys = bank_->Keys();
  for (std::string& key : storage_->StreamKeys()) {
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

const Pipeline::Stream* Pipeline::Find(std::string_view key) const {
  return static_cast<const Stream*>(bank_->Context(key));
}

Result<std::vector<Segment>> Pipeline::Segments(std::string_view key) const {
  if (transport_->remote()) {
    return Status::FailedPrecondition(
        "segments live on the collector with a remote transport ('" +
        transport_spec_.Format() + "'); query the CollectorServer");
  }
  if (const SegmentStore* store = Store(key); store != nullptr) {
    return std::vector<Segment>(store->segments().begin(),
                                store->segments().end());
  }
  if (!bank_->Contains(key)) {
    return Status::NotFound("unknown stream '" + std::string(key) + "'");
  }
  return Status::FailedPrecondition(
      "storage '" + storage_spec_.Format() +
      "' retains no segments; configure an archive such as \"memory\" to "
      "read them back");
}

Result<PiecewiseLinearFunction> Pipeline::Reconstruction(
    std::string_view key) const {
  PLASTREAM_ASSIGN_OR_RETURN(std::vector<Segment> segments, Segments(key));
  return PiecewiseLinearFunction::Make(std::move(segments));
}

const SegmentStore* Pipeline::Store(std::string_view key) const {
  // Live and recovered streams alike: the backend knows both.
  const StreamStorage* archive = storage_->FindStream(key);
  return archive == nullptr ? nullptr : archive->store();
}

const Filter* Pipeline::GetFilter(std::string_view key) const {
  return bank_->GetFilter(key);
}

Result<Pipeline::StreamStats> Pipeline::StatsFor(std::string_view key) const {
  // A stream recovered from a pre-existing archive but untouched this run
  // has archive stats and nothing else (no filter, no transport).
  const Stream* stream = Find(key);
  const StreamStorage* archive = storage_->FindStream(key);
  if (stream == nullptr && archive == nullptr) {
    return Status::NotFound("unknown stream '" + std::string(key) + "'");
  }
  StreamStats stats;
  if (stream != nullptr) {
    const Filter* filter = bank_->GetFilter(key);
    stats.points = filter->points_seen();
    stats.segments = filter->segments_emitted();
    stats.records_sent = stream->transmitter->records_sent();
    stats.frames_sent = stream->channel.frames_sent();
    stats.bytes_sent = stream->channel.bytes_sent();
  }
  if (archive != nullptr) {
    stats.segments_archived = archive->store()->segment_count();
    stats.storage_bytes = static_cast<size_t>(archive->bytes_written());
  }
  return stats;
}

Pipeline::PipelineStats Pipeline::Stats() const {
  PipelineStats stats;
  const FilterBank::BankStats bank = bank_->Stats();
  stats.points = bank.points;
  stats.segments = bank.segments;
  // One lock at a time (a bank shard mutex is never nested with the
  // backend's): snapshot the keys, then look each side up independently.
  for (const std::string& key : Keys()) {
    KeyStats key_stats;
    key_stats.key = key;
    if (const Stream* stream = Find(key); stream != nullptr) {
      stats.records_sent += stream->transmitter->records_sent();
      stats.frames_sent += stream->channel.frames_sent();
      stats.bytes_sent += stream->channel.bytes_sent();
      const Filter* filter = bank_->GetFilter(key);
      stats.bytes_raw += filter->points_seen() * (filter->dimensions() + 1) *
                         sizeof(double);
    }
    // Archived this run or recovered from a pre-existing archive.
    if (const StreamStorage* archive = storage_->FindStream(key);
        archive != nullptr) {
      key_stats.segments = archive->store()->segment_count();
      key_stats.storage_bytes = static_cast<size_t>(archive->bytes_written());
    }
    stats.per_key.push_back(std::move(key_stats));
  }
  stats.streams = stats.per_key.size();
  // Backend-level total (includes framing a stream cannot be billed for,
  // e.g. the archive header).
  stats.storage_bytes = static_cast<size_t>(storage_->bytes_written());
  stats.transport = transport_->GetStats();
  stats.ingest = bank_->IngestStats();
  stats.storage_health = storage_->Health();
  return stats;
}

Pipeline::HealthSnapshot Pipeline::Health() const {
  HealthSnapshot health;
  health.storage = storage_->Health();
  health.state = health.storage.state;
  health.cause = health.storage.cause;
  return health;
}

std::vector<FilterCounter> Pipeline::AggregateCounters() const {
  return bank_->AggregateCounters();
}

}  // namespace plastream
