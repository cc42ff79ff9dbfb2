// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Pipeline: the five-line collector. One object composes the whole stream
// stack — a FilterBank routing keyed points into spec-built filters, a
// per-stream Transmitter whose wire codec accounts the bytes a link would
// carry (or ships them to a remote collector), and a per-stream
// SegmentStore archive answering error-bounded range queries. In process,
// each filter emits straight into its stream's archive; nothing is decoded:
//
//   auto pipeline = Pipeline::Builder()
//                       .DefaultSpec("slide(eps=0.05)")
//                       .PerKeySpec("db-1.iops", "swing(eps=2,max_lag=64)")
//                       .Codec("batch(n=32)")          // wire format by spec
//                       .Storage("file(path=segments.plar)")  // durable log
//                       .Build().value();
//   pipeline->Append("web-1.cpu", t, value);   // ... stream points in ...
//   pipeline->Finish();
//   auto mean = pipeline->Store("web-1.cpu")->Aggregate(t0, t1, 0)->mean;
//
// Every answer served from the store is within the stream's ε of the raw
// signal — the paper's precision contract carried end to end.

#ifndef PLASTREAM_STREAM_PIPELINE_H_
#define PLASTREAM_STREAM_PIPELINE_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter_registry.h"
#include "core/filter_spec.h"
#include "core/reconstruction.h"
#include "core/segment_store.h"
#include "storage/storage_backend.h"
#include "stream/channel.h"
#include "stream/sharded_filter_bank.h"
#include "stream/transmitter.h"
#include "stream/wire_codec.h"
#include "transport/transport.h"

namespace plastream {

/// A keyed collector: spec-configured filters in front, wire transport in
/// the middle, queryable segment archives behind.
///
/// Thread-safety: with Builder::Shards(n) the pipeline accepts concurrent
/// Append calls from multiple producer threads — appends to keys on
/// different shards run in parallel, and each key's whole path (filter,
/// wire codec, archive) stays serialized on its shard. Points of one key
/// must still arrive in time order, so concurrent producers should own
/// disjoint key sets. Finish() and the read-side accessors must not race
/// with Append; call them after producers have stopped (or, in threaded
/// mode, after Flush()). The default single-shard pipeline behaves exactly
/// as before and adds one uncontended lock per append.
class Pipeline {
 public:
  /// Configures and constructs a Pipeline.
  class Builder {
   public:
    /// A builder targeting the global filter registry.
    Builder();

    /// Spec used for every key without a PerKeySpec override.
    Builder& DefaultSpec(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& DefaultSpec(std::string_view spec_text);

    /// Spec override for one stream key.
    Builder& PerKeySpec(std::string_view key, FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& PerKeySpec(std::string_view key, std::string_view spec_text);

    /// Spec for every key starting with `prefix` — the `web-*`
    /// wildcard of config files. An exact PerKeySpec beats any prefix;
    /// among prefixes the longest match wins; DefaultSpec is the
    /// fallback.
    Builder& PrefixSpec(std::string_view prefix, FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& PrefixSpec(std::string_view prefix, std::string_view spec_text);

    /// Storage backend for the per-stream segment archives, as a
    /// storage spec (e.g. "memory" — the default, "none",
    /// "file(path=segments.plar,codec=delta,sync=flush)"). The backend
    /// is created and Open()ed at Build(), so an unwritable archive
    /// path or a torn file that cannot be recovered fails the build,
    /// not the first append.
    Builder& Storage(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Storage(std::string_view spec_text);

    /// Uses `registry` for storage specs instead of
    /// StorageRegistry::Global(); `registry` is borrowed and must
    /// outlive the builder's Build() call.
    Builder& WithStorageRegistry(const StorageRegistry* registry);

    /// Loads builder configuration from the INI-style file at `path`
    /// (see FromConfigString for the format). Read or parse failures
    /// surface at Build().
    Builder& FromConfigFile(const std::string& path);

    /// Loads builder configuration from INI-style `text`: top-level
    /// `key-pattern = filter-spec` lines (an exact key, a `prefix*`
    /// wildcard, or `*` alone for the default spec) plus a `[pipeline]`
    /// section with `codec`, `storage` and `shards` keys. `#`/`;` start
    /// comments. `context` names the source in error messages
    /// (e.g. the file path); parse errors surface at Build().
    Builder& FromConfigString(std::string_view text,
                              std::string_view context = "config");

    /// Wire codec used by every stream's transport, as a codec spec
    /// (e.g. "frame", "delta(varint=true)", "batch(n=32,crc=crc32c)";
    /// default "frame"). Every stream gets its own codec instance, so
    /// sharded and threaded ingest stay lock-free on the encode path.
    Builder& Codec(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Codec(std::string_view spec_text);

    /// Uses `registry` for codec specs instead of CodecRegistry::Global();
    /// `registry` is borrowed and must outlive the pipeline.
    Builder& WithCodecRegistry(const CodecRegistry* registry);

    /// Where encoded frames go, as a transport spec (default "inproc" —
    /// frames are only counted and each stream archives in process;
    /// "tcp(host=...,port=...)"
    /// or "uds(path=...)" ship them to a CollectorServer instead). With
    /// a remote transport the collector owns decode and archive state:
    /// Segments/Reconstruction error with FailedPrecondition, Store
    /// returns nullptr, and Storage() must stay unset (or "none") — the
    /// archive spec belongs to the collector. The transport connects at
    /// Build(), so an unreachable collector fails the build.
    Builder& Transport(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Transport(std::string_view spec_text);

    /// Uses `registry` for transport specs instead of
    /// TransportRegistry::Global(); `registry` is borrowed and must
    /// outlive the builder's Build() call.
    Builder& WithTransportRegistry(const TransportRegistry* registry);

    /// Ingest-guard policy applied in front of every stream's filter, as
    /// a policy spec: "pass" (the default — no guard stage, no overhead)
    /// or "guard(reorder=N,nan=reject|skip|gap,max_dt=SECONDS,
    /// dup=error|first|last)". See stream/ingest_guard.h for the
    /// semantics; guard counters surface in Stats().ingest. A bad policy
    /// spec fails at Build().
    Builder& Ingest(FilterSpec spec);
    /// Parses `spec_text`; a parse failure surfaces at Build().
    Builder& Ingest(std::string_view spec_text);

    /// Hash-partitions keys across `n` shards (default 1) so producers on
    /// different shards ingest in parallel. 0 is an error at Build().
    Builder& Shards(size_t n);

    /// Gives every shard a dedicated worker thread fed by a bounded ingest
    /// queue (thread-affinity mode). Append then enqueues and returns;
    /// filter errors surface on later Appends, Flush() and Finish().
    Builder& Threads(bool enable = true);

    /// Per-shard ingest queue capacity for Threads() mode (default 1024);
    /// Append blocks while the target shard's queue is full. 0 is an error
    /// at Build() when threads are enabled.
    Builder& QueueCapacity(size_t points);

    /// Uses `registry` instead of FilterRegistry::Global(); `registry` is
    /// borrowed and must outlive the pipeline.
    Builder& WithRegistry(const FilterRegistry* registry);

    /// Builds the pipeline. Errors when no spec was configured, a spec
    /// string or config file failed to parse, a spec names an
    /// unregistered filter family, codec or storage backend, the storage
    /// backend fails to open (unwritable or unrecoverable archive file),
    /// or the sharding configuration is invalid (Shards(0),
    /// QueueCapacity(0)).
    Result<std::unique_ptr<Pipeline>> Build();

   private:
    Status deferred_ = Status::OK();  // first spec-string parse failure
    std::optional<FilterSpec> default_spec_;
    std::map<std::string, FilterSpec, std::less<>> per_key_;
    std::vector<std::pair<std::string, FilterSpec>> prefixes_;
    std::optional<FilterSpec> codec_spec_;
    std::optional<FilterSpec> storage_spec_;
    std::optional<FilterSpec> transport_spec_;
    std::optional<FilterSpec> ingest_spec_;
    size_t shards_ = 1;
    bool threaded_ = false;
    size_t queue_capacity_ = 1024;
    const FilterRegistry* registry_;
    const CodecRegistry* codec_registry_;
    const StorageRegistry* storage_registry_;
    const TransportRegistry* transport_registry_;
  };

  /// Pipelines own per-stream transports and are not copyable.
  Pipeline(const Pipeline&) = delete;
  /// Pipelines own per-stream transports and are not copyable.
  Pipeline& operator=(const Pipeline&) = delete;

  /// Routes one point into the stream named `key`, creating its filter
  /// chain on first use. Errors with NotFound when the key has no spec
  /// (no default and no per-key entry), plus all Filter::Append errors.
  /// A storage failure is sticky per stream: the call that archived the
  /// failing segment returns it (in threaded mode: the next Flush or
  /// Finish), and so does every later Append to the stream, Flush and
  /// Finish.
  Status Append(std::string_view key, const DataPoint& point);

  /// Scalar-stream convenience overload.
  Status Append(std::string_view key, double t, double value);

  /// Routes a time-ordered batch of points into the stream named `key`,
  /// paying the per-append costs once per batch instead of once per
  /// point: one shard hash, one lock acquisition (or one ingest-queue
  /// slot in threaded mode), one filter lookup, and one transport drain.
  /// Segments, wire bytes and archives are byte-identical to appending
  /// the same points one at a time. Stops at the first error, leaving
  /// earlier points applied.
  Status AppendBatch(std::string_view key, std::span<const DataPoint> points);

  /// Columnar batch append: timestamps and dimension-major values as flat
  /// column arrays (layout per Filter::AppendBatch(ts, vals)) — the
  /// zero-copy entry for CSV/Arrow-style sources. Identical semantics and
  /// byte-identical output to the row-batch overload.
  Status AppendBatch(std::string_view key, std::span<const double> ts,
                     std::span<const double> vals);

  /// Blocks (threaded mode) until every enqueued point has been filtered,
  /// then flushes each stream's codec — a buffering codec like "batch"
  /// holds records until flushed — and drains the transports, then the
  /// archive medium. Reports the first deferred error (including a
  /// stream's sticky archive failure, see Append); the
  /// pipeline stays open for more appends. Call between producer phases
  /// (never concurrently with Append) to make the read accessors safe and
  /// complete mid-stream.
  Status Flush();

  /// Finishes every filter (joining shard workers first), drains the
  /// transports, and completes the archives. Idempotent; Append afterwards
  /// is an error.
  Status Finish();

  /// Stream keys seen so far, sorted — including streams recovered from
  /// a pre-existing archive file that nothing has re-appended to yet.
  std::vector<std::string> Keys() const;

  /// A copy of `key`'s archived segments (Store(key)'s chain, including
  /// any recovered from a pre-existing archive). NotFound for an unknown
  /// key; FailedPrecondition when nothing is retained — with a remote
  /// transport or Storage("none").
  Result<std::vector<Segment>> Segments(std::string_view key) const;

  /// Queryable reconstruction of `key`'s archived segments; errors as
  /// Segments.
  Result<PiecewiseLinearFunction> Reconstruction(std::string_view key) const;

  /// The stream's archive, or nullptr for an unknown key or a pipeline
  /// built with Storage("none"). With a file backend the store also
  /// contains every segment recovered from a pre-existing archive, and
  /// recovered streams are queryable here before (and without) any new
  /// Append to them. GetFilter only knows streams that are live this run.
  const SegmentStore* Store(std::string_view key) const;

  /// The stream's filter (for counters/statistics), or nullptr.
  const Filter* GetFilter(std::string_view key) const;

  /// The spec a given key resolves to (per-key override or default), or
  /// NotFound when the pipeline has no spec for it.
  Result<FilterSpec> SpecFor(std::string_view key) const;

  /// Transport and archive statistics of one stream.
  struct StreamStats {
    size_t points = 0;         ///< samples accepted by the filter
    size_t segments = 0;       ///< segments the filter emitted
    size_t records_sent = 0;   ///< wire records on this stream's channel
    size_t frames_sent = 0;    ///< channel frames (== records for "frame")
    size_t bytes_sent = 0;     ///< encoded bytes on this stream's channel
    size_t segments_archived = 0;  ///< segments in the storage backend
    size_t storage_bytes = 0;  ///< bytes this stream appended to storage
  };

  /// Per-stream statistics; NotFound for an unknown key. A stream
  /// recovered from a pre-existing archive but untouched this run
  /// reports only its archive fields (no points, no transport).
  Result<StreamStats> StatsFor(std::string_view key) const;

  /// Per-key archive statistics inside PipelineStats, so monitors need
  /// not recompute them from the stores.
  struct KeyStats {
    std::string key;           ///< the stream's key
    size_t segments = 0;       ///< segments archived for this key
    size_t storage_bytes = 0;  ///< bytes this key appended to storage
  };

  /// Aggregate transport and archive statistics across every stream.
  struct PipelineStats {
    size_t streams = 0;            ///< distinct keys (live + recovered)
    size_t points = 0;             ///< samples accepted across streams
    size_t segments = 0;           ///< segments the filters emitted
    size_t records_sent = 0;       ///< wire records (the paper's recordings)
    size_t frames_sent = 0;        ///< channel frames across streams
    size_t bytes_sent = 0;         ///< encoded bytes on all channels
    size_t bytes_raw = 0;          ///< (t, X) doubles of the raw input
    size_t storage_bytes = 0;      ///< bytes on the storage backend's medium
    /// Transport-level counters (socket bytes, resends, reconnects,
    /// backpressure stalls). All zero for the default inproc transport.
    TransportStats transport;
    /// Ingest-guard decision counters (reorders, late drops, NaN skips,
    /// gap cuts, duplicate resolutions). All zero for the default
    /// pass-through ingest policy.
    IngestGuardStats ingest;
    /// The storage medium's health counters (degradations, dropped
    /// segments, recoveries); always kOk for non-durable backends.
    StorageHealth storage_health;
    std::vector<KeyStats> per_key;  ///< per-key archive stats, sorted by key
  };
  PipelineStats Stats() const;

  /// Pipeline health: whether every durable piece is doing its job, as
  /// opposed to Stats()' throughput counters. Today the signal is the
  /// storage medium (a file backend under `on_error=degrade` keeps
  /// serving ingest with archiving suspended and reports kDegraded here
  /// until the medium recovers); `state` is the roll-up, `cause` says
  /// why it is not kOk.
  struct HealthSnapshot {
    /// Roll-up state: ok (everything healthy), degraded (running with
    /// reduced durability) or failing (a durable piece is lost).
    StorageHealth::State state = StorageHealth::State::kOk;
    /// Why `state` is not kOk; empty when healthy.
    std::string cause;
    /// The storage backend's full health report.
    StorageHealth storage;
  };

  /// Health snapshot; safe to call concurrently with ingest.
  HealthSnapshot Health() const;

  /// Family-specific diagnostic counters summed by name across the filters
  /// of every stream on every shard.
  std::vector<FilterCounter> AggregateCounters() const;

  /// Number of ingest shards.
  size_t shard_count() const { return bank_->shard_count(); }

  /// The codec spec every stream's transport uses (default "frame").
  const FilterSpec& CodecSpec() const { return codec_spec_; }

  /// The storage spec the archives live behind (default "memory";
  /// forced to "none" by a remote transport — the collector archives).
  const FilterSpec& StorageSpec() const { return storage_spec_; }

  /// The transport spec frames leave through (default "inproc").
  const FilterSpec& TransportSpec() const { return transport_spec_; }

  /// The ingest-guard policy in front of every stream's filter (default
  /// pass-through).
  const IngestPolicy& GetIngestPolicy() const { return ingest_policy_; }

  /// The transport instance (for counters); never null.
  const class Transport& GetTransport() const { return *transport_; }

  /// True when frames leave the process (a tcp/uds transport): the
  /// archive lives on the collector, so Segments, Reconstruction and
  /// Store do not answer locally.
  bool remote() const { return transport_->remote(); }

  /// The storage backend, for byte accounting and backend-specific
  /// inspection. Owned by the pipeline; never null.
  const StorageBackend& GetStorageBackend() const { return *storage_; }

  /// True once Finish() has run.
  bool finished() const { return finished_; }

 private:
  // Per-stream wire and archive state, owned by the bank next to the
  // stream's filter, which emits straight into it. Only the stream's shard
  // touches it during ingest, so it needs no lock, and the per-stream codec
  // instance keeps encode lock-free in threaded mode.
  struct Stream final : StreamContext, SegmentSink {
    Stream() = default;
    // The filter and the transmitter hold its address.
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    // Encodes the segment (the wire accounting, or the frames a remote
    // link ships), then archives it.
    void OnSegment(const Segment& segment) override;
    void OnProvisionalLine(const ProvisionalLine& line) override;
    // Reports the first encode or archive failure, then ships queued
    // frames over the link (remote). Inproc frames were recycled as they
    // were encoded, so an inproc stream stops after the two status tests.
    Status Drain();
    // Emits what the codec still buffers, then drains.
    Status Flush();
    // Inproc: hands the encoded frames' buffers back to the channel
    // unread; their bytes are already counted.
    void RecycleFrames();

    // Drain reads link, archive_status and the transmitter's status after
    // every append, so they lead the struct.
    std::unique_ptr<TransportLink> link;   // remote only
    Status archive_status = Status::OK();  // first storage failure, sticky
    // Borrows channel and codec below; its destructor touches neither.
    std::optional<Transmitter> transmitter;
    StreamStorage* storage = nullptr;      // borrowed; null: none or remote
    Channel channel;
    std::unique_ptr<WireCodec> codec;
  };

  Pipeline(std::optional<FilterSpec> default_spec,
           std::map<std::string, FilterSpec, std::less<>> per_key,
           std::vector<std::pair<std::string, FilterSpec>> prefixes,
           const FilterRegistry* registry, FilterSpec codec_spec,
           const CodecRegistry* codec_registry, FilterSpec storage_spec,
           std::unique_ptr<StorageBackend> storage,
           FilterSpec transport_spec,
           std::unique_ptr<class Transport> transport,
           ShardedFilterBank::Options bank_options);

  // The live stream state of `key`, or nullptr.
  const Stream* Find(std::string_view key) const;

  std::optional<FilterSpec> default_spec_;
  std::map<std::string, FilterSpec, std::less<>> per_key_;
  // Prefix-wildcard specs, longest prefix first so the first match wins.
  std::vector<std::pair<std::string, FilterSpec>> prefixes_;
  const FilterRegistry* registry_;
  FilterSpec codec_spec_;
  const CodecRegistry* codec_registry_;
  FilterSpec storage_spec_;
  std::unique_ptr<StorageBackend> storage_;
  FilterSpec transport_spec_;
  std::unique_ptr<class Transport> transport_;
  IngestPolicy ingest_policy_;
  std::unique_ptr<ShardedFilterBank> bank_;
  bool finished_ = false;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_PIPELINE_H_
