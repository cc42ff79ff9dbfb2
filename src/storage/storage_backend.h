// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The pluggable storage-backend subsystem: where a pipeline's segments
// live — the one owner of them. A StorageBackend turns
// per-stream segment appends into an archive (in-memory, an on-disk log,
// or a user-registered medium); the StorageRegistry makes backends
// selectable by the same spec-string grammar as filters and wire codecs,
// so durability is a configuration choice rather than a recompile:
//
//   "memory"                              per-stream SegmentStores — default
//   "none"                                no archive; nothing retained
//   "file(path=a.plar,codec=delta,sync=flush)"
//                                         durable append-only archive log
//
// A backend serves one pipeline. Streams register through OpenStream,
// which returns a borrowed per-stream handle whose Append runs on the
// stream's shard — backends keep the fast path contention-free across
// shards (see the thread-safety contract below) and only a durable
// medium's final byte-append may serialize. Every backend keeps an
// in-memory, queryable SegmentStore view per stream, so range queries
// are answered identically no matter where the bytes went.

#ifndef PLASTREAM_STORAGE_STORAGE_BACKEND_H_
#define PLASTREAM_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter_spec.h"
#include "core/segment_store.h"
#include "core/types.h"

namespace plastream {

/// Health of a storage backend's medium — how archiving is doing,
/// independent of whether ingest is still served (the in-memory stores
/// always are).
struct StorageHealth {
  /// The medium's state.
  enum class State {
    kOk,        ///< archiving normally
    kDegraded,  ///< medium failing (e.g. ENOSPC); archiving suspended,
                ///< ingest still served, auto-resume on recovery
    kFailing,   ///< medium lost for good (or policy `fail` tripped)
  };
  /// Current state.
  State state = State::kOk;
  /// The most recent medium failure, empty while kOk.
  std::string cause;
  /// Failed medium writes/flushes observed (cumulative).
  uint64_t write_failures = 0;
  /// Segments not archived because the medium was degraded. They remain
  /// queryable in the in-memory stores; the on-disk chain records the gap
  /// (the next logged segment is forced disconnected).
  uint64_t segments_dropped = 0;
  /// Degraded-to-ok transitions (the medium came back).
  uint64_t recoveries = 0;
};

/// Display name of a health state: "ok", "degraded" or "failing".
std::string_view StorageHealthStateName(StorageHealth::State state);

/// True when `status` reports a full medium — an ENOSPC-classified write
/// failure from the file backend (real errno or injected fault).
bool IsDiskFull(const Status& status);

/// Per-stream archive handle, owned by its StorageBackend and borrowed by
/// the pipeline's stream state.
///
/// Thread-safety: Append is only ever called from the thread that owns
/// the stream's shard (the stream's filter emitting), so a handle
/// needs no locking of its own state; a backend whose streams share a
/// medium synchronizes inside the medium append only.
class StreamStorage {
 public:
  /// Handles are deleted by their backend.
  virtual ~StreamStorage() = default;

  /// Archives the next segment of the stream's chain. Enforces the
  /// SegmentStore chain invariants (monotone times, consistent junctions)
  /// before any byte reaches the medium, so an invalid segment never
  /// corrupts an archive.
  virtual Status Append(const Segment& segment) = 0;

  /// The queryable in-memory view of everything archived for this stream
  /// — including segments recovered from a pre-existing archive file.
  /// Never null.
  virtual const SegmentStore* store() const = 0;

  /// Bytes this stream has appended to the backing medium (0 for the
  /// memory backend, encoded record bytes for file).
  virtual uint64_t bytes_written() const = 0;
};

/// A pipeline-lifetime archive over many streams.
///
/// Lifecycle: Build() creates the backend from its spec and calls Open()
/// once before any stream exists; streams register lazily via OpenStream;
/// Flush() is the durability point (Pipeline::Flush forwards to it);
/// Close() finalizes the medium (Pipeline::Finish forwards to it) while
/// the in-memory stores stay queryable.
///
/// Thread-safety: OpenStream may be called concurrently from shard
/// threads (stream creation happens on the thread that processes a key's
/// first point) and must synchronize internally. Append on handles of
/// different streams may run concurrently; Open/Flush/Close are called
/// from one thread while ingest is quiescent.
class StorageBackend {
 public:
  /// Backends are deleted through the base interface.
  virtual ~StorageBackend() = default;

  /// Prepares the backend before first use. The file backend opens (or
  /// creates) its archive log here and runs crash recovery: a torn tail
  /// is truncated and every intact record rebuilds its stream's store.
  virtual Status Open() = 0;

  /// Registers the stream named `key` with `dimensions`-dimensional
  /// segments, returning its borrowed handle (valid for the backend's
  /// lifetime). Reopening a known key returns the same handle; a
  /// dimensionality mismatch with a recovered stream is InvalidArgument.
  /// Backends that archive nothing ("none") return nullptr.
  virtual Result<StreamStorage*> OpenStream(std::string_view key,
                                            size_t dimensions) = 0;

  /// Keys of every stream the backend knows, sorted — both streams
  /// opened this run and streams recovered from a pre-existing archive
  /// that nothing has re-appended to yet. Safe to call concurrently
  /// with OpenStream.
  virtual std::vector<std::string> StreamKeys() const = 0;

  /// The stream's handle, or nullptr when the backend does not know the
  /// key (or archives nothing). Unlike OpenStream this never creates or
  /// writes anything, so readers use it to reach recovered streams.
  /// Safe to call concurrently with OpenStream.
  virtual const StreamStorage* FindStream(std::string_view key) const = 0;

  /// Forces everything buffered onto the medium (fflush for the file
  /// backend). No-op for non-durable backends. Safe to call repeatedly.
  virtual Status Flush() = 0;

  /// Flushes and releases the medium (closes the archive file).
  /// Idempotent. The per-stream stores remain readable; Append after
  /// Close is FailedPrecondition on durable backends.
  virtual Status Close() = 0;

  /// Total bytes appended to the backing medium, including file framing
  /// (header and per-record length/CRC); 0 for non-durable backends.
  virtual uint64_t bytes_written() const = 0;

  /// The medium's health. Non-durable backends are always kOk (the
  /// default); the file backend reports degraded/failing states and the
  /// drop/recovery counters (see its `on_error` policy). Safe to call
  /// concurrently with Append.
  virtual StorageHealth Health() const { return StorageHealth{}; }

  /// The backend's registered family name ("memory", "none", "file", ...).
  virtual std::string_view name() const = 0;
};

/// Maps storage family names to backend factories.
///
/// Storage specs reuse the FilterSpec grammar — `family(key=value,...)` —
/// with the family naming a registered backend and the params interpreted
/// by its factory. The filter-specific keys (eps/dims/max_lag) are
/// rejected. Registration is not thread-safe; register backends during
/// startup. MakeBackend/ListBackends are const and safe to call
/// concurrently once registration has finished.
class StorageRegistry {
 public:
  /// Builds a backend from a parsed spec. The factory owns the
  /// interpretation of `spec.params` and must reject unknown keys
  /// (FilterSpec::ExpectParamsIn). The returned backend is not yet
  /// Open()ed.
  using Factory = std::function<Result<std::unique_ptr<StorageBackend>>(
      const FilterSpec& spec)>;

  /// An empty registry (no built-in backends); see Global() and
  /// RegisterBuiltinStorageBackends().
  StorageRegistry() = default;

  /// The process-wide registry, with every built-in backend
  /// pre-registered.
  static StorageRegistry& Global();

  /// Adds a storage family. Errors with FailedPrecondition when the name
  /// is taken and InvalidArgument for an empty name or null factory.
  Status Register(std::string name, Factory factory);

  /// Instantiates `spec.family`. Errors with NotFound for an unregistered
  /// backend and InvalidArgument when the spec carries filter options
  /// (eps/dims/max_lag), which have no meaning for storage.
  Result<std::unique_ptr<StorageBackend>> MakeBackend(
      const FilterSpec& spec) const;

  /// Parses `spec_text` and instantiates the backend it names.
  Result<std::unique_ptr<StorageBackend>> MakeBackend(
      std::string_view spec_text) const;

  /// Registered backend names, sorted.
  std::vector<std::string> ListBackends() const;

  /// True when the storage family is registered.
  bool Contains(std::string_view name) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registers one built-in backend on `registry`. Each function is defined
/// in its backend's own .cc file, so spec-parameter parsing lives with
/// the medium it configures.
void RegisterMemoryStorageBackend(StorageRegistry& registry);
void RegisterNullStorageBackend(StorageRegistry& registry);
void RegisterFileStorageBackend(StorageRegistry& registry);

/// Registers every built-in backend. Global() has already done this; call
/// it on private registries that should start from the built-in set.
void RegisterBuiltinStorageBackends(StorageRegistry& registry);

/// The default archive: a "memory" backend instance without a registry
/// lookup — what the Pipeline falls back to when no storage spec is set.
std::unique_ptr<StorageBackend> MakeMemoryStorageBackend();

/// Parses `spec_text` and builds the backend via the global registry.
Result<std::unique_ptr<StorageBackend>> MakeStorageBackend(
    std::string_view spec_text);

}  // namespace plastream

#endif  // PLASTREAM_STORAGE_STORAGE_BACKEND_H_
