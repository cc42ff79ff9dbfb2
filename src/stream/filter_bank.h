// Copyright (c) 2026 The plastream Authors. MIT license.
//
// FilterBank: the ingestion front-end of a DSMS or collector. Continuous
// monitoring deployments carry thousands of keyed streams ("host42.cpu",
// "sensor-7.temperature"); the bank routes each point to its stream's
// filter, creating filters lazily through a user-supplied factory so every
// stream can have its own precision profile. The factory may attach a
// per-key context next to the filter, which a post-append hook then
// receives from the same lookup that found the filter. A key is found by
// one probe of a flat hash index keyed by its FNV-1a hash (StreamKey),
// the same hash ShardedFilterBank places it by.

#ifndef PLASTREAM_STREAM_FILTER_BANK_H_
#define PLASTREAM_STREAM_FILTER_BANK_H_

#include <concepts>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter.h"
#include "stream/ingest_guard.h"

namespace plastream {

/// Per-key state the owner of a bank attaches to a stream next to its
/// filter (the Pipeline's wire codec and archive handle). The bank owns it
/// for the stream's lifetime, never reads it, and hands it to the
/// post-append hook.
class StreamContext {
 public:
  /// Contexts are deleted through the base interface.
  virtual ~StreamContext() = default;
};

/// A stream key with its FNV-1a hash, computed once per call: the shard
/// choice, the bank's index probe and a threaded shard's queued task all
/// use the same hash. Converts implicitly from anything a string_view
/// does, so callers keep passing plain strings. Borrows the text.
struct StreamKey {
  /// FNV-1a 64-bit: stable across platforms and standard-library
  /// versions, so key-to-shard placement is reproducible everywhere.
  static constexpr uint64_t Hash(std::string_view text) {
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
      hash ^= static_cast<uint8_t>(c);
      hash *= 0x100000001b3ull;
    }
    return hash;
  }

  /// Hashes `key_text`.
  template <typename Text>
    requires std::convertible_to<const Text&, std::string_view>
  StreamKey(const Text& key_text)  // NOLINT(runtime/explicit)
      : text(key_text), hash(Hash(text)) {}

  /// A key whose hash is already known; `key_hash` must be Hash(key_text).
  StreamKey(std::string_view key_text, uint64_t key_hash)
      : text(key_text), hash(key_hash) {}

  std::string_view text;  ///< the key's bytes (borrowed)
  uint64_t hash;          ///< Hash(text)
};

/// Routes keyed data points to per-stream filters.
class FilterBank {
 public:
  /// What a factory builds for a newly seen key. Implicit from a bare
  /// filter, so factories that attach no context return just the filter.
  struct NewStream {
    /// A stream of `filter_in` with optional per-key `context_in`.
    NewStream(std::unique_ptr<Filter> filter_in,  // NOLINT(runtime/explicit)
              std::unique_ptr<StreamContext> context_in = nullptr)
        : filter(std::move(filter_in)), context(std::move(context_in)) {}
    /// The stream's filter; must not be null.
    std::unique_ptr<Filter> filter;
    /// Per-key context for the post-append hook; may be null.
    std::unique_ptr<StreamContext> context;
  };

  /// Builds the filter (and optional context) for a newly seen key.
  using FilterFactory =
      std::function<Result<NewStream>(std::string_view key)>;

  /// Optional callback run after every append call on a stream — also
  /// after a batch that stopped at an error, so whatever it emitted is
  /// handled — with the stream's context (null when none was attached). A
  /// non-OK return is reported like a filter error; the filter's own
  /// error wins.
  using PostAppendHook = std::function<Status(StreamContext* context)>;

  /// `factory` is consulted once per distinct key, on first Append.
  /// A non-pass-through `ingest` policy puts an IngestGuard in front of
  /// every stream's filter (see stream/ingest_guard.h); the default
  /// pass-through policy adds no stage and no overhead.
  explicit FilterBank(FilterFactory factory, IngestPolicy ingest = {},
                      PostAppendHook post_append = nullptr);

  /// Appends a point to the stream named `key`, creating its filter on
  /// first use. Propagates factory and filter errors; with an ingest
  /// guard the point goes through IngestGuard::Admit instead (which may
  /// buffer, drop or reorder it per policy).
  Status Append(StreamKey key, const DataPoint& point);

  /// Appends a batch of points to the stream named `key`: one filter
  /// lookup for the whole batch instead of one per point. Segments are
  /// byte-identical to per-point Append; stops at the first error with
  /// earlier points of the batch applied.
  Status AppendBatch(StreamKey key, std::span<const DataPoint> points);

  /// Columnar batch append: timestamps and dimension-major values as flat
  /// column arrays (layout per Filter::AppendBatch(ts, vals)), forwarded
  /// zero-copy to the stream's filter or guard.
  Status AppendBatch(StreamKey key, std::span<const double> ts,
                     std::span<const double> vals);

  /// Finishes every stream's filter (idempotent), in stream creation
  /// order, flushing each stream's ingest-guard reorder buffer first so no
  /// admitted point is lost.
  Status FinishAll();

  /// Drains the finalized segments of one stream.
  /// Errors with NotFound for an unknown key.
  Result<std::vector<Segment>> TakeSegments(StreamKey key);

  /// All stream keys seen so far, sorted (a sorted copy, built per call).
  std::vector<std::string> Keys() const;

  /// True when the key has a filter.
  bool Contains(StreamKey key) const;

  /// Borrow a stream's filter (nullptr for unknown keys); useful for
  /// per-stream statistics.
  const Filter* GetFilter(StreamKey key) const;

  /// The context the factory attached to `key`'s stream, or nullptr for
  /// an unknown key or a stream without one.
  const StreamContext* Context(StreamKey key) const;

  /// Calls `visit` on every attached context, in stream creation order,
  /// stopping at the first error.
  Status ForEachContext(const std::function<Status(StreamContext&)>& visit);

  /// Aggregate statistics across every stream.
  struct BankStats {
    size_t streams = 0;           ///< distinct keys seen
    size_t points = 0;            ///< points accepted across streams
    size_t segments = 0;          ///< segments emitted across streams
    size_t extra_recordings = 0;  ///< provisional max-lag commits charged
  };
  /// Aggregate statistics across every stream.
  BankStats Stats() const;

  /// Ingest-guard decision counters summed across every stream. All zero
  /// for a pass-through bank.
  IngestGuardStats IngestStats() const;

 private:
  // One stream: its own copy of the key, the owner's context (declared
  // before the filter so it outlives the filter, which may emit into it),
  // the filter, and the optional guard stage in front of it.
  struct Entry {
    std::string key;
    std::unique_ptr<StreamContext> context;
    std::unique_ptr<Filter> filter;
    std::unique_ptr<IngestGuard> guard;  // null in pass-through mode
  };

  // One index slot: an entry's hash beside its address, so a probe
  // compares hashes before it touches an entry. Empty while entry is null.
  struct Slot {
    uint64_t hash = 0;
    Entry* entry = nullptr;
  };

  // The stream's entry, or nullptr: one linear probe of slots_.
  Entry* Find(StreamKey key) const;

  // The stream's entry, created through the factory on first use.
  Result<Entry*> FindOrCreate(StreamKey key);

  // Stores `slot` in the first empty slot from its hash's home slot.
  void Place(Slot slot);

  // Runs the post-append hook on `entry`; `appended` wins over its error.
  Status AfterAppend(Entry& entry, Status appended);

  FilterFactory factory_;
  IngestPolicy ingest_;
  PostAppendHook post_append_;
  // Every stream in creation order. A deque never moves its elements, so
  // an entry keeps its address (which slots_ and callers hold) for the
  // bank's whole life.
  std::deque<Entry> entries_;
  // Open addressing with linear probing over a power-of-two table, at most
  // half full. A key's home slot is the top bits of its hash (hash >>
  // shift_): ShardedFilterBank places keys by hash % N, so the low bits
  // repeat within a shard and would crowd a few slots.
  std::vector<Slot> slots_;
  int shift_;
  bool finished_ = false;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_FILTER_BANK_H_
