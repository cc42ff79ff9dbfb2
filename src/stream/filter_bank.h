// Copyright (c) 2026 The plastream Authors. MIT license.
//
// FilterBank: the ingestion front-end of a DSMS or collector. Continuous
// monitoring deployments carry thousands of keyed streams ("host42.cpu",
// "sensor-7.temperature"); the bank routes each point to its stream's
// filter, creating filters lazily through a user-supplied factory so every
// stream can have its own precision profile. The factory may attach a
// per-key context next to the filter, which a post-append hook then
// receives from the same lookup that found the filter.

#ifndef PLASTREAM_STREAM_FILTER_BANK_H_
#define PLASTREAM_STREAM_FILTER_BANK_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <map>

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
  Status Append(std::string_view key, const DataPoint& point);

  /// Appends a batch of points to the stream named `key`: one filter
  /// lookup for the whole batch instead of one per point. Segments are
  /// byte-identical to per-point Append; stops at the first error with
  /// earlier points of the batch applied.
  Status AppendBatch(std::string_view key, std::span<const DataPoint> points);

  /// Columnar batch append: timestamps and dimension-major values as flat
  /// column arrays (layout per Filter::AppendBatch(ts, vals)), forwarded
  /// zero-copy to the stream's filter or guard.
  Status AppendBatch(std::string_view key, std::span<const double> ts,
                     std::span<const double> vals);

  /// Finishes every stream's filter (idempotent), flushing each stream's
  /// ingest-guard reorder buffer first so no admitted point is lost.
  Status FinishAll();

  /// Drains the finalized segments of one stream.
  /// Errors with NotFound for an unknown key.
  Result<std::vector<Segment>> TakeSegments(std::string_view key);

  /// All stream keys seen so far, sorted.
  std::vector<std::string> Keys() const;

  /// True when the key has a filter.
  bool Contains(std::string_view key) const;

  /// Borrow a stream's filter (nullptr for unknown keys); useful for
  /// per-stream statistics.
  const Filter* GetFilter(std::string_view key) const;

  /// The context the factory attached to `key`'s stream, or nullptr for
  /// an unknown key or a stream without one.
  const StreamContext* Context(std::string_view key) const;

  /// Calls `visit` on every attached context, in key order, stopping at
  /// the first error.
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
  // One stream: its filter, the optional guard stage in front of it, and
  // the owner's context (declared first so it outlives the filter, which
  // may emit into it).
  struct Entry {
    std::unique_ptr<StreamContext> context;
    std::unique_ptr<Filter> filter;
    std::unique_ptr<IngestGuard> guard;  // null in pass-through mode
  };

  // The stream's entry, created through the factory on first use.
  Result<Entry*> FindOrCreate(std::string_view key);

  // Runs the post-append hook on `entry`; `appended` wins over its error.
  Status AfterAppend(Entry& entry, Status appended);

  FilterFactory factory_;
  IngestPolicy ingest_;
  PostAppendHook post_append_;
  // Ordered map: heterogeneous lookup by string_view avoids a per-Append
  // allocation, and Keys() falls out sorted.
  std::map<std::string, Entry, std::less<>> filters_;
  bool finished_ = false;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_FILTER_BANK_H_
