// Copyright (c) 2026 The plastream Authors. MIT license.
//
// ShardedFilterBank: the multi-core ingestion front-end. The paper's
// filters are strictly per-stream, which makes keyed ingest embarrassingly
// parallel: hash-partition the key space across N shards, give each shard
// its own FilterBank, and appends for different shards never contend. Two
// execution modes share one API:
//
//  - locked (default): each shard carries a mutex; Append runs the filter
//    on the calling thread under that shard's lock. Producers appending to
//    different shards proceed fully in parallel.
//  - threaded: each shard owns a dedicated worker thread fed by a bounded
//    ingest queue. Append enqueues and returns; the worker drains the
//    queue in order, giving every filter thread affinity (warm caches, no
//    lock hold during filtering) at the price of asynchronous errors.
//
// Key-to-shard assignment is a stable FNV-1a hash, so a key's points are
// always processed by the same shard, in arrival order — per-key segment
// sequences are byte-identical for every shard count and both modes. Each
// call hashes its key once (StreamKey); that one hash picks the shard and
// probes the shard bank's index, and in threaded mode it rides in the
// queued task to the worker.

#ifndef PLASTREAM_STREAM_SHARDED_FILTER_BANK_H_
#define PLASTREAM_STREAM_SHARDED_FILTER_BANK_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/filter.h"
#include "stream/filter_bank.h"

namespace plastream {

/// Routes keyed data points to per-stream filters across N hash shards.
///
/// Thread-safety contract:
///  - Append may be called concurrently from any number of producer
///    threads. Points of one key must be produced by one thread at a time
///    (or be externally ordered) — concurrent producers should own
///    disjoint key sets, exactly as they would with one bank per producer.
///  - FinishAll/Flush are safe to call from one thread while producers
///    have stopped appending.
///  - The read-side accessors (Keys, GetFilter, Context, Stats,
///    TakeSegments, AggregateCounters) are safe during concurrent ingest in locked mode;
///    in threaded mode call them only when the bank is quiescent — before
///    the first Append, or after Flush()/FinishAll() has returned.
class ShardedFilterBank {
 public:
  /// Builds the filter for a newly seen stream key; invoked on the thread
  /// that processes the key's first point (producer thread in locked mode,
  /// the shard worker in threaded mode).
  using FilterFactory = FilterBank::FilterFactory;

  /// Optional callback run after every append call, on the processing
  /// thread, while the stream is exclusively held, with the per-key
  /// context the factory attached — the seam the Pipeline uses to drain
  /// per-stream transports in shard parallel (see FilterBank's hook).
  using PostAppendHook = FilterBank::PostAppendHook;

  /// Configuration of a ShardedFilterBank.
  struct Options {
    /// Number of hash shards (>= 1). 1 shard with no threads degenerates
    /// to a mutex-guarded FilterBank.
    size_t shards = 1;
    /// Dedicated worker thread + bounded ingest queue per shard.
    bool threaded = false;
    /// Queue capacity per shard in threaded mode, counted in enqueued
    /// tasks — a single Append and a whole AppendBatch each occupy one
    /// slot. Append blocks while the shard's queue is full (backpressure).
    size_t queue_capacity = 1024;
    /// See PostAppendHook.
    PostAppendHook post_append;
    /// Ingest-guard policy applied in front of every stream's filter,
    /// inside the shard's serialization (see stream/ingest_guard.h). The
    /// default pass-through policy adds no stage.
    IngestPolicy ingest;
  };

  /// Validates `options` (shards >= 1, queue_capacity >= 1 when threaded)
  /// and constructs the bank, spawning shard workers in threaded mode.
  static Result<std::unique_ptr<ShardedFilterBank>> Create(
      FilterFactory factory, Options options);

  /// Stops and joins shard workers without finishing the filters.
  ~ShardedFilterBank();

  /// Shards own threads and filters; the bank is not copyable.
  ShardedFilterBank(const ShardedFilterBank&) = delete;
  /// Shards own threads and filters; the bank is not copyable.
  ShardedFilterBank& operator=(const ShardedFilterBank&) = delete;

  /// Appends a point to the stream named `key`, creating its filter on
  /// first use. Locked mode: runs synchronously and returns the filter's
  /// status. Threaded mode: enqueues and returns OK (blocking while the
  /// shard queue is full); a failure inside the worker is sticky and
  /// surfaces on the next Append to that shard, on Flush, and on
  /// FinishAll.
  Status Append(std::string_view key, const DataPoint& point);

  /// Appends a batch of points to the stream named `key`, paying the
  /// shard costs once per batch instead of once per point: one hash, one
  /// lock acquisition (locked mode) or one queue slot (threaded mode),
  /// and one filter lookup. Segments are byte-identical to per-point
  /// Append. Locked mode stops at the first error with earlier points
  /// applied; threaded mode copies the batch, enqueues, and returns OK
  /// (errors surface like Append's). The per-key ordering contract is
  /// unchanged: one producer at a time per key.
  Status AppendBatch(std::string_view key, std::span<const DataPoint> points);

  /// Columnar batch append: timestamps and dimension-major values as flat
  /// column arrays (layout per Filter::AppendBatch(ts, vals)). Locked mode
  /// forwards the spans zero-copy under the shard lock; threaded mode
  /// copies both columns into the task before enqueueing. Error semantics
  /// match AppendBatch's for the respective mode.
  Status AppendBatch(std::string_view key, std::span<const double> ts,
                     std::span<const double> vals);

  /// Threaded mode: blocks until every queued point has been processed and
  /// returns the first deferred error, if any. Locked mode: errors are
  /// synchronous, so there is nothing to report and Flush returns OK.
  /// Producers may keep appending afterwards.
  Status Flush();

  /// Drains the ingest queues, stops and joins the shard workers, then
  /// finishes every stream's filter (idempotent). Returns the first
  /// deferred or finish error.
  Status FinishAll();

  /// Drains the finalized segments of one stream.
  /// Errors with NotFound for an unknown key.
  Result<std::vector<Segment>> TakeSegments(std::string_view key);

  /// All stream keys seen so far, sorted across shards.
  std::vector<std::string> Keys() const;

  /// True when the key has a filter.
  bool Contains(std::string_view key) const;

  /// Borrow a stream's filter (nullptr for unknown keys). The pointer
  /// stays valid for the bank's lifetime; reading the filter while its
  /// shard is still ingesting is racy — observe the quiescence rule above.
  const Filter* GetFilter(std::string_view key) const;

  /// The context the factory attached to `key`'s stream, or nullptr. Same
  /// lifetime and quiescence rules as GetFilter.
  const StreamContext* Context(std::string_view key) const;

  /// Calls `visit` on every attached context, shard by shard under each
  /// shard's lock, stopping at the first error. Like FinishAll, call it
  /// only while producers have stopped (after Flush in threaded mode).
  Status ForEachContext(const std::function<Status(StreamContext&)>& visit);

  /// Aggregate statistics summed over every shard.
  FilterBank::BankStats Stats() const;

  /// Ingest-guard decision counters summed over every shard. All zero
  /// when the bank runs the pass-through policy.
  IngestGuardStats IngestStats() const;

  /// Per-shard statistics, indexed by shard; useful for balance checks.
  std::vector<FilterBank::BankStats> ShardStats() const;

  /// Family-specific diagnostic counters summed by name across every
  /// filter in every shard (see MergeFilterCounters).
  std::vector<FilterCounter> AggregateCounters() const;

  /// Number of shards.
  size_t shard_count() const { return shards_.size(); }

  /// True when shard workers are running (threaded mode, before FinishAll).
  bool threaded() const { return threaded_; }

  /// The shard index `key` hashes to (stable across runs and platforms).
  size_t ShardOf(std::string_view key) const;

 private:
  // Payload shape of a queued ingest task.
  enum class TaskKind { kPoint, kBatch, kColumnar };

  // One queued unit of ingest — a single point, a row batch, or a
  // columnar batch — waiting for the shard worker. The key carries the
  // hash the producer computed, so the worker probes the bank without
  // hashing again, and its text borrows the shard's intern set (node
  // addresses are stable), so queueing work for an already-seen key
  // allocates nothing for the key.
  struct Task {
    Task(StreamKey key_in, TaskKind kind_in) : key(key_in), kind(kind_in) {}
    StreamKey key;
    TaskKind kind;
    DataPoint point;               // kPoint payload
    std::vector<DataPoint> batch;  // kBatch payload
    std::vector<double> ts;        // kColumnar payload (with vals)
    std::vector<double> vals;
  };

  // A shard: its bank plus the mutex that serializes access to it. In
  // threaded mode the mutex guards the queue/error state while the bank
  // itself is touched only by the worker; the in_flight counter going to
  // zero under the mutex is what publishes the worker's writes to callers
  // of Flush/FinishAll.
  struct Shard {
    Shard(FilterFactory factory, const Options& options)
        : bank(std::move(factory), options.ingest, options.post_append) {}

    mutable std::mutex mutex;
    FilterBank bank;

    // Threaded-mode state.
    std::condition_variable ingest_cv;   // signals the worker: work/stop
    std::condition_variable drained_cv;  // signals producers: space/empty
    std::deque<Task> queue;
    std::set<std::string, std::less<>> keys;  // intern pool for Task::key
    size_t in_flight = 0;  // queued + currently executing tasks
    bool stop = false;
    Status deferred = Status::OK();  // first asynchronous failure
    std::thread worker;
  };

  ShardedFilterBank(FilterFactory factory, Options options);

  // Body of a shard's worker thread.
  void WorkerLoop(Shard& shard);

  // Shared threaded-mode enqueue path (backpressure, key interning). The
  // task's payload is already copied; Enqueue points its key at the
  // interned text.
  Status Enqueue(Shard& shard, Task&& task);

  // The shard that owns `key`: hash % N, and no division for one shard.
  Shard& ShardFor(StreamKey key) const {
    return *shards_[shards_.size() == 1 ? 0 : key.hash % shards_.size()];
  }

  Options options_;
  bool threaded_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace plastream

#endif  // PLASTREAM_STREAM_SHARDED_FILTER_BANK_H_
