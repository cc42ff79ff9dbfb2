// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/sharded_filter_bank.h"

#include <algorithm>
#include <utility>

namespace plastream {

Result<std::unique_ptr<ShardedFilterBank>> ShardedFilterBank::Create(
    FilterFactory factory, Options options) {
  if (factory == nullptr) {
    return Status::InvalidArgument("ShardedFilterBank factory is null");
  }
  if (options.shards == 0) {
    return Status::InvalidArgument("ShardedFilterBank needs >= 1 shard");
  }
  if (options.threaded && options.queue_capacity == 0) {
    return Status::InvalidArgument(
        "ShardedFilterBank threaded mode needs queue_capacity >= 1");
  }
  return std::unique_ptr<ShardedFilterBank>(
      new ShardedFilterBank(std::move(factory), std::move(options)));
}

ShardedFilterBank::ShardedFilterBank(FilterFactory factory, Options options)
    : options_(std::move(options)), threaded_(options_.threaded) {
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(factory, options_));
  }
  if (threaded_) {
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, &shard] { WorkerLoop(*shard); });
    }
  }
}

ShardedFilterBank::~ShardedFilterBank() {
  for (auto& shard : shards_) {
    if (!shard->worker.joinable()) continue;
    {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stop = true;
    }
    shard->ingest_cv.notify_all();
    shard->drained_cv.notify_all();  // wake producers blocked on a full queue
    shard->worker.join();
  }
}

size_t ShardedFilterBank::ShardOf(std::string_view key) const {
  return static_cast<size_t>(StreamKey(key).hash % shards_.size());
}

Status ShardedFilterBank::Enqueue(Shard& shard, Task&& task) {
  // The caller copied the payload before this call — the worker and every
  // other producer on this shard contend for the mutex, so allocations and
  // memcpys must not sit inside the critical section.
  std::unique_lock<std::mutex> lock(shard.mutex);
  // The stop/error state can change while blocked on a full queue, so the
  // wait wakes on it and the checks run after the wait, not before.
  shard.drained_cv.wait(lock, [&] {
    return shard.stop || !shard.deferred.ok() ||
           shard.queue.size() < options_.queue_capacity;
  });
  if (!shard.deferred.ok()) return shard.deferred;
  if (shard.stop) {
    return Status::FailedPrecondition("Append after FinishAll");
  }
  // Intern the key: one allocation per distinct key per shard, then every
  // queued Task borrows the set node (node addresses are stable).
  auto interned = shard.keys.find(task.key.text);
  if (interned == shard.keys.end()) {
    interned = shard.keys.insert(std::string(task.key.text)).first;
  }
  task.key = StreamKey(*interned, task.key.hash);
  shard.queue.push_back(std::move(task));
  ++shard.in_flight;
  lock.unlock();
  shard.ingest_cv.notify_one();
  return Status::OK();
}

Status ShardedFilterBank::Append(std::string_view key,
                                 const DataPoint& point) {
  const StreamKey hashed(key);
  Shard& shard = ShardFor(hashed);
  if (!threaded_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.bank.Append(hashed, point);
  }
  Task task(hashed, TaskKind::kPoint);
  task.point = point;
  return Enqueue(shard, std::move(task));
}

Status ShardedFilterBank::AppendBatch(std::string_view key,
                                      std::span<const DataPoint> points) {
  if (points.empty()) return Status::OK();
  const StreamKey hashed(key);
  Shard& shard = ShardFor(hashed);
  if (!threaded_) {
    // The whole key-group pays for one lock acquisition.
    const std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.bank.AppendBatch(hashed, points);
  }
  // One queue slot (and one worker wakeup) for the whole key-group.
  Task task(hashed, TaskKind::kBatch);
  task.batch.assign(points.begin(), points.end());
  return Enqueue(shard, std::move(task));
}

Status ShardedFilterBank::AppendBatch(std::string_view key,
                                      std::span<const double> ts,
                                      std::span<const double> vals) {
  if (ts.empty() && vals.empty()) return Status::OK();
  const StreamKey hashed(key);
  Shard& shard = ShardFor(hashed);
  if (!threaded_) {
    // Locked mode forwards the caller's columns zero-copy.
    const std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.bank.AppendBatch(hashed, ts, vals);
  }
  Task task(hashed, TaskKind::kColumnar);
  task.ts.assign(ts.begin(), ts.end());
  task.vals.assign(vals.begin(), vals.end());
  return Enqueue(shard, std::move(task));
}

void ShardedFilterBank::WorkerLoop(Shard& shard) {
  for (;;) {
    std::unique_lock<std::mutex> lock(shard.mutex);
    shard.ingest_cv.wait(lock,
                         [&] { return shard.stop || !shard.queue.empty(); });
    if (shard.queue.empty()) return;  // stop requested and fully drained
    Task task = std::move(shard.queue.front());
    shard.queue.pop_front();
    lock.unlock();
    shard.drained_cv.notify_all();

    // The bank is touched without the lock: this worker is its only writer.
    Status status;
    switch (task.kind) {
      case TaskKind::kPoint:
        status = shard.bank.Append(task.key, task.point);
        break;
      case TaskKind::kBatch:
        status = shard.bank.AppendBatch(task.key, task.batch);
        break;
      case TaskKind::kColumnar:
        status = shard.bank.AppendBatch(task.key, task.ts, task.vals);
        break;
    }

    lock.lock();
    if (!status.ok() && shard.deferred.ok()) {
      shard.deferred = std::move(status);
    }
    --shard.in_flight;
    lock.unlock();
    shard.drained_cv.notify_all();
  }
}

Status ShardedFilterBank::Flush() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    if (threaded_) {
      shard->drained_cv.wait(lock, [&] { return shard->in_flight == 0; });
    }
    if (!shard->deferred.ok() && first.ok()) first = shard->deferred;
  }
  return first;
}

Status ShardedFilterBank::FinishAll() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        shard->stop = true;
      }
      shard->ingest_cv.notify_all();
      shard->drained_cv.notify_all();  // wake producers blocked on full queue
      shard->worker.join();  // worker drains the queue before exiting
    }
    const std::lock_guard<std::mutex> lock(shard->mutex);
    if (!shard->deferred.ok() && first.ok()) first = shard->deferred;
    const Status finish = shard->bank.FinishAll();
    if (!finish.ok() && first.ok()) first = finish;
  }
  return first;
}

Result<std::vector<Segment>> ShardedFilterBank::TakeSegments(
    std::string_view key) {
  const StreamKey hashed(key);
  Shard& shard = ShardFor(hashed);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.TakeSegments(hashed);
}

std::vector<std::string> ShardedFilterBank::Keys() const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    std::vector<std::string> shard_keys = shard->bank.Keys();
    keys.insert(keys.end(), std::make_move_iterator(shard_keys.begin()),
                std::make_move_iterator(shard_keys.end()));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool ShardedFilterBank::Contains(std::string_view key) const {
  const StreamKey hashed(key);
  const Shard& shard = ShardFor(hashed);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.Contains(hashed);
}

const Filter* ShardedFilterBank::GetFilter(std::string_view key) const {
  const StreamKey hashed(key);
  const Shard& shard = ShardFor(hashed);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.GetFilter(hashed);
}

const StreamContext* ShardedFilterBank::Context(std::string_view key) const {
  const StreamKey hashed(key);
  const Shard& shard = ShardFor(hashed);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.bank.Context(hashed);
}

Status ShardedFilterBank::ForEachContext(
    const std::function<Status(StreamContext&)>& visit) {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    PLASTREAM_RETURN_NOT_OK(shard->bank.ForEachContext(visit));
  }
  return Status::OK();
}

FilterBank::BankStats ShardedFilterBank::Stats() const {
  FilterBank::BankStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    const FilterBank::BankStats stats = shard->bank.Stats();
    total.streams += stats.streams;
    total.points += stats.points;
    total.segments += stats.segments;
    total.extra_recordings += stats.extra_recordings;
  }
  return total;
}

IngestGuardStats ShardedFilterBank::IngestStats() const {
  IngestGuardStats total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->bank.IngestStats();
  }
  return total;
}

std::vector<FilterBank::BankStats> ShardedFilterBank::ShardStats() const {
  std::vector<FilterBank::BankStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    stats.push_back(shard->bank.Stats());
  }
  return stats;
}

std::vector<FilterCounter> ShardedFilterBank::AggregateCounters() const {
  std::vector<FilterCounter> merged;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const std::string& key : shard->bank.Keys()) {
      const Filter* filter = shard->bank.GetFilter(key);
      if (filter != nullptr) MergeFilterCounters(merged, filter->Counters());
    }
  }
  return merged;
}

}  // namespace plastream
