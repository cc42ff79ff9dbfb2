// Copyright (c) 2026 The plastream Authors. MIT license.
//
// "memory": the default storage backend — exactly the per-stream
// SegmentStore archive the Pipeline always had, extracted behind the
// StorageBackend seam. Nothing is durable; everything is queryable.
//
// "none": the no-archive backend — OpenStream returns nullptr and nothing
// is retained, so a pipeline's memory stays flat however long it runs.
//
// Specs: "memory", "none" (no parameters).

#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "storage/storage_backend.h"

namespace plastream {
namespace {

// One stream's archive: a plain SegmentStore. Append runs on the
// stream's shard only, so the handle needs no lock.
class MemoryStreamStorage final : public StreamStorage {
 public:
  explicit MemoryStreamStorage(size_t dimensions) : store_(dimensions) {}

  Status Append(const Segment& segment) override {
    return store_.Append(segment);
  }

  const SegmentStore* store() const override { return &store_; }

  uint64_t bytes_written() const override { return 0; }

 private:
  SegmentStore store_;
};

class MemoryBackend final : public StorageBackend {
 public:
  Status Open() override { return Status::OK(); }

  Result<StreamStorage*> OpenStream(std::string_view key,
                                    size_t dimensions) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(key);
    if (it != streams_.end()) {
      if (it->second->store()->dimensions() != dimensions) {
        return Status::InvalidArgument(
            "stream '" + std::string(key) +
            "' reopened with a different dimensionality");
      }
      return it->second.get();
    }
    auto handle = std::make_unique<MemoryStreamStorage>(dimensions);
    StreamStorage* borrowed = handle.get();
    streams_.emplace(std::string(key), std::move(handle));
    return borrowed;
  }

  std::vector<std::string> StreamKeys() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> keys;
    keys.reserve(streams_.size());
    for (const auto& [key, handle] : streams_) keys.push_back(key);
    return keys;
  }

  const StreamStorage* FindStream(std::string_view key) const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = streams_.find(key);
    return it == streams_.end() ? nullptr : it->second.get();
  }

  Status Flush() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  uint64_t bytes_written() const override { return 0; }
  std::string_view name() const override { return "memory"; }

 private:
  mutable std::mutex mutex_;  // guards the map; handles are shard-exclusive
  std::map<std::string, std::unique_ptr<MemoryStreamStorage>, std::less<>>
      streams_;
};

class NullBackend final : public StorageBackend {
 public:
  Status Open() override { return Status::OK(); }

  Result<StreamStorage*> OpenStream(std::string_view key,
                                    size_t dimensions) override {
    (void)key;
    (void)dimensions;
    return static_cast<StreamStorage*>(nullptr);
  }

  std::vector<std::string> StreamKeys() const override { return {}; }

  const StreamStorage* FindStream(std::string_view key) const override {
    (void)key;
    return nullptr;
  }

  Status Flush() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }
  uint64_t bytes_written() const override { return 0; }
  std::string_view name() const override { return "none"; }
};

}  // namespace

std::unique_ptr<StorageBackend> MakeMemoryStorageBackend() {
  return std::make_unique<MemoryBackend>();
}

void RegisterMemoryStorageBackend(StorageRegistry& registry) {
  const Status status = registry.Register(
      "memory",
      [](const FilterSpec& spec) -> Result<std::unique_ptr<StorageBackend>> {
        PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({}));
        return MakeMemoryStorageBackend();
      });
  (void)status;  // Double registration is caller error; see Register().
}

void RegisterNullStorageBackend(StorageRegistry& registry) {
  const Status status = registry.Register(
      "none",
      [](const FilterSpec& spec) -> Result<std::unique_ptr<StorageBackend>> {
        PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({}));
        return std::unique_ptr<StorageBackend>(new NullBackend());
      });
  (void)status;  // Double registration is caller error; see Register().
}

}  // namespace plastream
