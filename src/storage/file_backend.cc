// Copyright (c) 2026 The plastream Authors. MIT license.
//
// "file": the durable storage backend — one append-only archive log per
// pipeline, in the format of storage/archive_format.h. Every archived
// segment is framed as a stream-id-tagged, CRC32C-trailed
// record and appended to the log; Open() on an existing file runs crash
// recovery (scan, truncate the torn tail, rebuild every stream's
// in-memory store) and then keeps appending where the intact prefix
// ended.
//
// Append path: a healthy segment takes the backend mutex once. Under it
// the record is framed in place into one reused buffer (length
// placeholder, stream id, kind, body, patched length, CRC32C) and written
// with one fwrite, so once that buffer has grown to the largest record an
// append allocates nothing beyond the in-memory store's own growth. The
// sticky-failure gate reads an atomic mirror of the failure and takes no
// lock. Segments are orders of magnitude rarer than points (that is the
// point of PLA), so the shared append is off the per-point hot path.
//
// Spec: "file(path=...,codec=frame|delta,sync=none|flush,on_error=fail|degrade)"
//   path     (required) the archive log's filesystem path
//   codec    segment body encoding, default "delta" (see STORAGE.md)
//   sync     "flush" pushes every record to the OS immediately (crash
//            loses at most the record being written); "none" (default)
//            buffers until Flush()/Close().
//   on_error what a medium write failure (ENOSPC, I/O error) does:
//            "fail" (default) makes the failure sticky — every later
//            append reports it; "degrade" keeps serving ingest with
//            archiving suspended (dropped segments stay queryable in the
//            in-memory stores), re-probes the medium on every segment and
//            auto-resumes when writes succeed again, logging the first
//            post-gap segment disconnected. Health() reports
//            ok/degraded/failing with the failure cause. `degrade`
//            implies per-record flushing (sync=flush semantics): the
//            backend must know exactly which bytes reached the OS to keep
//            the log tail consistent across failures.
//
// Failure classification: every medium error Status embeds strerror(errno)
// and ENOSPC failures carry an "[ENOSPC]" tag — IsDiskFull() in
// storage_backend.h keys on it. The seeded fault-injection hooks
// (common/fault_injection.h, sites kFileWrite/kFileFlush) fail records
// here as synthetic ENOSPC so degrade-and-resume is testable without
// filling a real disk.

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "storage/archive_format.h"
#include "storage/storage_backend.h"

namespace plastream {
namespace {

class FileBackend;

// An I/O failure Status with strerror text; ENOSPC is tagged so callers
// (degrade policy, tests) can classify full-disk failures via IsDiskFull.
Status MediumError(const std::string& what, int err) {
  std::string message = what + ": " + std::strerror(err);
  if (err == ENOSPC) message += " [ENOSPC]";
  return Status::IOError(std::move(message));
}

// One stream's slice of the archive: the queryable in-memory store, the
// chain-state coder, and this stream's byte accounting. Append runs only
// on the stream's shard; the backend encodes and writes the stream's
// records under its lock and owns the commit/rollback of the chain state.
class FileStreamStorage final : public StreamStorage {
 public:
  FileStreamStorage(FileBackend* backend, std::string key,
                    ArchiveSegmentCodec codec, size_t dimensions,
                    std::unique_ptr<SegmentStore> store)
      : backend_(backend),
        key_(std::move(key)),
        coder_(codec, dimensions),
        store_(std::move(store)) {
    if (!store_->empty()) coder_.Prime(store_->segments().back());
  }

  Status Append(const Segment& segment) override;

  const SegmentStore* store() const override { return store_.get(); }

  uint64_t bytes_written() const override { return bytes_; }

  void add_bytes(uint64_t n) { bytes_ += n; }

  const std::string& key() const { return key_; }

  // The log-record stream id, assigned when the stream-open record
  // actually reaches the log (the scanner requires ids to appear in
  // sequential order, so a degraded stream's id is deferred with its open
  // record).
  bool has_log_id() const { return log_id_.has_value(); }
  void set_log_id(uint64_t id) { log_id_ = id; }

  // Appends `segment`'s record to `*out` and advances the chain state,
  // keeping the state before it as the rollback point. The logged copy is
  // forced disconnected while a degrade gap is pending (see MarkGap).
  // Requires a log id. Backend lock held.
  void AppendRecord(const Segment& segment, std::vector<uint8_t>* out) {
    rollback_ = coder_.chain();
    if (gap_pending_ && segment.connected_to_prev) {
      Segment disconnected = segment;
      disconnected.connected_to_prev = false;
      coder_.AppendRecord(*log_id_, disconnected, out);
    } else {
      coder_.AppendRecord(*log_id_, segment, out);
    }
  }

  // The record from AppendRecord reached the log: any gap is closed.
  void CommitLogged() { gap_pending_ = false; }

  // The record from AppendRecord did not reach the log: rewind the chain
  // state to the last segment that did.
  void RollbackCoder() { coder_.set_chain(rollback_); }

  // A segment was dropped from the log (degrade): the next logged segment
  // must be encoded disconnected, since its true predecessor was never
  // archived and a connected flag would decode the wrong geometry.
  void MarkGap() { gap_pending_ = true; }

 private:
  FileBackend* const backend_;
  const std::string key_;
  ArchiveSegmentCoder coder_;
  ArchiveSegmentCoder::Chain rollback_;
  std::unique_ptr<SegmentStore> store_;
  uint64_t bytes_ = 0;
  std::optional<uint64_t> log_id_;
  bool gap_pending_ = false;
};

class FileBackend final : public StorageBackend {
 public:
  FileBackend(std::string path, ArchiveSegmentCodec codec, bool sync_flush,
              bool degrade)
      : path_(std::move(path)),
        codec_(codec),
        sync_flush_(sync_flush),
        degrade_(degrade) {}

  ~FileBackend() override {
    const Status closed = Close();
    (void)closed;  // Destructor cannot propagate; Close() is idempotent.
  }

  Status Open() override {
    if (file_ != nullptr) return Status::OK();
    // A missing or empty file starts a fresh archive; anything else is
    // recovered. A failed stat must not be mistaken for either.
    std::error_code ec;
    const bool exists = std::filesystem::exists(path_, ec);
    const uintmax_t size = exists ? std::filesystem::file_size(path_, ec) : 0;
    if (ec) {
      return Status::IOError("cannot stat archive '" + path_ +
                             "': " + ec.message());
    }
    if (size > 0) PLASTREAM_RETURN_NOT_OK(Recover());
    file_ = std::fopen(path_.c_str(), recovered_ ? "ab" : "wb");
    if (file_ == nullptr) {
      return MediumError("cannot open archive '" + path_ + "' for appending",
                         errno);
    }
    if (!recovered_) {
      const std::vector<uint8_t> header = EncodeArchiveHeader(codec_);
      errno = 0;
      if (std::fwrite(header.data(), 1, header.size(), file_) !=
              header.size() ||
          std::fflush(file_) != 0) {
        return MediumError("cannot write archive header to '" + path_ + "'",
                           errno != 0 ? errno : EIO);
      }
      bytes_written_ = header.size();
    }
    return Status::OK();
  }

  Result<StreamStorage*> OpenStream(std::string_view key,
                                    size_t dimensions) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr && !archiving_lost_) {
      return Status::FailedPrecondition("archive '" + path_ +
                                        "' is not open");
    }
    const auto it = streams_.find(key);
    if (it != streams_.end()) {
      if (it->second->store()->dimensions() != dimensions) {
        return Status::InvalidArgument(
            "stream '" + std::string(key) + "' in archive '" + path_ +
            "' has dimensionality " +
            std::to_string(it->second->store()->dimensions()) + ", not " +
            std::to_string(dimensions));
      }
      return it->second.get();
    }
    auto handle = std::make_unique<FileStreamStorage>(
        this, std::string(key), codec_, dimensions,
        std::make_unique<SegmentStore>(dimensions));
    FileStreamStorage* borrowed = handle.get();
    const Status opened = LogStreamOpenLocked(borrowed);
    if (!opened.ok()) {
      if (!degrade_) {
        // fail policy: the stream never existed.
        StickyFailLocked(opened);
        return opened;
      }
      // degrade: the stream is served from memory; its open record (and
      // log id) will be written when the medium comes back, before its
      // first archived segment.
      if (!archiving_lost_) EnterDegradedLocked(opened);
    }
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

  Status Flush() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (degrade_) {
      // While archiving is suspended there is nothing buffered to push —
      // degrade mode flushes per record; ingest must keep being served.
      if (degraded_ || archiving_lost_ || file_ == nullptr) {
        return Status::OK();
      }
      const Status flushed = FlushFileLocked();
      if (!flushed.ok()) EnterDegradedLocked(flushed);
      return Status::OK();
    }
    PLASTREAM_RETURN_NOT_OK(write_status_);
    if (file_ != nullptr) {
      const Status flushed = FlushFileLocked();
      if (!flushed.ok()) StickyFailLocked(flushed);
    }
    return write_status_;
  }

  Status Close() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) return degrade_ ? Status::OK() : write_status_;
    Status failed = Status::OK();
    errno = 0;
    if (std::fflush(file_) != 0) {
      failed = MediumError("cannot flush archive '" + path_ + "'",
                           errno != 0 ? errno : EIO);
    }
    errno = 0;
    if (std::fclose(file_) != 0 && failed.ok()) {
      failed = MediumError("cannot close archive '" + path_ + "'",
                           errno != 0 ? errno : EIO);
    }
    file_ = nullptr;
    if (!failed.ok()) {
      if (degrade_) {
        // Finish must not fail because the archive medium is gone; the
        // in-memory stores remain authoritative and health says why.
        archiving_lost_ = true;
        health_.state = StorageHealth::State::kFailing;
        health_.cause = failed.message();
        return Status::OK();
      }
      StickyFailLocked(failed);
    }
    return write_status_;
  }

  uint64_t bytes_written() const override { return bytes_written_; }

  StorageHealth Health() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return health_;
  }

  std::string_view name() const override { return "file"; }

  // The gate Append checks before touching the store: under `fail` a
  // sticky medium failure keeps reporting itself; under `degrade` ingest
  // is always served. Lock-free until a failure has been recorded.
  Status AppendGate() {
    if (degrade_ || !failed_.load(std::memory_order_acquire)) {
      return Status::OK();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    return write_status_;
  }

  /// Logs `segment` (already in `stream`'s store) as the stream's next
  /// record, applying the on_error policy.
  Status ArchiveSegment(const Segment& segment, FileStreamStorage* stream) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!degrade_ && !write_status_.ok()) return write_status_;
    if (archiving_lost_) {
      DropSegmentLocked(stream);
      return Status::OK();
    }
    // Degraded or healthy: every segment re-probes the medium, which is
    // exactly the auto-resume path. The stream-open record (with the
    // stream's deferred log id) must land first.
    if (!stream->has_log_id()) {
      const Status opened = LogStreamOpenLocked(stream);
      if (!opened.ok()) return SegmentWriteFailedLocked(opened, stream);
    }
    record_.clear();
    stream->AppendRecord(segment, &record_);
    const Status wrote = TryWriteRecordLocked(record_, stream);
    if (!wrote.ok()) {
      stream->RollbackCoder();
      return SegmentWriteFailedLocked(wrote, stream);
    }
    stream->CommitLogged();
    if (degraded_) {
      degraded_ = false;
      health_.state = StorageHealth::State::kOk;
      health_.cause.clear();
      ++health_.recoveries;
    }
    return Status::OK();
  }

  /// Segments recovered from a pre-existing archive at Open() time.
  size_t recovered_segments() const { return recovered_segments_; }

  /// Bytes dropped from a torn tail at Open() time.
  uint64_t truncated_bytes() const { return truncated_bytes_; }

 private:
  // One fflush with the fault hook and errno folded in. Lock held.
  Status FlushFileLocked() {
    if (FaultInjector* faults = FaultInjector::Active()) {
      if (faults->Next(FaultSite::kFileFlush).no_space) {
        return MediumError("cannot flush archive '" + path_ + "'", ENOSPC);
      }
    }
    errno = 0;
    if (std::fflush(file_) != 0) {
      return MediumError("cannot flush archive '" + path_ + "'",
                         errno != 0 ? errno : EIO);
    }
    return Status::OK();
  }

  // Attempts one record append (no failure policy applied): fault hook,
  // fwrite, and the per-record flush `degrade` relies on. Accounts bytes
  // on success. Lock held.
  Status TryWriteRecordLocked(std::span<const uint8_t> record,
                              FileStreamStorage* stream) {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("archive '" + path_ +
                                        "' is already closed");
    }
    if (FaultInjector* faults = FaultInjector::Active()) {
      if (faults->Next(FaultSite::kFileWrite, record.size()).no_space) {
        return MediumError("cannot append record to archive '" + path_ + "'",
                           ENOSPC);
      }
    }
    errno = 0;
    if (std::fwrite(record.data(), 1, record.size(), file_) !=
        record.size()) {
      return MediumError("cannot append record to archive '" + path_ + "'",
                         errno != 0 ? errno : EIO);
    }
    if (sync_flush_ || degrade_) {
      PLASTREAM_RETURN_NOT_OK(FlushFileLocked());
    }
    bytes_written_ += record.size();
    if (stream != nullptr) stream->add_bytes(record.size());
    return Status::OK();
  }

  // Writes `stream`'s stream-open record, assigning its log id on
  // success. Ids must appear sequentially in the log (the scanner
  // enforces it), so next_stream_id_ only advances when the record lands.
  Status LogStreamOpenLocked(FileStreamStorage* stream) {
    record_.clear();
    AppendStreamOpenRecord(next_stream_id_, stream->key(),
                           stream->store()->dimensions(), &record_);
    const Status wrote = TryWriteRecordLocked(record_, stream);
    if (!wrote.ok()) return wrote;
    stream->set_log_id(next_stream_id_++);
    return Status::OK();
  }

  // The on_error policy for a failed segment (or deferred-open) write,
  // after the stream's chain state has been rolled back. Lock held.
  // Returns what Append should report.
  Status SegmentWriteFailedLocked(const Status& failed,
                                  FileStreamStorage* stream) {
    if (!degrade_) {
      StickyFailLocked(failed);
      return failed;
    }
    DropSegmentLocked(stream);
    EnterDegradedLocked(failed);
    return Status::OK();
  }

  void DropSegmentLocked(FileStreamStorage* stream) {
    stream->MarkGap();
    ++health_.segments_dropped;
  }

  void StickyFailLocked(const Status& failed) {
    ++health_.write_failures;
    write_status_ = failed;
    failed_.store(true, std::memory_order_release);
    health_.state = StorageHealth::State::kFailing;
    health_.cause = failed.message();
  }

  // Enters (or stays in) degraded mode and restores the log tail so the
  // next probe appends to a clean, torn-tail-free file.
  void EnterDegradedLocked(const Status& failed) {
    ++health_.write_failures;
    degraded_ = true;
    health_.state = StorageHealth::State::kDegraded;
    health_.cause = failed.message();
    const Status restored = RestoreLogTailLocked();
    if (!restored.ok()) {
      // Even reopening the file fails: archiving is lost for good, but
      // ingest keeps being served from the in-memory stores.
      archiving_lost_ = true;
      health_.state = StorageHealth::State::kFailing;
      health_.cause = restored.message();
    }
  }

  // After a failed stdio write the buffer state is unknowable: close the
  // handle (discarding or flushing whatever stdio still holds), truncate
  // to the last committed byte and reopen in append mode. Every committed
  // record was flushed (degrade implies per-record flush), so
  // bytes_written_ is exactly the intact prefix.
  Status RestoreLogTailLocked() {
    if (file_ != nullptr) {
      (void)std::fclose(file_);  // flush failure is fine; truncating below
      file_ = nullptr;
    }
    std::error_code ec;
    std::filesystem::resize_file(path_, bytes_written_, ec);
    if (ec) {
      return Status::IOError("cannot restore archive tail of '" + path_ +
                             "': " + ec.message());
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) {
      return MediumError("cannot reopen archive '" + path_ + "'", errno);
    }
    return Status::OK();
  }

  // Scans the existing log, truncates a torn tail, and adopts every
  // recovered stream (store + chain state) so appends continue the file.
  Status Recover() {
    PLASTREAM_ASSIGN_OR_RETURN(ArchiveScan scan, ScanArchiveFile(path_));
    if (scan.codec != codec_) {
      return Status::InvalidArgument(
          "archive '" + path_ + "' uses codec '" +
          std::string(ArchiveSegmentCodecName(scan.codec)) +
          "', spec asks for '" +
          std::string(ArchiveSegmentCodecName(codec_)) + "'");
    }
    if (scan.torn) {
      std::error_code ec;
      std::filesystem::resize_file(path_, scan.valid_bytes, ec);
      if (ec) {
        return Status::IOError("cannot truncate torn tail of archive '" +
                               path_ + "': " + ec.message());
      }
      truncated_bytes_ = scan.file_bytes - scan.valid_bytes;
    }
    for (size_t id = 0; id < scan.streams.size(); ++id) {
      ArchiveStream& recovered = *scan.streams[id];
      recovered_segments_ += recovered.store->segment_count();
      auto handle = std::make_unique<FileStreamStorage>(
          this, recovered.key, codec_, recovered.dimensions,
          std::move(recovered.store));
      handle->set_log_id(id);
      handle->add_bytes(recovered.bytes);
      streams_.emplace(std::move(recovered.key), std::move(handle));
    }
    next_stream_id_ = scan.streams.size();
    bytes_written_ = scan.valid_bytes;
    recovered_ = true;
    return Status::OK();
  }

  const std::string path_;
  const ArchiveSegmentCodec codec_;
  const bool sync_flush_;
  const bool degrade_;  // on_error=degrade

  // guards the stream map, FILE*, record_, write_status_, health_
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::vector<uint8_t> record_;  // reused framing buffer, one record
  Status write_status_ = Status::OK();  // first append failure, sticky
  std::atomic<bool> failed_{false};     // mirrors !write_status_.ok()
  std::map<std::string, std::unique_ptr<FileStreamStorage>, std::less<>>
      streams_;
  uint64_t next_stream_id_ = 0;
  uint64_t bytes_written_ = 0;
  bool recovered_ = false;
  size_t recovered_segments_ = 0;
  uint64_t truncated_bytes_ = 0;
  bool degraded_ = false;        // archiving suspended, probing for resume
  bool archiving_lost_ = false;  // medium unrecoverable; memory-only now
  StorageHealth health_;
};

Status FileStreamStorage::Append(const Segment& segment) {
  // Under `fail` a sticky log failure must keep reporting itself — not
  // morph into a chain error when a retried segment hits the
  // already-updated store. Under `degrade` ingest is always served.
  PLASTREAM_RETURN_NOT_OK(backend_->AppendGate());
  // Validate (and publish to the queryable view) before any byte reaches
  // the log, so an invalid segment can never corrupt the archive.
  PLASTREAM_RETURN_NOT_OK(store_->Append(segment));
  return backend_->ArchiveSegment(segment, this);
}

}  // namespace

void RegisterFileStorageBackend(StorageRegistry& registry) {
  const Status status = registry.Register(
      "file",
      [](const FilterSpec& spec) -> Result<std::unique_ptr<StorageBackend>> {
        PLASTREAM_RETURN_NOT_OK(
            spec.ExpectParamsIn({"path", "codec", "sync", "on_error"}));
        const std::string* path = spec.FindParam("path");
        if (path == nullptr || path->empty()) {
          return Status::InvalidArgument(
              "storage backend 'file' needs a path parameter, e.g. "
              "\"file(path=segments.plar)\"");
        }
        ArchiveSegmentCodec codec = ArchiveSegmentCodec::kDelta;
        if (const std::string* name = spec.FindParam("codec");
            name != nullptr) {
          PLASTREAM_ASSIGN_OR_RETURN(codec, ParseArchiveSegmentCodec(*name));
        }
        bool sync_flush = false;
        if (const std::string* sync = spec.FindParam("sync");
            sync != nullptr) {
          if (*sync == "flush") {
            sync_flush = true;
          } else if (*sync != "none") {
            return Status::InvalidArgument(
                "storage backend 'file' parameter 'sync' must be none or "
                "flush, got '" +
                *sync + "'");
          }
        }
        bool degrade = false;
        if (const std::string* on_error = spec.FindParam("on_error");
            on_error != nullptr) {
          if (*on_error == "degrade") {
            degrade = true;
          } else if (*on_error != "fail") {
            return Status::InvalidArgument(
                "storage backend 'file' parameter 'on_error' must be fail "
                "or degrade, got '" +
                *on_error + "'");
          }
        }
        return std::unique_ptr<StorageBackend>(
            new FileBackend(*path, codec, sync_flush, degrade));
      });
  (void)status;  // Double registration is caller error; see Register().
}

}  // namespace plastream
