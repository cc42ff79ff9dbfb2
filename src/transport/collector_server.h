// Copyright (c) 2026 The plastream Authors. MIT license.
//
// CollectorServer: the network half of a plastream deployment. Producers
// run the paper's filters next to the data and ship codec frames; the
// collector multiplexes many producer connections onto the same
// archive a local Pipeline uses — per-key WireCodec + Receiver instances
// decode segments straight into a spec-selected StorageBackend, the one
// owner of them, and every SegmentStore query keeps the ±ε contract.
//
//   auto server = CollectorServer::Listen("tcp(host=127.0.0.1,port=0)",
//                                         options).value();
//   std::thread serving([&] { server->Serve().IgnoreError?? — Serve()
//                             returns when Shutdown() is called; });
//   ... producers connect to server->endpoint() ...
//   server->Shutdown(); serving.join();
//   auto segments = server->Segments("host7.cpu").value();
//
// I/O model (the quickstream bounded-ring flow shape, poll() flavored):
// one nonblocking poll loop owns every socket. Each connection reads at
// most one bounded chunk per wakeup into an incremental FrameSplitter;
// complete messages are applied immediately and cumulative ACKs are
// queued on a bounded per-connection write buffer. A connection whose
// write buffer is full stops being read until it drains — combined with
// the kernel socket buffers, a slow collector therefore surfaces to
// producers as backpressure (blocked sends) instead of unbounded memory
// on either side.
//
// Resume model: per-KEY decode state (codec chain, receiver, applied
// sequence number) lives on the server and survives connection death. A
// reconnecting producer resends everything unacknowledged; frames whose
// seq is already applied are dropped before they reach the codec, so the
// delta codec's chain state advances exactly once per frame and resumed
// streams decode byte-identically to an uninterrupted run.

#ifndef PLASTREAM_TRANSPORT_COLLECTOR_SERVER_H_
#define PLASTREAM_TRANSPORT_COLLECTOR_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter_spec.h"
#include "core/reconstruction.h"
#include "core/segment_store.h"
#include "storage/storage_backend.h"
#include "stream/frame_splitter.h"
#include "stream/receiver.h"
#include "stream/wire_codec.h"
#include "transport/socket_util.h"

namespace plastream {

/// A poll-based collector endpoint multiplexing many producer
/// connections onto per-key decode + archive state.
class CollectorServer {
 public:
  /// Server configuration; the defaults serve tests and examples.
  struct Options {
    /// Storage spec for the segment archives ("memory", "none",
    /// "file(path=...)"); built and Open()ed at Listen().
    std::string storage_spec = "memory";
    /// Registry for producer codec specs (null → CodecRegistry::Global()).
    const CodecRegistry* codec_registry = nullptr;
    /// Registry for storage_spec (null → StorageRegistry::Global()).
    const StorageRegistry* storage_registry = nullptr;
    /// Bound on one protocol message (also the FrameSplitter bound).
    size_t max_message_bytes = 4 * 1024 * 1024;
    /// Bytes read from one connection per poll wakeup.
    size_t read_chunk_bytes = 64 * 1024;
    /// Per-connection outgoing (ACK/ERROR) buffer bound; a connection at
    /// the bound stops being read until the buffer drains.
    size_t max_write_buffer_bytes = 256 * 1024;

    // --- Connection lifecycle deadlines and load shedding. A deadline of
    // 0 disables that check. Evicted connections get a terminal ERROR
    // message and a clean close; see Stats for the per-cause counters and
    // docs/ROBUSTNESS.md for the taxonomy.

    /// A connection that has not completed its HELLO within this many ms
    /// of being accepted is evicted (slowloris connections never finish a
    /// handshake).
    size_t handshake_timeout_ms = 10'000;
    /// An established connection with no bytes read for this many ms is
    /// evicted. Off by default: a producer may legitimately hold an open
    /// idle connection between bursts.
    size_t idle_timeout_ms = 0;
    /// Minimum average inbound byte rate (bytes/sec since accept, checked
    /// after the handshake grace period). Connections trickling below the
    /// floor are evicted as slowloris peers.
    size_t min_bytes_per_sec = 0;
    /// Per-connection memory budget: splitter backlog + pending outgoing
    /// bytes. An over-budget connection is shed (0 = unlimited).
    size_t max_connection_buffer_bytes = 0;
    /// Global memory budget across all connections' buffers; when
    /// exceeded the largest-footprint connection is shed until back under
    /// (0 = unlimited).
    size_t max_total_buffer_bytes = 0;
    /// After accept() fails with EMFILE/ENFILE the listener backs off for
    /// this long (and the oldest idle connection is shed) instead of
    /// spinning on a level-triggered POLLIN it cannot service.
    size_t accept_retry_ms = 100;
    /// An evicted connection whose peer never drains the terminal ERROR
    /// is hard-closed after this long.
    size_t evict_linger_ms = 1'000;
  };

  /// Aggregate collector statistics (monotonic, thread-safe snapshot).
  struct Stats {
    size_t connections_accepted = 0;  ///< sockets ever accepted
    size_t connections_open = 0;      ///< sockets currently serving
    size_t connections_dropped = 0;   ///< closed by error or DropConnections
    size_t streams = 0;               ///< distinct keys seen
    size_t streams_finished = 0;      ///< keys whose FINISH was applied
    size_t bytes_received = 0;        ///< raw socket bytes read
    size_t frames_applied = 0;        ///< codec frames decoded + applied
    size_t frames_deduped = 0;        ///< resent frames dropped by seq
    size_t records_applied = 0;       ///< wire records applied to receivers
    size_t protocol_errors = 0;       ///< connections failed by protocol
    size_t evicted_handshake = 0;     ///< evicted: HELLO deadline missed
    size_t evicted_idle = 0;          ///< evicted: idle deadline missed
    size_t evicted_slow = 0;          ///< evicted: below min progress rate
    size_t shed_budget = 0;           ///< shed: memory budget exceeded
    size_t shed_fd_pressure = 0;      ///< shed: EMFILE/ENFILE on accept
  };

  /// Binds and listens on `endpoint` — `tcp(host=...,port=...)` (port 0
  /// picks an ephemeral port; see endpoint()) or `uds(path=...)` — and
  /// opens the storage backend. Errors on a malformed endpoint spec, an
  /// unusable address, or a storage backend that fails to open.
  static Result<std::unique_ptr<CollectorServer>> Listen(
      const FilterSpec& endpoint, Options options);

  /// Parses `endpoint_text` and listens on it.
  static Result<std::unique_ptr<CollectorServer>> Listen(
      std::string_view endpoint_text, Options options);
  /// Same, with default Options.
  static Result<std::unique_ptr<CollectorServer>> Listen(
      std::string_view endpoint_text);

  /// Shuts down and closes the storage backend.
  ~CollectorServer();

  /// Runs the poll loop on the calling thread until Shutdown(). Returns
  /// OK on a clean shutdown, or the I/O error that stopped the loop.
  /// Call from a dedicated thread; all other methods are safe to call
  /// concurrently with Serve().
  Status Serve();

  /// Stops Serve() (idempotent, safe from any thread). Established
  /// connections are closed; per-key state stays queryable.
  void Shutdown();

  /// Chaos hook: hard-closes every currently accepted connection at the
  /// loop's next wakeup, as a crashed link would. Producers are expected
  /// to reconnect and resend; per-key state is untouched.
  void DropConnections();

  /// The endpoint producers should dial, as a transport spec string —
  /// with the actual port when tcp(port=0) requested an ephemeral one.
  std::string endpoint() const;

  /// The bound TCP port (0 for a uds endpoint).
  uint16_t port() const { return port_; }

  /// Keys of every stream the collector has seen, sorted.
  std::vector<std::string> Keys() const;

  /// Copy of the segments archived for `key` so far (Store(key)'s chain);
  /// NotFound for an unknown key, FailedPrecondition with a "none"
  /// storage spec, which retains nothing.
  Result<std::vector<Segment>> Segments(std::string_view key) const;

  /// Queryable reconstruction of `key`'s archived segments; errors as
  /// Segments.
  Result<PiecewiseLinearFunction> Reconstruction(std::string_view key) const;

  /// The stream's archive store, or nullptr for an unknown key or a
  /// "none" storage spec. The pointer is stable, but reading it while
  /// producers are still streaming races with appends — query after the
  /// producers' Flush()/Finish() has been acknowledged.
  const SegmentStore* Store(std::string_view key) const;

  /// First decode/archive failure on `key`, or OK. A failed key stops
  /// accepting frames (its producer is disconnected with an ERROR).
  Status KeyStatus(std::string_view key) const;

  /// Statistics snapshot.
  Stats GetStats() const;

  /// The archive backend (for byte accounting); never null.
  const StorageBackend& storage() const { return *storage_; }

 private:
  struct Connection;
  struct KeyState;

  CollectorServer(Options options, SocketFd listener, std::string endpoint,
                  uint16_t port, std::unique_ptr<StorageBackend> storage);

  // One poll-loop iteration; sets *stop on shutdown.
  Status LoopOnce(bool* stop);
  void AcceptPending(int64_t now_ms);
  // Sweeps every connection against the configured deadlines and memory
  // budgets, evicting violators with a terminal ERROR.
  void EnforceDeadlines(int64_t now_ms);
  // Queues a terminal ERROR on `conn` and bumps the given Stats counter.
  void EvictConnection(Connection& conn, const std::string& reason,
                       size_t Stats::*counter);
  // Under fd pressure: evicts the connection that has been silent
  // longest, freeing its descriptor for the accept queue.
  void ShedOldestIdle();
  // Reads one chunk and applies complete messages; false → close conn.
  bool ServiceRead(Connection& conn);
  // Flushes the connection's pending ACK/ERROR bytes; false → close.
  bool ServiceWrite(Connection& conn);
  // Applies one protocol message; false → connection must close (after
  // flushing a queued ERROR).
  bool HandleMessage(Connection& conn, std::span<const uint8_t> payload);
  bool HandleFrame(Connection& conn, std::span<const uint8_t> payload,
                   bool finish);
  // Queues an ERROR and marks the connection to close once it drains.
  void FailConnection(Connection& conn, const std::string& reason);
  void CloseConnection(size_t index);

  const Options options_;
  SocketFd listener_;
  SocketFd wake_read_;
  SocketFd wake_write_;
  const std::string endpoint_;
  const uint16_t port_;

  // Per-key decode + archive state; outlives connections (resume). The
  // receiver decodes straight into it.
  struct KeyState final : SegmentSink {
    explicit KeyState(std::unique_ptr<WireCodec> codec_in)
        : codec(std::move(codec_in)), receiver(this, codec.get()) {}
    // The receiver holds its address.
    KeyState(const KeyState&) = delete;
    KeyState& operator=(const KeyState&) = delete;
    // Archives a decoded segment; a storage failure becomes `status`.
    void OnSegment(const Segment& segment) override {
      if (storage != nullptr && status.ok()) status = storage->Append(segment);
    }
    std::unique_ptr<WireCodec> codec;   // decode chain state
    Receiver receiver;
    std::string codec_spec;             // canonical, from the hello
    StreamStorage* storage = nullptr;   // borrowed; null for "none"
    uint64_t applied_seq = 0;           // dedup line for resent frames
    uint16_t dims = 0;
    bool finished = false;
    Connection* owner = nullptr;        // live connection streaming it
    Status status = Status::OK();       // sticky decode/archive failure
  };

  // mutex_ guards keys_, stats_ and shutdown_/drop_ flags; the socket
  // structures (connections_, listener_) are touched only by the Serve()
  // thread.
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<KeyState>, std::less<>> keys_;
  Stats stats_;
  bool shutdown_ = false;
  bool drop_connections_ = false;

  std::unique_ptr<StorageBackend> storage_;
  std::vector<std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 0;  // Serve() thread only
  int64_t accept_backoff_until_ms_ = 0;  // Serve() thread only
  std::vector<uint8_t> read_chunk_;  // reused per read
};

}  // namespace plastream

#endif  // PLASTREAM_TRANSPORT_COLLECTOR_SERVER_H_
