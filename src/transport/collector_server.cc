// Copyright (c) 2026 The plastream Authors. MIT license.

#include "transport/collector_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "transport/endpoint.h"
#include "transport/net_protocol.h"

#if !defined(_WIN32)
#include <errno.h>
#include <poll.h>
#include <unistd.h>
#endif

namespace plastream {

// Per-connection socket state. Only the Serve() thread touches it.
struct CollectorServer::Connection {
  SocketFd fd;
  uint64_t id = 0;  // accept order; decides stream-ownership takeovers
  FrameSplitter splitter;
  std::vector<uint8_t> outbuf;  // pending ACK/ERROR bytes
  size_t out_written = 0;       // prefix of outbuf already on the socket
  bool got_hello = false;
  bool closing = false;          // flush outbuf, then close
  int64_t accepted_ms = 0;       // steady-clock accept time
  int64_t last_read_ms = 0;      // steady-clock time of the last byte read
  int64_t closing_since_ms = 0;  // when the terminal ERROR was queued
  uint64_t bytes_read = 0;       // cumulative inbound bytes
  std::string codec_spec;        // canonical, from the hello
  std::map<uint32_t, KeyState*> streams;  // connection-local id → key

  explicit Connection(SocketFd fd_in, size_t max_message_bytes)
      : fd(std::move(fd_in)), splitter(max_message_bytes) {}

  size_t pending_out() const { return outbuf.size() - out_written; }
};

Result<std::unique_ptr<CollectorServer>> CollectorServer::Listen(
    const FilterSpec& endpoint_spec, Options options) {
  PLASTREAM_ASSIGN_OR_RETURN(const NetEndpoint endpoint,
                             ParseNetEndpoint(endpoint_spec));
  SocketFd listener;
  NetEndpoint bound = endpoint;
  if (endpoint.kind == NetEndpoint::Kind::kTcp) {
    PLASTREAM_ASSIGN_OR_RETURN(listener,
                               TcpListen(endpoint.host, endpoint.port));
    PLASTREAM_ASSIGN_OR_RETURN(bound.port, BoundTcpPort(listener));
  } else {
    PLASTREAM_ASSIGN_OR_RETURN(listener, UdsListen(endpoint.path));
  }
  if (options.codec_registry == nullptr) {
    options.codec_registry = &CodecRegistry::Global();
  }
  const StorageRegistry* storage_registry =
      options.storage_registry != nullptr ? options.storage_registry
                                          : &StorageRegistry::Global();
  PLASTREAM_ASSIGN_OR_RETURN(auto storage,
                             storage_registry->MakeBackend(
                                 std::string_view(options.storage_spec)));
  PLASTREAM_RETURN_NOT_OK(storage->Open());
  auto server = std::unique_ptr<CollectorServer>(new CollectorServer(
      std::move(options), std::move(listener), bound.Format(), bound.port,
      std::move(storage)));
#if defined(_WIN32)
  return Status::Unimplemented("collector server requires POSIX");
#else
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return ErrnoStatus("pipe");
  server->wake_read_ = SocketFd(pipe_fds[0]);
  server->wake_write_ = SocketFd(pipe_fds[1]);
  PLASTREAM_RETURN_NOT_OK(SetNonBlocking(server->wake_read_.get()));
  PLASTREAM_RETURN_NOT_OK(SetNonBlocking(server->wake_write_.get()));
  return server;
#endif
}

Result<std::unique_ptr<CollectorServer>> CollectorServer::Listen(
    std::string_view endpoint_text, Options options) {
  PLASTREAM_ASSIGN_OR_RETURN(const FilterSpec spec,
                             FilterSpec::Parse(endpoint_text));
  return Listen(spec, std::move(options));
}

Result<std::unique_ptr<CollectorServer>> CollectorServer::Listen(
    std::string_view endpoint_text) {
  return Listen(endpoint_text, Options());
}

CollectorServer::CollectorServer(Options options, SocketFd listener,
                                 std::string endpoint, uint16_t port,
                                 std::unique_ptr<StorageBackend> storage)
    : options_(std::move(options)),
      listener_(std::move(listener)),
      endpoint_(std::move(endpoint)),
      port_(port),
      storage_(std::move(storage)) {
  read_chunk_.resize(options_.read_chunk_bytes);
}

CollectorServer::~CollectorServer() {
  Shutdown();
  // Serve() may never have run (or already exited); either way the
  // archive medium is released here. The in-memory stores stay readable.
  (void)storage_->Close();
}

std::string CollectorServer::endpoint() const { return endpoint_; }

void CollectorServer::Shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
#if !defined(_WIN32)
  const uint8_t byte = 1;
  (void)!::write(wake_write_.get(), &byte, 1);
#endif
}

void CollectorServer::DropConnections() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    drop_connections_ = true;
  }
#if !defined(_WIN32)
  const uint8_t byte = 1;
  (void)!::write(wake_write_.get(), &byte, 1);
#endif
}

#if defined(_WIN32)

Status CollectorServer::Serve() {
  return Status::Unimplemented("collector server requires POSIX");
}
Status CollectorServer::LoopOnce(bool*) {
  return Status::Unimplemented("collector server requires POSIX");
}
void CollectorServer::AcceptPending(int64_t) {}
bool CollectorServer::ServiceRead(Connection&) { return false; }
bool CollectorServer::ServiceWrite(Connection&) { return false; }

#else

namespace {

// Milliseconds on the steady clock — deadline arithmetic only, never
// wall time.
int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Status CollectorServer::Serve() {
  bool stop = false;
  while (!stop) {
    PLASTREAM_RETURN_NOT_OK(LoopOnce(&stop));
  }
  // Close every socket; keys_ stays for the read-side accessors.
  for (size_t i = connections_.size(); i > 0; --i) CloseConnection(i - 1);
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.connections_open = 0;
  return Status::OK();
}

Status CollectorServer::LoopOnce(bool* stop) {
  bool drop = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      *stop = true;
      return Status::OK();
    }
    drop = std::exchange(drop_connections_, false);
  }
  if (drop) {
    for (size_t i = connections_.size(); i > 0; --i) CloseConnection(i - 1);
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.connections_dropped += std::exchange(stats_.connections_open, 0);
  }

  // Reap closing connections that have already flushed their ERROR: they
  // register no poll interest, so without this sweep they would linger.
  const int64_t now_ms = NowMs();
  for (size_t i = connections_.size(); i > 0; --i) {
    Connection& reaping = *connections_[i - 1];
    bool done = reaping.closing && reaping.pending_out() == 0;
    // A peer that never drains the terminal ERROR (a slowloris socket
    // with a full send window) must not pin the descriptor forever:
    // hard-close once the linger deadline passes.
    if (!done && reaping.closing && options_.evict_linger_ms > 0 &&
        reaping.closing_since_ms > 0 &&
        now_ms - reaping.closing_since_ms >=
            static_cast<int64_t>(options_.evict_linger_ms)) {
      done = true;
    }
    if (done) {
      CloseConnection(i - 1);
      const std::lock_guard<std::mutex> lock(mutex_);
      --stats_.connections_open;
      ++stats_.connections_dropped;
    }
  }

  EnforceDeadlines(now_ms);

  std::vector<struct pollfd> pollfds;
  pollfds.reserve(connections_.size() + 2);
  pollfds.push_back({wake_read_.get(), POLLIN, 0});
  // During EMFILE backoff the level-triggered listener POLLIN would make
  // poll() spin; withhold interest until the retry deadline.
  short listener_events = POLLIN;
  if (accept_backoff_until_ms_ > now_ms) listener_events = 0;
  pollfds.push_back({listener_.get(), listener_events, 0});
  bool any_closing = false;
  for (const auto& conn : connections_) {
    short events = 0;
    // Backpressure: a connection whose ACK buffer is at its bound (or
    // that is draining toward close) is not read until it empties.
    if (!conn->closing &&
        conn->pending_out() < options_.max_write_buffer_bytes) {
      events |= POLLIN;
    }
    if (conn->pending_out() > 0) events |= POLLOUT;
    if (conn->closing) any_closing = true;
    pollfds.push_back({conn->fd.get(), events, 0});
  }

  // Deadlines, evict lingers and accept backoff all need the loop to wake
  // without socket traffic; otherwise block in poll() indefinitely.
  const bool sweeping =
      !connections_.empty() &&
      (options_.handshake_timeout_ms > 0 || options_.idle_timeout_ms > 0 ||
       options_.min_bytes_per_sec > 0 ||
       options_.max_connection_buffer_bytes > 0 ||
       options_.max_total_buffer_bytes > 0);
  int poll_timeout_ms = -1;
  if (sweeping || any_closing || accept_backoff_until_ms_ > now_ms) {
    poll_timeout_ms = 20;
  }

  int rc;
  do {
    rc = ::poll(pollfds.data(), pollfds.size(), poll_timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("poll");

  if ((pollfds[0].revents & POLLIN) != 0) {
    uint8_t drain[64];
    while (::read(wake_read_.get(), drain, sizeof(drain)) > 0) {
    }
  }
  if ((pollfds[1].revents & POLLIN) != 0) AcceptPending(NowMs());

  // Service connections back to front so CloseConnection's swap-erase
  // never disturbs an index we have not visited yet. Only the polled
  // prefix: connections AcceptPending just added have no pollfd entry
  // and wait for the next loop.
  for (size_t i = pollfds.size() - 2; i > 0; --i) {
    const size_t index = i - 1;
    Connection& conn = *connections_[index];
    const short revents = pollfds[2 + index].revents;
    if (revents == 0) continue;
    bool alive = true;
    if ((revents & POLLOUT) != 0) alive = ServiceWrite(conn);
    if (alive && (revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !conn.closing) {
      alive = ServiceRead(conn);
    }
    // A closing connection with nothing left to flush is done; one whose
    // peer vanished (POLLHUP with no readable data) is cleaned up by the
    // read path returning false.
    if (alive && conn.closing && conn.pending_out() == 0) alive = false;
    if (!alive) {
      CloseConnection(index);
      const std::lock_guard<std::mutex> lock(mutex_);
      --stats_.connections_open;
      ++stats_.connections_dropped;
    }
  }
  return Status::OK();
}

void CollectorServer::AcceptPending(int64_t now_ms) {
  while (true) {
    bool fd_exhausted = false;
    auto accepted = AcceptConnection(listener_, &fd_exhausted);
    if (!accepted.ok()) {
      if (fd_exhausted) {
        // Out of descriptors: free one by shedding the connection that
        // has been silent longest, and back the listener off so its
        // level-triggered POLLIN does not spin until the close lands.
        ShedOldestIdle();
        accept_backoff_until_ms_ =
            now_ms + static_cast<int64_t>(options_.accept_retry_ms);
      }
      return;  // transient accept failure: retry later
    }
    if (!accepted.value().valid()) return;  // drained
    connections_.push_back(std::make_unique<Connection>(
        std::move(accepted).value(), options_.max_message_bytes));
    connections_.back()->id = ++next_connection_id_;
    connections_.back()->accepted_ms = now_ms;
    connections_.back()->last_read_ms = now_ms;
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.connections_accepted;
    ++stats_.connections_open;
  }
}

void CollectorServer::EnforceDeadlines(int64_t now_ms) {
  struct Candidate {
    Connection* conn;
    size_t footprint;
  };
  size_t total = 0;
  std::vector<Candidate> open;
  for (const auto& conn_ptr : connections_) {
    Connection& conn = *conn_ptr;
    if (conn.closing) continue;
    const size_t footprint =
        conn.splitter.buffered_bytes() + conn.pending_out();
    if (options_.handshake_timeout_ms > 0 && !conn.got_hello &&
        now_ms - conn.accepted_ms >=
            static_cast<int64_t>(options_.handshake_timeout_ms)) {
      EvictConnection(conn,
                      "handshake deadline exceeded (" +
                          std::to_string(options_.handshake_timeout_ms) +
                          " ms without a complete HELLO)",
                      &Stats::evicted_handshake);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && conn.got_hello &&
        now_ms - conn.last_read_ms >=
            static_cast<int64_t>(options_.idle_timeout_ms)) {
      EvictConnection(conn,
                      "idle deadline exceeded (" +
                          std::to_string(options_.idle_timeout_ms) +
                          " ms without data)",
                      &Stats::evicted_idle);
      continue;
    }
    if (options_.min_bytes_per_sec > 0) {
      // Average-since-accept rate, checked only after a grace period so a
      // connection gets a fair window to ramp up. Catches the slowloris
      // shape the handshake deadline cannot: a peer trickling single
      // bytes often enough to never look idle.
      const int64_t grace_ms = static_cast<int64_t>(
          std::max<size_t>(options_.handshake_timeout_ms, 1000));
      const int64_t age_ms = now_ms - conn.accepted_ms;
      if (age_ms >= grace_ms &&
          conn.bytes_read * 1000 <
              static_cast<uint64_t>(options_.min_bytes_per_sec) *
                  static_cast<uint64_t>(age_ms)) {
        EvictConnection(conn,
                        "progress below " +
                            std::to_string(options_.min_bytes_per_sec) +
                            " bytes/sec",
                        &Stats::evicted_slow);
        continue;
      }
    }
    if (options_.max_connection_buffer_bytes > 0 &&
        footprint > options_.max_connection_buffer_bytes) {
      EvictConnection(
          conn,
          "connection memory budget exceeded (" + std::to_string(footprint) +
              " > " + std::to_string(options_.max_connection_buffer_bytes) +
              " bytes buffered)",
          &Stats::shed_budget);
      continue;
    }
    total += footprint;
    open.push_back({&conn, footprint});
  }
  if (options_.max_total_buffer_bytes == 0 ||
      total <= options_.max_total_buffer_bytes) {
    return;
  }
  // Over the global budget: shed the largest buffers first until under.
  std::sort(open.begin(), open.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.footprint > b.footprint;
            });
  for (const Candidate& c : open) {
    if (total <= options_.max_total_buffer_bytes) break;
    EvictConnection(*c.conn,
                    "collector memory budget exceeded (shedding " +
                        std::to_string(c.footprint) + " buffered bytes)",
                    &Stats::shed_budget);
    total -= c.footprint;
  }
}

void CollectorServer::EvictConnection(Connection& conn,
                                      const std::string& reason,
                                      size_t Stats::*counter) {
  if (conn.closing) return;
  AppendErrorMessage(&conn.outbuf, reason);
  conn.closing = true;
  conn.closing_since_ms = NowMs();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++(stats_.*counter);
}

void CollectorServer::ShedOldestIdle() {
  Connection* oldest = nullptr;
  for (const auto& conn : connections_) {
    if (conn->closing) continue;
    if (oldest == nullptr || conn->last_read_ms < oldest->last_read_ms) {
      oldest = conn.get();
    }
  }
  if (oldest == nullptr) return;
  EvictConnection(*oldest,
                  "collector out of file descriptors; shedding the oldest "
                  "idle connection",
                  &Stats::shed_fd_pressure);
}

bool CollectorServer::ServiceRead(Connection& conn) {
  size_t n = 0;
  const IoOutcome outcome =
      ReadSome(conn.fd.get(), read_chunk_, &n);
  if (outcome == IoOutcome::kWouldBlock) return true;
  if (outcome != IoOutcome::kProgress) return false;  // closed or error
  conn.last_read_ms = NowMs();
  conn.bytes_read += n;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_received += n;
  }
  const Status fed =
      conn.splitter.Feed(std::span<const uint8_t>(read_chunk_.data(), n));
  if (!fed.ok()) {
    FailConnection(conn, fed.message());  // deliver the ERROR, then close
  } else {
    while (conn.splitter.HasFrame()) {
      if (!HandleMessage(conn, conn.splitter.NextFrame())) break;
    }
  }
  // Write the ACKs (or the ERROR) through now rather than on the next
  // loop pass, so a producer's Flush does not wait a whole pass over every
  // connection; what the socket cannot take waits for POLLOUT.
  return ServiceWrite(conn);
}

bool CollectorServer::ServiceWrite(Connection& conn) {
  while (conn.pending_out() > 0) {
    size_t n = 0;
    const IoOutcome outcome = WriteSome(
        conn.fd.get(),
        std::span<const uint8_t>(conn.outbuf.data() + conn.out_written,
                                 conn.pending_out()),
        &n);
    if (outcome == IoOutcome::kWouldBlock) return true;
    if (outcome != IoOutcome::kProgress) return false;
    conn.out_written += n;
  }
  conn.outbuf.clear();
  conn.out_written = 0;
  return true;
}

void CollectorServer::FailConnection(Connection& conn,
                                     const std::string& reason) {
  AppendErrorMessage(&conn.outbuf, reason);
  conn.closing = true;
  if (conn.closing_since_ms == 0) conn.closing_since_ms = NowMs();
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.protocol_errors;
}

void CollectorServer::CloseConnection(size_t index) {
  Connection& conn = *connections_[index];
  {
    // Release every key the connection was streaming so a reconnect can
    // claim it.
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, state] : conn.streams) {
      if (state->owner == &conn) state->owner = nullptr;
    }
  }
  connections_[index] = std::move(connections_.back());
  connections_.pop_back();
}

bool CollectorServer::HandleMessage(Connection& conn,
                                    std::span<const uint8_t> payload) {
  const auto type = ParseMessageType(payload);
  if (!type.ok()) {
    FailConnection(conn, type.status().message());
    return false;
  }
  if (!conn.got_hello && type.value() != NetMessageType::kHello) {
    FailConnection(conn, "first message must be HELLO");
    return false;
  }
  switch (type.value()) {
    case NetMessageType::kHello: {
      const auto hello = ParseHelloMessage(payload);
      if (!hello.ok()) {
        FailConnection(conn, hello.status().message());
        return false;
      }
      if (hello.value().version != kNetProtocolVersion) {
        FailConnection(conn,
                       "protocol version " +
                           std::to_string(hello.value().version) +
                           " not supported (collector speaks " +
                           std::to_string(kNetProtocolVersion) + ")");
        return false;
      }
      // Canonicalize so "delta" and "delta()" compare equal, and verify
      // the codec exists before any stream binds to it.
      auto spec = FilterSpec::Parse(hello.value().codec_spec);
      if (!spec.ok() ||
          !options_.codec_registry->MakeCodec(spec.value()).ok()) {
        FailConnection(conn, "hello codec spec '" +
                                 hello.value().codec_spec +
                                 "' is not usable by this collector");
        return false;
      }
      conn.codec_spec = spec.value().Format();
      conn.got_hello = true;
      return true;
    }
    case NetMessageType::kOpenStream: {
      const auto open = ParseOpenStreamMessage(payload);
      if (!open.ok()) {
        FailConnection(conn, open.status().message());
        return false;
      }
      const NetOpenStream& o = open.value();
      // FailConnection locks mutex_, so collect the failure (and any
      // connection to kick) under the lock and act on them after it.
      std::string fail;
      Connection* kicked = nullptr;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = keys_.find(o.key);
        if (it == keys_.end()) {
          auto codec = options_.codec_registry->MakeCodec(
              std::string_view(conn.codec_spec));
          if (!codec.ok()) {
            fail = codec.status().message();
          } else {
            auto state = std::make_unique<KeyState>(std::move(codec).value());
            state->codec_spec = conn.codec_spec;
            state->dims = o.dims;
            auto opened = storage_->OpenStream(o.key, o.dims);
            if (!opened.ok()) {
              fail = "storage rejected stream '" + o.key +
                     "': " + opened.status().message();
            } else {
              state->storage = opened.value();
              it = keys_.emplace(o.key, std::move(state)).first;
              ++stats_.streams;
            }
          }
        }
        if (fail.empty()) {
          KeyState& state = *it->second;
          if (state.codec_spec != conn.codec_spec) {
            fail = "stream '" + o.key + "' was opened with codec " +
                   state.codec_spec + ", connection speaks " + conn.codec_spec;
          } else if (state.dims != o.dims) {
            fail = "stream '" + o.key + "' has " +
                   std::to_string(state.dims) + " dims, OPEN_STREAM declared " +
                   std::to_string(o.dims);
          } else {
            // The most recently ACCEPTED claimant wins: a producer
            // reconnecting after a dropped link can legally race the
            // server noticing the old socket died, and the two sockets'
            // buffered OPEN_STREAMs can be processed in either order.
            // Accept ids break the tie; seq dedup keeps a takeover
            // correct either way, and the losing connection is told why
            // it is being closed.
            if (state.owner != nullptr && state.owner != &conn &&
                state.owner->id > conn.id) {
              fail = "stream '" + o.key +
                     "' was claimed by a newer connection";
            } else {
              if (state.owner != nullptr && state.owner != &conn) {
                kicked = state.owner;
              }
              state.owner = &conn;
              conn.streams[o.stream_id] = &state;
            }
          }
        }
      }
      if (kicked != nullptr) {
        FailConnection(*kicked, "stream '" + o.key +
                                    "' was claimed by a newer connection");
      }
      if (!fail.empty()) {
        FailConnection(conn, fail);
        return false;
      }
      return true;
    }
    case NetMessageType::kFrame:
      return HandleFrame(conn, payload, /*finish=*/false);
    case NetMessageType::kFinish:
      return HandleFrame(conn, payload, /*finish=*/true);
    case NetMessageType::kAck:
    case NetMessageType::kError:
      FailConnection(conn, "unexpected collector-side message from producer");
      return false;
  }
  return false;
}

bool CollectorServer::HandleFrame(Connection& conn,
                                  std::span<const uint8_t> payload,
                                  bool finish) {
  const auto head = finish ? ParseFinishMessage(payload)
                           : ParseFrameMessage(payload);
  if (!head.ok()) {
    FailConnection(conn, head.status().message());
    return false;
  }
  const auto stream = conn.streams.find(head.value().stream_id);
  if (stream == conn.streams.end()) {
    FailConnection(conn, "frame for unopened stream id " +
                             std::to_string(head.value().stream_id));
    return false;
  }
  KeyState& state = *stream->second;
  const uint64_t seq = head.value().seq;
  // FailConnection locks mutex_, so collect any failure under the lock
  // and report it after.
  std::string fail;
  uint64_t ack_seq = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!state.status.ok()) {
      fail = state.status.message();
    } else if (seq <= state.applied_seq) {
      // A resend of something this collector already applied (the ACK was
      // lost with the old connection). Drop it BEFORE the codec so decode
      // chain state advances exactly once per frame, and re-ACK so the
      // producer can trim its resend buffer.
      ++stats_.frames_deduped;
    } else if (seq != state.applied_seq + 1) {
      fail = "stream sequence gap: expected " +
             std::to_string(state.applied_seq + 1) + ", got " +
             std::to_string(seq) + " (collector state lost?)";
    } else {
      const size_t records_before = state.receiver.records_received();
      Status applied = Status::OK();
      if (finish) {
        applied = state.receiver.FinishStream();
        if (!state.finished) ++stats_.streams_finished;
        state.finished = true;
      } else {
        applied = state.receiver.ApplyFrame(head.value().frame);
        ++stats_.frames_applied;
      }
      stats_.records_applied +=
          state.receiver.records_received() - records_before;
      if (applied.ok()) applied = state.status;  // archive failure
      if (!applied.ok()) {
        state.status = applied;
        fail = applied.message();
      } else {
        state.applied_seq = seq;
      }
    }
    ack_seq = state.applied_seq;
  }
  if (!fail.empty()) {
    FailConnection(conn, fail);
    return false;
  }
  AppendAckMessage(&conn.outbuf, head.value().stream_id, ack_seq);
  return true;
}

#endif  // POSIX

std::vector<std::string> CollectorServer::Keys() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> keys;
  keys.reserve(keys_.size());
  for (const auto& [key, state] : keys_) keys.push_back(key);
  return keys;
}

Result<std::vector<Segment>> CollectorServer::Segments(
    std::string_view key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) {
    return Status::NotFound("collector has no stream '" + std::string(key) +
                            "'");
  }
  if (it->second->storage == nullptr) {
    return Status::FailedPrecondition("collector storage '" +
                                      options_.storage_spec +
                                      "' retains no segments");
  }
  const auto segments = it->second->storage->store()->segments();
  return std::vector<Segment>(segments.begin(), segments.end());
}

Result<PiecewiseLinearFunction> CollectorServer::Reconstruction(
    std::string_view key) const {
  PLASTREAM_ASSIGN_OR_RETURN(std::vector<Segment> segments, Segments(key));
  return PiecewiseLinearFunction::Make(std::move(segments));
}

const SegmentStore* CollectorServer::Store(std::string_view key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = keys_.find(key);
  if (it == keys_.end() || it->second->storage == nullptr) return nullptr;
  return it->second->storage->store();
}

Status CollectorServer::KeyStatus(std::string_view key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) {
    return Status::NotFound("collector has no stream '" + std::string(key) +
                            "'");
  }
  return it->second->status;
}

CollectorServer::Stats CollectorServer::GetStats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace plastream
