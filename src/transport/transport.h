// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The pluggable transport subsystem: where a pipeline's encoded frames
// go. The default — "inproc" — keeps them in process: they are counted
// for the wire accounting and recycled unread, while each filter archives
// straight into local storage. The network transports ship them to a
// CollectorServer instead,
// turning the Pipeline into the paper's remote-producer half:
//
//   "inproc"                          counted, archived locally (default)
//   "tcp(host=10.0.0.5,port=9099)"    frames to a TCP collector
//   "uds(path=/run/plastream.sock)"   same, over a Unix-domain socket
//
// Network specs also accept max_unacked_kb= (backpressure window),
// retries= and backoff_ms= (reconnect policy) — see ProducerClient.
//
// Like codecs and storage backends, transports are chosen by the
// FilterSpec grammar through a registry, so moving a pipeline across
// machines is a configuration change, not a recompile:
//
//   Pipeline::Builder().DefaultFilter(...).Codec("delta")
//       .Transport("tcp(host=collector,port=9099)").Build()

#ifndef PLASTREAM_TRANSPORT_TRANSPORT_H_
#define PLASTREAM_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/filter_spec.h"

namespace plastream {

/// Transport-level counters, aggregated into Pipeline::Stats. All zero
/// for the in-process transport.
struct TransportStats {
  uint64_t bytes_sent = 0;           ///< raw transport bytes written
  uint64_t frames_sent = 0;          ///< frames handed to the transport
  uint64_t frames_resent = 0;        ///< frames replayed after reconnects
  uint64_t reconnects = 0;           ///< successful redials after a drop
  uint64_t backpressure_stalls = 0;  ///< sends that blocked on the window
};

/// The per-stream sending side of a remote transport. One link carries
/// one stream's codec frames, in order.
class TransportLink {
 public:
  /// Links are deleted through the base interface.
  virtual ~TransportLink() = default;

  /// Ships one codec frame. May block (backpressure) and may reconnect
  /// under the hood; an error is permanent for the whole transport.
  virtual Status SendFrame(std::span<const uint8_t> frame) = 0;

  /// Marks the stream finished at the far end (sequenced and resent like
  /// a frame). Idempotent.
  virtual Status Finish() = 0;
};

/// Where a pipeline's encoded frames go. Implementations are stateful
/// (one connection, many links) and owned by one Pipeline.
class Transport {
 public:
  /// Transports are deleted through the base interface.
  virtual ~Transport() = default;

  /// False for the in-process transport: the pipeline archives locally
  /// and never opens links. True for network transports: frames leave the
  /// process and the collector owns decode + archive state.
  virtual bool remote() const = 0;

  /// Establishes the transport. `codec_spec` is the canonical codec spec
  /// every stream encodes with — network transports announce it in their
  /// hello so the collector decodes with the same chain. Called once by
  /// Pipeline::Builder::Build() before any link opens.
  virtual Status Connect(std::string_view codec_spec) = 0;

  /// Opens the sending side of one stream. Remote transports only.
  virtual Result<std::unique_ptr<TransportLink>> OpenLink(
      std::string_view key, uint16_t dims) = 0;

  /// Blocks until everything sent on every link is acknowledged by the
  /// far end. No-op for the in-process transport.
  virtual Status Flush() = 0;

  /// Counter snapshot (thread-safe, non-blocking).
  virtual TransportStats GetStats() const = 0;

  /// The transport's registered family name ("inproc", "tcp", "uds").
  virtual std::string_view name() const = 0;
};

/// Maps transport family names to factories, same grammar and idiom as
/// CodecRegistry/StorageRegistry. Registration is not thread-safe;
/// register during startup. MakeTransport/ListTransports are const and
/// safe to call concurrently once registration has finished.
class TransportRegistry {
 public:
  /// Builds an unconnected transport from a parsed spec. The factory
  /// owns `spec.params` interpretation and must reject unknown keys.
  using Factory = std::function<Result<std::unique_ptr<Transport>>(
      const FilterSpec& spec)>;

  /// An empty registry (no built-in transports); see Global() and
  /// RegisterBuiltinTransports().
  TransportRegistry() = default;

  /// The process-wide registry, with every built-in transport
  /// pre-registered.
  static TransportRegistry& Global();

  /// Adds a transport family. Errors with FailedPrecondition when the
  /// name is taken and InvalidArgument for an empty name or null factory.
  Status Register(std::string name, Factory factory);

  /// Instantiates `spec.family`. Errors with NotFound for an
  /// unregistered transport and InvalidArgument when the spec carries
  /// filter options (eps/dims/max_lag).
  Result<std::unique_ptr<Transport>> MakeTransport(
      const FilterSpec& spec) const;

  /// Parses `spec_text` and instantiates the transport it names.
  Result<std::unique_ptr<Transport>> MakeTransport(
      std::string_view spec_text) const;

  /// Registered transport names, sorted.
  std::vector<std::string> ListTransports() const;

  /// True when the transport family is registered.
  bool Contains(std::string_view name) const;

 private:
  std::map<std::string, Factory, std::less<>> factories_;
};

/// Registers the in-process marker transport ("inproc").
void RegisterInprocTransport(TransportRegistry& registry);

/// Registers the network transports ("tcp", "uds"); defined in
/// net_transport.cc next to the ProducerClient they drive.
void RegisterNetTransports(TransportRegistry& registry);

/// Registers every built-in transport. Global() has already done this;
/// call it on private registries that should start from the built-in set.
void RegisterBuiltinTransports(TransportRegistry& registry);

}  // namespace plastream

#endif  // PLASTREAM_TRANSPORT_TRANSPORT_H_
