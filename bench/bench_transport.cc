// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Network-transport throughput and backpressure on loopback: the full
// producer pipeline (filter -> codec -> ProducerClient) into an
// in-process CollectorServer over tcp and uds, per codec; plus the
// stalled-collector scenario proving the producer's memory stays
// bounded — sends block (counted as backpressure stalls) instead of
// buffering without limit.
//
//   $ ./build/bench_transport [--keys N] [--points N] [--json PATH]
//   $ ./build/bench_transport --soak [--producers N] [--points N]
//         [--slowloris N] [--faults SPEC] [--json PATH]
//
// The points/sec table is informational; end-to-end throughput is gated by
// bench/e2e's collector_fanin workload against the parent commit, not by
// an absolute floor here.
//
// Gates (exit 1):
//   * every networked run delivers all streams' FINISH to the collector
//   * the stalled-collector producer queues no more than its unacked
//     window (+ one frame) and observes >= 1 backpressure stall
//
// Soak gates (exit 1):
//   * every producer pipeline finishes OK through the injected faults
//   * the collector applies every producer's FINISH and serves a clean
//     Serve() return (zero crashes)
//   * every key's segment chain is byte-identical to a fault-free
//     in-process run of the same filter over the same signal
//   * every established slowloris socket is provably evicted by the
//     handshake deadline
//   * the archive rides out the injected mid-run ENOSPC window under
//     on_error=degrade and Health() ends back at ok with >= 1 recovery

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/fault_injection.h"
#include "datagen/random_walk.h"
#include "stream/pipeline.h"
#include "transport/collector_server.h"
#include "transport/producer_client.h"
#include "transport/socket_util.h"

namespace plastream::bench {
namespace {

struct Config {
  size_t keys = 8;
  size_t points_per_key = 20000;
  std::string json_path;
};

struct NetRun {
  std::string transport;
  std::string codec;
  double seconds = 0.0;
  double points_per_sec = 0.0;
  size_t wire_bytes = 0;
  bool delivered = false;  // collector applied every stream's FINISH
};

NetRun RunNet(const Config& config, const std::string& transport,
              const std::string& codec,
              const std::vector<std::string>& keys,
              const std::vector<Signal>& signals) {
  const std::string uds_path = "/tmp/plastream_bench_transport.sock";
  const std::string listen_spec =
      transport == "tcp" ? std::string("tcp(host=127.0.0.1,port=0)")
                         : "uds(path=" + uds_path + ")";
  auto server =
      ValueOrDie(CollectorServer::Listen(listen_spec), "Collector::Listen");
  std::thread serving([&] { CheckOk(server->Serve(), "Collector::Serve"); });

  auto pipeline = ValueOrDie(Pipeline::Builder()
                                 .DefaultSpec("slide(eps=0.5)")
                                 .Codec(codec)
                                 .Transport(server->endpoint())
                                 .Build(),
                             "Pipeline::Build");

  const auto start = std::chrono::steady_clock::now();
  for (size_t j = 0; j < config.points_per_key; ++j) {
    for (size_t k = 0; k < keys.size(); ++k) {
      CheckOk(pipeline->Append(keys[k], signals[k].points[j]),
              "Pipeline::Append");
    }
  }
  CheckOk(pipeline->Finish(), "Pipeline::Finish");
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  NetRun run;
  run.transport = transport;
  run.codec = codec;
  run.seconds = elapsed.count();
  run.points_per_sec =
      static_cast<double>(keys.size() * config.points_per_key) /
      elapsed.count();
  run.wire_bytes = pipeline->Stats().transport.bytes_sent;
  run.delivered = server->GetStats().streams_finished == keys.size();

  server->Shutdown();
  serving.join();
  if (transport == "uds") std::remove(uds_path.c_str());
  return run;
}

struct StallRun {
  size_t frames_accepted = 0;   // SendFrame calls that returned
  size_t window_bytes = 0;      // configured unacked bound
  size_t frame_bytes = 0;
  uint64_t backpressure_stalls = 0;
  bool bounded = false;  // accepted payload never outgrew the window
};

// A listener that never accepts: the TCP handshake completes via the
// backlog, the socket buffers fill, and the producer's unacked window is
// the only buffer left — SendFrame must block at its bound.
StallRun RunStalledCollector() {
  StallRun run;
  run.window_bytes = 64 * 1024;
  run.frame_bytes = 1024;

  auto listener =
      ValueOrDie(TcpListen("127.0.0.1", 0), "TcpListen");
  const uint16_t port = ValueOrDie(BoundTcpPort(listener), "BoundTcpPort");

  ProducerClient::Options options;
  options.max_unacked_bytes = run.window_bytes;
  options.retries = 0;
  auto client = ValueOrDie(
      ProducerClient::Connect("tcp(host=127.0.0.1,port=" +
                                  std::to_string(port) + ")",
                              "frame", options),
      "ProducerClient::Connect");
  const uint32_t stream =
      ValueOrDie(client->OpenStream("stalled", 1), "OpenStream");

  // Unblock the (expected) stalled send after a grace period.
  std::thread watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    client->Abort();
  });

  const std::vector<uint8_t> frame(run.frame_bytes, 0x5A);
  for (size_t i = 0; i < 100000; ++i) {
    if (!client->SendFrame(stream, frame).ok()) break;
    ++run.frames_accepted;
  }
  watchdog.join();

  const ProducerClient::Stats stats = client->GetStats();
  run.backpressure_stalls = stats.backpressure_stalls;
  // Memory bound: every accepted frame sits in the unacked buffer (the
  // collector never ACKs), so accepted payload must stay within the
  // window plus the one frame a blocked send holds.
  run.bounded = run.frames_accepted * run.frame_bytes <=
                run.window_bytes + 2 * run.frame_bytes;
  return run;
}

// --- chaos soak --------------------------------------------------------------

struct SoakConfig {
  size_t producers = 200;
  size_t points_per_key = 200;
  size_t slowloris = 16;
  std::string fault_spec =
      "faults(seed=7,short_io=0.05,err_rate=0.01,enospc_after=200,"
      "enospc_for=100)";
  std::string json_path;
};

struct SoakReport {
  double seconds = 0.0;
  size_t producer_failures = 0;
  size_t slowloris_established = 0;
  bool byte_identical = false;
  bool serve_ok = false;
  StorageHealth health;
  CollectorServer::Stats stats;
};

// One producer's signal and its fault-free reference segments.
struct SoakStream {
  std::string key;
  Signal signal;
  std::vector<Segment> reference;
};

constexpr const char* kSoakFilterSpec = "swing(eps=0.5)";

// A socket that connects and then never sends a byte, so it can never
// complete a handshake — the collector must evict it, not let it pin a
// connection slot forever. Staying silent keeps the gate deterministic:
// the collector never reads this connection, so no injected read fault
// can race the handshake deadline, and every established slowloris
// socket is accounted for by evicted_handshake exactly.
void HoldSlowloris(uint16_t port, std::atomic<size_t>* established) {
  auto conn = TcpConnect("127.0.0.1", port, /*connect_timeout_ms=*/5000);
  if (!conn.ok()) return;
  established->fetch_add(1);
  // Hold the socket until the collector evicts it (ERROR then close) or
  // a generous deadline passes.
  uint8_t buf[256];
  size_t n = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (!PollSocket(conn->get(), /*want_write=*/false, 200)) continue;
    const IoOutcome outcome =
        ReadSome(conn->get(), std::span<uint8_t>(buf, sizeof(buf)), &n);
    if (outcome == IoOutcome::kClosed || outcome == IoOutcome::kError) return;
  }
}

SoakReport RunSoak(const SoakConfig& config) {
  SoakReport report;

  // Per-producer signals, plus the fault-free in-process reference every
  // chaos run must match byte for byte.
  std::vector<SoakStream> streams(config.producers);
  for (size_t i = 0; i < config.producers; ++i) {
    streams[i].key = "soak" + std::to_string(i) + ".metric";
    RandomWalkOptions walk;
    walk.count = config.points_per_key;
    walk.max_delta = 0.8;
    walk.seed = 9000 + i;
    streams[i].signal = ValueOrDie(GenerateRandomWalk(walk), "random walk");
    auto reference = ValueOrDie(
        Pipeline::Builder().DefaultSpec(kSoakFilterSpec).Build(),
        "reference Pipeline::Build");
    for (const DataPoint& point : streams[i].signal.points) {
      CheckOk(reference->Append(streams[i].key, point), "reference Append");
    }
    CheckOk(reference->Finish(), "reference Finish");
    streams[i].reference = ValueOrDie(reference->Segments(streams[i].key),
                                      "reference Segments");
  }

  // The collector under test: handshake deadline armed for the slowloris
  // mix, memory budgets bounding every connection, and a degrade-policy
  // file archive the fault plan's ENOSPC window will hit mid-run.
  const std::string archive_path = "/tmp/plastream_soak_" +
                                   std::to_string(::getpid()) + ".plar";
  std::remove(archive_path.c_str());
  CollectorServer::Options options;
  options.storage_spec = "file(path=" + archive_path + ",on_error=degrade)";
  options.handshake_timeout_ms = 1000;
  options.max_connection_buffer_bytes = 4 * 1024 * 1024;
  options.max_total_buffer_bytes = 256 * 1024 * 1024;
  auto server = ValueOrDie(
      CollectorServer::Listen("tcp(host=127.0.0.1,port=0)", options),
      "Collector::Listen");
  Status serve_status = Status::OK();
  std::thread serving([&] { serve_status = server->Serve(); });
  const std::string endpoint =
      "tcp(host=127.0.0.1,port=" + std::to_string(server->port()) +
      ",retries=300,backoff_ms=1,backoff_max_ms=8,connect_timeout_ms=5000)";

  const auto start = std::chrono::steady_clock::now();
  std::atomic<size_t> slowloris_established{0};
  std::atomic<size_t> producer_failures{0};
  {
    // Everything inside this scope — producer dials, frame traffic, the
    // collector's reads and archive writes — runs under the seeded fault
    // schedule. The reference runs above and the verdict below do not.
    const FaultPlan plan =
        ValueOrDie(FaultPlan::Parse(config.fault_spec), "fault spec");
    const ScopedFaultInjection faults(plan);

    std::vector<std::thread> threads;
    threads.reserve(config.producers + config.slowloris);
    for (size_t i = 0; i < config.slowloris; ++i) {
      threads.emplace_back(
          [&] { HoldSlowloris(server->port(), &slowloris_established); });
    }
    for (size_t i = 0; i < config.producers; ++i) {
      threads.emplace_back([&, i] {
        auto pipeline = Pipeline::Builder()
                            .DefaultSpec(kSoakFilterSpec)
                            .Transport(endpoint)
                            .Build();
        if (!pipeline.ok()) {
          producer_failures.fetch_add(1);
          return;
        }
        for (const DataPoint& point : streams[i].signal.points) {
          if (!(*pipeline)->Append(streams[i].key, point).ok()) {
            producer_failures.fetch_add(1);
            return;
          }
        }
        if (!(*pipeline)->Finish().ok()) producer_failures.fetch_add(1);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.producer_failures = producer_failures.load();
  report.slowloris_established = slowloris_established.load();
  report.health = server->storage().Health();
  report.stats = server->GetStats();

  // Byte-identity: every key's chain on the collector must equal the
  // fault-free reference exactly.
  report.byte_identical = true;
  for (const SoakStream& stream : streams) {
    const auto segments = server->Segments(stream.key);
    if (!segments.ok() || *segments != stream.reference) {
      report.byte_identical = false;
      std::fprintf(stderr, "soak: key %s diverged from the reference\n",
                   stream.key.c_str());
      break;
    }
  }

  server->Shutdown();
  serving.join();
  report.serve_ok = serve_status.ok();
  if (!serve_status.ok()) {
    std::fprintf(stderr, "soak: Serve() failed: %s\n",
                 serve_status.message().c_str());
  }
  std::remove(archive_path.c_str());
  return report;
}

int SoakMain(const SoakConfig& config) {
  std::printf("Chaos soak: %zu producers x %zu points + %zu slowloris "
              "sockets under %s\n\n",
              config.producers, config.points_per_key, config.slowloris,
              config.fault_spec.c_str());
  const SoakReport report = RunSoak(config);

  const CollectorServer::Stats& stats = report.stats;
  std::printf(
      "%.2fs: accepted=%zu dropped=%zu finished=%zu/%zu reconnect-resends "
      "survived, evicted{handshake=%zu idle=%zu slow=%zu} "
      "shed{budget=%zu fd=%zu}\n",
      report.seconds, stats.connections_accepted, stats.connections_dropped,
      stats.streams_finished, config.producers, stats.evicted_handshake,
      stats.evicted_idle, stats.evicted_slow, stats.shed_budget,
      stats.shed_fd_pressure);
  std::printf("archive: state=%s dropped=%zu write_failures=%zu "
              "recoveries=%zu\n",
              std::string(StorageHealthStateName(report.health.state)).c_str(),
              report.health.segments_dropped, report.health.write_failures,
              report.health.recoveries);

  const bool producers_ok = report.producer_failures == 0;
  const bool finished_ok = stats.streams_finished == config.producers;
  const bool slowloris_ok =
      stats.evicted_handshake >= report.slowloris_established &&
      report.slowloris_established > 0;
  const bool degrade_ok = report.health.state == StorageHealth::State::kOk &&
                          report.health.recoveries >= 1 &&
                          report.health.write_failures >= 1;
  std::printf(
      "\ngates: producers %s; finish %s; byte-identity %s; serve %s; "
      "slowloris-evicted %s (%zu established); enospc-degrade-resume %s\n",
      producers_ok ? "OK" : "FAIL", finished_ok ? "OK" : "FAIL",
      report.byte_identical ? "OK" : "FAIL", report.serve_ok ? "OK" : "FAIL",
      slowloris_ok ? "OK" : "FAIL", report.slowloris_established,
      degrade_ok ? "OK" : "FAIL");

  if (!config.json_path.empty()) {
    std::FILE* out = std::fopen(config.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n  \"bench\": \"transport_soak\",\n  \"producers\": %zu,\n"
        "  \"points_per_key\": %zu,\n  \"slowloris\": %zu,\n"
        "  \"faults\": \"%s\",\n  \"seconds\": %.3f,\n"
        "  \"producer_failures\": %zu,\n  \"byte_identical\": %s,\n"
        "  \"serve_ok\": %s,\n  \"collector\": {\"accepted\": %zu, "
        "\"dropped\": %zu, \"finished\": %zu, \"bytes_received\": %zu, "
        "\"frames_applied\": %zu, \"frames_deduped\": %zu, "
        "\"evicted_handshake\": %zu, \"evicted_idle\": %zu, "
        "\"evicted_slow\": %zu, \"shed_budget\": %zu, "
        "\"shed_fd_pressure\": %zu},\n"
        "  \"archive\": {\"state\": \"%s\", \"segments_dropped\": %zu, "
        "\"write_failures\": %zu, \"recoveries\": %zu}\n}\n",
        config.producers, config.points_per_key, config.slowloris,
        config.fault_spec.c_str(), report.seconds, report.producer_failures,
        report.byte_identical ? "true" : "false",
        report.serve_ok ? "true" : "false", stats.connections_accepted,
        stats.connections_dropped, stats.streams_finished,
        stats.bytes_received, stats.frames_applied, stats.frames_deduped,
        stats.evicted_handshake, stats.evicted_idle, stats.evicted_slow,
        stats.shed_budget, stats.shed_fd_pressure,
        std::string(StorageHealthStateName(report.health.state)).c_str(),
        report.health.segments_dropped, report.health.write_failures,
        report.health.recoveries);
    std::fclose(out);
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return producers_ok && finished_ok && report.byte_identical &&
                 report.serve_ok && slowloris_ok && degrade_ok
             ? 0
             : 1;
}

int Main(int argc, char** argv) {
  Config config;
  SoakConfig soak;
  bool soak_mode = false;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--soak") == 0) {
      soak_mode = true;
    } else if (std::strcmp(argv[i], "--keys") == 0) {
      config.keys = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--points") == 0) {
      const size_t points = std::strtoull(next(), nullptr, 10);
      config.points_per_key = points;
      soak.points_per_key = points;
    } else if (std::strcmp(argv[i], "--producers") == 0) {
      soak.producers = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--slowloris") == 0) {
      soak.slowloris = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      soak.fault_spec = next();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_path = next();
      soak.json_path = config.json_path;
    } else {
      std::fprintf(stderr,
                   "usage: bench_transport [--keys N] [--points N] "
                   "[--json PATH]\n"
                   "       bench_transport --soak [--producers N] "
                   "[--points N] [--slowloris N] [--faults SPEC] "
                   "[--json PATH]\n");
      return 2;
    }
  }
  if (soak_mode) return SoakMain(soak);

  std::vector<std::string> keys;
  std::vector<Signal> signals;
  for (size_t i = 0; i < config.keys; ++i) {
    keys.push_back("host" + std::to_string(i) + ".metric");
    RandomWalkOptions walk;
    walk.count = config.points_per_key;
    walk.max_delta = 0.8;
    walk.seed = 4000 + i;
    signals.push_back(ValueOrDie(GenerateRandomWalk(walk), "random walk"));
  }

  std::printf("Transport loopback: %zu keys x %zu points through one "
              "connection\n\n",
              config.keys, config.points_per_key);
  std::printf("%-6s %-14s %10s %16s %14s %10s\n", "wire", "codec",
              "seconds", "points/sec", "wire-bytes", "finish");

  std::vector<NetRun> runs;
  bool all_delivered = true;
  for (const char* transport : {"uds", "tcp"}) {
    for (const char* codec : {"frame", "delta", "batch(n=256)"}) {
      const NetRun run = RunNet(config, transport, codec, keys, signals);
      runs.push_back(run);
      all_delivered = all_delivered && run.delivered;
      std::printf("%-6s %-14s %10.3f %16.0f %14zu %10s\n",
                  run.transport.c_str(), run.codec.c_str(), run.seconds,
                  run.points_per_sec, run.wire_bytes,
                  run.delivered ? "applied" : "LOST");
    }
  }

  const StallRun stall = RunStalledCollector();
  std::printf("\nstalled collector: %zu x %zu-byte frames accepted into a "
              "%zu-byte window, %llu backpressure stalls -> %s\n",
              stall.frames_accepted, stall.frame_bytes, stall.window_bytes,
              static_cast<unsigned long long>(stall.backpressure_stalls),
              stall.bounded ? "bounded" : "UNBOUNDED");

  const bool stall_ok = stall.bounded && stall.backpressure_stalls >= 1;
  std::printf("\nshape: every FINISH %s; producer memory under a stalled "
              "collector is %s\n",
              all_delivered ? "applied" : "NOT APPLIED",
              stall_ok ? "bounded" : "NOT BOUNDED");

  if (!config.json_path.empty()) {
    std::FILE* out = std::fopen(config.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"transport\",\n  \"keys\": %zu,\n"
                 "  \"points_per_key\": %zu,\n  \"results\": [\n",
                 config.keys, config.points_per_key);
    for (size_t i = 0; i < runs.size(); ++i) {
      const NetRun& run = runs[i];
      std::fprintf(out,
                   "    {\"transport\": \"%s\", \"codec\": \"%s\", "
                   "\"seconds\": %.6f, \"points_per_sec\": %.0f, "
                   "\"wire_bytes\": %zu, \"delivered\": %s}%s\n",
                   run.transport.c_str(), run.codec.c_str(), run.seconds,
                   run.points_per_sec, run.wire_bytes,
                   run.delivered ? "true" : "false",
                   i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n  \"stalled_collector\": {\"frames_accepted\": %zu, "
                 "\"window_bytes\": %zu, \"backpressure_stalls\": %llu, "
                 "\"bounded\": %s}\n}\n",
                 stall.frames_accepted, stall.window_bytes,
                 static_cast<unsigned long long>(stall.backpressure_stalls),
                 stall.bounded ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return all_delivered && stall_ok ? 0 : 1;
}

}  // namespace
}  // namespace plastream::bench

int main(int argc, char** argv) { return plastream::bench::Main(argc, argv); }
