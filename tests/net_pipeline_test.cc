// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Pipeline over the network transports: a producer pipeline configured
// with Transport("tcp(...)") / Transport("uds(...)") must deliver the
// collector byte-identical per-key segments to a local (inproc) run of
// the same data — across codecs, shard counts, and a forced mid-stream
// disconnect. Also covers the remote-mode API surface: local queries are
// FailedPrecondition, local storage conflicts are Build() errors, and
// the transport counters land in Pipeline::Stats().

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/random_walk.h"
#include "plastream.h"

namespace plastream {
namespace {

Signal Walk(uint64_t seed, double x0) {
  RandomWalkOptions o;
  o.count = 1200;
  o.decrease_probability = 0.5;
  o.max_delta = 1.0;
  o.x0 = x0;
  o.seed = seed;
  return *GenerateRandomWalk(o);
}

const std::vector<std::pair<std::string, Signal>>& Streams() {
  static const auto* streams =
      new std::vector<std::pair<std::string, Signal>>{
          {"host1.cpu", Walk(11, 10.0)},
          {"host2.cpu", Walk(12, -5.0)},
          {"host3.mem", Walk(13, 100.0)},
      };
  return *streams;
}

// Feeds Streams() through `pipeline` point-by-point, interleaved across
// keys as a real multi-stream producer would.
void Produce(Pipeline& pipeline) {
  const auto& streams = Streams();
  for (size_t j = 0; j < streams.front().second.size(); ++j) {
    for (const auto& [key, signal] : streams) {
      ASSERT_TRUE(pipeline.Append(key, signal.points[j]).ok());
    }
  }
  const Status finished = pipeline.Finish();
  ASSERT_TRUE(finished.ok()) << finished.message();
}

// The reference run: the same specs with the default inproc transport.
std::map<std::string, std::vector<Segment>> LocalSegments(
    const std::string& codec, size_t shards) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.5)")
                      .Codec(codec)
                      .Shards(shards)
                      .Build()
                      .value();
  Produce(*pipeline);
  std::map<std::string, std::vector<Segment>> out;
  for (const auto& [key, signal] : Streams()) {
    out[key] = pipeline->Segments(key).value();
  }
  return out;
}

class ScopedCollector {
 public:
  explicit ScopedCollector(std::unique_ptr<CollectorServer> server)
      : server_(std::move(server)),
        thread_([this] { serve_status_ = server_->Serve(); }) {}
  ~ScopedCollector() {
    server_->Shutdown();
    thread_.join();
    EXPECT_TRUE(serve_status_.ok()) << serve_status_.message();
  }
  CollectorServer* operator->() { return server_.get(); }

 private:
  std::unique_ptr<CollectorServer> server_;
  Status serve_status_ = Status::OK();
  std::thread thread_;
};

std::string TempUdsPath(const char* tag) {
  std::string safe(tag);
  for (char& ch : safe) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return std::string(::testing::TempDir()) + "plastream_np_" + safe + "_" +
         std::to_string(::getpid()) + ".sock";
}

struct NetMatrixCase {
  const char* transport;  // "tcp" or "uds"
  const char* codec;
  size_t shards;
  bool drop_mid_stream;
};

class NetPipelineMatrixTest : public ::testing::TestWithParam<NetMatrixCase> {
};

TEST_P(NetPipelineMatrixTest, SegmentsMatchTheLocalRunByteForByte) {
  const NetMatrixCase& c = GetParam();
  const std::string uds_path = TempUdsPath(c.codec);
  const std::string listen_spec =
      c.transport == std::string("tcp")
          ? std::string("tcp(host=127.0.0.1,port=0)")
          : "uds(path=" + uds_path + ")";
  auto listened = CollectorServer::Listen(listen_spec);
  ASSERT_TRUE(listened.ok()) << listened.status().message();
  ScopedCollector server(std::move(listened).value());

  // Generous retries so a forced drop always resumes.
  std::string dial = server->endpoint();
  dial.insert(dial.size() - 1, ",retries=50,backoff_ms=2");
  auto built = Pipeline::Builder()
                   .DefaultSpec("slide(eps=0.5)")
                   .Codec(c.codec)
                   .Shards(c.shards)
                   .Transport(dial)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().message();
  Pipeline& pipeline = *built.value();
  EXPECT_TRUE(pipeline.remote());

  const auto& streams = Streams();
  for (size_t j = 0; j < streams.front().second.size(); ++j) {
    if (c.drop_mid_stream && (j == 400 || j == 800)) {
      // Flush first so the collector has provably accepted the
      // connection and applied everything sent — the drop then severs a
      // live link mid-stream instead of racing the accept.
      const Status flushed = pipeline.Flush();
      ASSERT_TRUE(flushed.ok()) << flushed.message();
      server->DropConnections();
    }
    for (const auto& [key, signal] : streams) {
      const Status appended = pipeline.Append(key, signal.points[j]);
      ASSERT_TRUE(appended.ok()) << key << "@" << j << ": "
                                 << appended.message();
    }
  }
  const Status finished = pipeline.Finish();
  ASSERT_TRUE(finished.ok()) << finished.message();

  // The collector's per-key segments equal the inproc run's, byte for
  // byte — reconnect, resend, and dedup must be invisible in the output.
  const auto local = LocalSegments(c.codec, c.shards);
  for (const auto& [key, segments] : local) {
    const auto remote = server->Segments(key);
    ASSERT_TRUE(remote.ok()) << key << ": " << remote.status().message();
    EXPECT_EQ(remote.value(), segments) << key;
    EXPECT_TRUE(server->KeyStatus(key).ok());
  }

  const Pipeline::PipelineStats stats = pipeline.Stats();
  EXPECT_GT(stats.transport.bytes_sent, 0u);
  EXPECT_GT(stats.transport.frames_sent, 0u);
  if (c.drop_mid_stream) {
    // The client redialed and replayed its unacknowledged frames.
    // (Whether any replay is a server-side dup depends on ACK timing;
    // dedup is asserted deterministically in transport_test.)
    EXPECT_GE(stats.transport.reconnects, 1u);
    EXPECT_GT(stats.transport.frames_resent, 0u);
  }
  std::remove(uds_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    TransportCodecShards, NetPipelineMatrixTest,
    ::testing::Values(
        NetMatrixCase{"uds", "frame", 1, false},
        NetMatrixCase{"uds", "delta", 1, true},
        NetMatrixCase{"uds", "batch(n=32)", 2, true},
        NetMatrixCase{"tcp", "frame", 2, false},
        NetMatrixCase{"tcp", "delta(varint=true)", 1, true},
        NetMatrixCase{"tcp", "batch(n=32)", 4, false}),
    [](const ::testing::TestParamInfo<NetMatrixCase>& info) {
      std::string name = std::string(info.param.transport) + "_" +
                         info.param.codec + "_s" +
                         std::to_string(info.param.shards) +
                         (info.param.drop_mid_stream ? "_drop" : "");
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(NetPipelineTest, RemoteModeDisablesLocalQueries) {
  const std::string path = TempUdsPath("remote_api");
  auto listened = CollectorServer::Listen("uds(path=" + path + ")");
  ASSERT_TRUE(listened.ok()) << listened.status().message();
  ScopedCollector server(std::move(listened).value());

  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=1)")
                      .Transport(server->endpoint())
                      .Build()
                      .value();
  ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE(pipeline->Append("k", 1.0, 2.0).ok());
  ASSERT_TRUE(pipeline->Finish().ok());

  // The segments live on the collector, not here.
  EXPECT_EQ(pipeline->Segments("k").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline->Reconstruction("k").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline->Store("k"), nullptr);
  EXPECT_EQ(server->Segments("k").value().size(), 1u);
  std::remove(path.c_str());
}

TEST(NetPipelineTest, CollectorWithoutArchiveRetainsNoSegments) {
  const std::string path = TempUdsPath("collector_none");
  CollectorServer::Options options;
  options.storage_spec = "none";
  auto listened = CollectorServer::Listen("uds(path=" + path + ")", options);
  ASSERT_TRUE(listened.ok()) << listened.status().message();
  ScopedCollector server(std::move(listened).value());

  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=1)")
                      .Transport(server->endpoint())
                      .Build()
                      .value();
  ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE(pipeline->Append("k", 1.0, 2.0).ok());
  ASSERT_TRUE(pipeline->Finish().ok());

  // The collector decoded and applied everything, but with nothing to
  // archive into, no copy of the segments exists to read back.
  EXPECT_TRUE(server->KeyStatus("k").ok());
  EXPECT_EQ(server->GetStats().streams_finished, 1u);
  EXPECT_EQ(server->Segments("k").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server->Reconstruction("k").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server->Store("k"), nullptr);
  EXPECT_EQ(server->Segments("nope").status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(NetPipelineTest, RemoteTransportRejectsLocalStorage) {
  auto built = Pipeline::Builder()
                   .DefaultSpec("slide(eps=1)")
                   .Transport("tcp(host=127.0.0.1,port=1)")
                   .Storage("memory")
                   .Build();
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("collector"), std::string::npos)
      << built.status().message();
}

TEST(NetPipelineTest, UnreachableCollectorFailsBuild) {
  // Port 1 is never a plastream collector; retries=0 keeps this fast.
  auto built = Pipeline::Builder()
                   .DefaultSpec("slide(eps=1)")
                   .Transport("tcp(host=127.0.0.1,port=1,retries=0)")
                   .Build();
  EXPECT_EQ(built.status().code(), StatusCode::kIOError)
      << built.status().message();
}

TEST(NetPipelineTest, UnknownTransportFamilyFailsBuild) {
  auto built = Pipeline::Builder()
                   .DefaultSpec("slide(eps=1)")
                   .Transport("quic(host=a,port=1)")
                   .Build();
  EXPECT_EQ(built.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace plastream
