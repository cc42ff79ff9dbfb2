// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The transport subsystem below the Pipeline: TransportRegistry specs,
// endpoint parsing, the wire protocol's message round-trip, and the
// ProducerClient ↔ CollectorServer conversation — including the forced
// mid-stream disconnect that exercises reconnect-and-resume and the
// seq-dedup that keeps resumed streams byte-identical.

#include <unistd.h>

#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "plastream.h"
#include "stream/frame_splitter.h"
#include "transport/endpoint.h"
#include "transport/net_protocol.h"

namespace plastream {
namespace {

// A collector running its poll loop on a background thread; Shutdown()
// and join on destruction.
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
  CollectorServer& operator*() { return *server_; }
  CollectorServer* operator->() { return server_.get(); }

 private:
  std::unique_ptr<CollectorServer> server_;
  Status serve_status_ = Status::OK();
  std::thread thread_;
};

std::string TempUdsPath(const char* tag) {
  return std::string(::testing::TempDir()) + "plastream_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(TransportRegistryTest, ListsBuiltinsAndRejectsUnknown) {
  const TransportRegistry& registry = TransportRegistry::Global();
  EXPECT_TRUE(registry.Contains("inproc"));
  EXPECT_TRUE(registry.Contains("tcp"));
  EXPECT_TRUE(registry.Contains("uds"));
  EXPECT_EQ(registry.MakeTransport("carrier-pigeon").status().code(),
            StatusCode::kNotFound);
  // Filter options have no meaning on a transport spec.
  EXPECT_EQ(registry.MakeTransport("inproc(eps=0.5)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TransportRegistryTest, InprocIsALocalMarker) {
  auto transport =
      TransportRegistry::Global().MakeTransport("inproc").value();
  EXPECT_FALSE(transport->remote());
  EXPECT_EQ(transport->name(), "inproc");
  EXPECT_TRUE(transport->Connect("frame").ok());
  EXPECT_EQ(transport->OpenLink("k", 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(transport->Flush().ok());
  EXPECT_EQ(transport->GetStats().bytes_sent, 0u);
}

TEST(NetEndpointTest, ParsesAndValidates) {
  const auto tcp = ParseNetEndpoint(
      FilterSpec::Parse("tcp(host=example.org,port=9099)").value());
  ASSERT_TRUE(tcp.ok()) << tcp.status().message();
  EXPECT_EQ(tcp.value().kind, NetEndpoint::Kind::kTcp);
  EXPECT_EQ(tcp.value().host, "example.org");
  EXPECT_EQ(tcp.value().port, 9099);
  EXPECT_EQ(tcp.value().Format(), "tcp(host=example.org,port=9099)");

  const auto uds =
      ParseNetEndpoint(FilterSpec::Parse("uds(path=/tmp/x.sock)").value());
  ASSERT_TRUE(uds.ok());
  EXPECT_EQ(uds.value().kind, NetEndpoint::Kind::kUds);
  EXPECT_EQ(uds.value().path, "/tmp/x.sock");

  // Required fields and bounds.
  EXPECT_FALSE(ParseNetEndpoint(FilterSpec::Parse("tcp").value()).ok());
  EXPECT_FALSE(
      ParseNetEndpoint(FilterSpec::Parse("tcp(port=70000)").value()).ok());
  EXPECT_FALSE(ParseNetEndpoint(FilterSpec::Parse("uds").value()).ok());
  EXPECT_FALSE(
      ParseNetEndpoint(FilterSpec::Parse("tcp(port=1,bogus=2)").value())
          .ok());
  // Producer-tuning keys are validated on both sides.
  EXPECT_FALSE(ParseNetEndpoint(
                   FilterSpec::Parse("tcp(port=1,retries=lots)").value())
                   .ok());
  EXPECT_TRUE(ParseNetEndpoint(
                  FilterSpec::Parse(
                      "tcp(port=1,max_unacked_kb=64,retries=3,backoff_ms=5)")
                      .value())
                  .ok());
}

TEST(NetProtocolTest, MessagesRoundTripThroughASplitter) {
  std::vector<uint8_t> stream;
  AppendHelloMessage(&stream, "delta(varint=true)");
  AppendOpenStreamMessage(&stream, 7, 3, "host1.cpu");
  const std::vector<uint8_t> frame_bytes = {0xAA, 0xBB, 0xCC};
  AppendFrameMessage(&stream, 7, 1, frame_bytes);
  AppendFinishMessage(&stream, 7, 2);
  AppendAckMessage(&stream, 7, 2);
  AppendErrorMessage(&stream, "boom");

  FrameSplitter splitter;
  ASSERT_TRUE(splitter.Feed(stream).ok());

  ASSERT_TRUE(splitter.HasFrame());
  const auto hello = ParseHelloMessage(splitter.NextFrame());
  ASSERT_TRUE(hello.ok()) << hello.status().message();
  EXPECT_EQ(hello.value().version, kNetProtocolVersion);
  EXPECT_EQ(hello.value().codec_spec, "delta(varint=true)");

  ASSERT_TRUE(splitter.HasFrame());
  const auto open = ParseOpenStreamMessage(splitter.NextFrame());
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().stream_id, 7u);
  EXPECT_EQ(open.value().dims, 3u);
  EXPECT_EQ(open.value().key, "host1.cpu");

  ASSERT_TRUE(splitter.HasFrame());
  const std::span<const uint8_t> frame_payload = splitter.NextFrame();
  const auto frame = ParseFrameMessage(frame_payload);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().stream_id, 7u);
  EXPECT_EQ(frame.value().seq, 1u);
  EXPECT_EQ(std::vector<uint8_t>(frame.value().frame.begin(),
                                 frame.value().frame.end()),
            frame_bytes);

  ASSERT_TRUE(splitter.HasFrame());
  const auto finish = ParseFinishMessage(splitter.NextFrame());
  ASSERT_TRUE(finish.ok());
  EXPECT_EQ(finish.value().seq, 2u);

  ASSERT_TRUE(splitter.HasFrame());
  const auto ack = ParseAckMessage(splitter.NextFrame());
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().stream_id, 7u);
  EXPECT_EQ(ack.value().seq, 2u);

  ASSERT_TRUE(splitter.HasFrame());
  const auto error = ParseErrorMessage(splitter.NextFrame());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value(), "boom");
  EXPECT_FALSE(splitter.HasFrame());
}

TEST(NetProtocolTest, RejectsMalformedMessages) {
  // Empty payload, unknown type, truncation, zero seq.
  EXPECT_EQ(ParseMessageType({}).status().code(), StatusCode::kCorruption);
  const std::vector<uint8_t> unknown = {99};
  EXPECT_FALSE(ParseMessageType(unknown).ok());

  std::vector<uint8_t> stream;
  AppendFrameMessage(&stream, 1, 1, std::vector<uint8_t>{0x01});
  FrameSplitter splitter;
  ASSERT_TRUE(splitter.Feed(stream).ok());
  std::vector<uint8_t> payload;
  {
    const std::span<const uint8_t> frame = splitter.NextFrame();
    payload.assign(frame.begin(), frame.end());
  }
  // Truncate mid-header.
  EXPECT_EQ(ParseFrameMessage(
                std::span<const uint8_t>(payload.data(), payload.size() - 3))
                .status()
                .code(),
            StatusCode::kCorruption);
  // A hello is not a frame.
  std::vector<uint8_t> hello_stream;
  AppendHelloMessage(&hello_stream, "frame");
  FrameSplitter hello_splitter;
  ASSERT_TRUE(hello_splitter.Feed(hello_stream).ok());
  EXPECT_FALSE(ParseFrameMessage(hello_splitter.NextFrame()).ok());
}

// Encodes `records` with `codec_spec`, returning the flushed frames.
std::vector<std::vector<uint8_t>> EncodeFrames(
    const std::string& codec_spec, const std::vector<WireRecord>& records) {
  auto codec = CodecRegistry::Global().MakeCodec(codec_spec).value();
  Channel channel;
  for (const WireRecord& record : records) {
    EXPECT_TRUE(codec->Encode(record, &channel).ok());
  }
  EXPECT_TRUE(codec->Flush(&channel).ok());
  std::vector<std::vector<uint8_t>> frames;
  while (auto frame = channel.Pop()) frames.push_back(std::move(*frame));
  return frames;
}

std::vector<WireRecord> SampleRecords() {
  std::vector<WireRecord> records;
  WireRecord start;
  start.type = WireRecordType::kSegmentBreak;
  start.t = 0.0;
  start.x = DimVec{1.0};
  records.push_back(start);
  for (int i = 1; i <= 8; ++i) {
    WireRecord end;
    end.type = i == 1 ? WireRecordType::kSegmentPoint
                      : WireRecordType::kSegmentPointConnected;
    end.t = i;
    end.x = DimVec{1.0 + 0.5 * i};
    records.push_back(end);
  }
  return records;
}

TEST(CollectorServerTest, UdsRoundTripWithMidStreamDisconnect) {
  const std::string path = TempUdsPath("roundtrip");
  auto listened = CollectorServer::Listen("uds(path=" + path + ")");
  ASSERT_TRUE(listened.ok()) << listened.status().message();
  ScopedCollector server(std::move(listened).value());

  // The reference: the same frames decoded by a local receiver.
  const std::vector<WireRecord> records = SampleRecords();
  const std::vector<std::vector<uint8_t>> frames =
      EncodeFrames("delta", records);
  ASSERT_GE(frames.size(), 4u);
  auto reference_codec = CodecRegistry::Global().MakeCodec("delta").value();
  CollectingSink decoded;
  Receiver reference(&decoded, reference_codec.get());
  for (const auto& frame : frames) {
    ASSERT_TRUE(reference.ApplyFrame(frame).ok());
  }
  ASSERT_TRUE(reference.FinishStream().ok());

  ProducerClient::Options options;
  options.retries = 20;
  options.backoff_ms = 5;
  auto connected =
      ProducerClient::Connect(server->endpoint(), "delta", options);
  ASSERT_TRUE(connected.ok()) << connected.status().message();
  ProducerClient& client = *connected.value();
  const uint32_t stream_id = client.OpenStream("host1.cpu", 1).value();

  // Drop the connection mid-stream, twice, from both ends: the client
  // must redial, resend, and the collector must dedup what it already
  // applied — the delta chain state advances exactly once per frame.
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i == 1) client.DebugDropConnection();
    if (i == 3) {
      const Status flushed = client.Flush();
      ASSERT_TRUE(flushed.ok()) << flushed.message();
      server->DropConnections();
    }
    const Status sent = client.SendFrame(stream_id, frames[i]);
    ASSERT_TRUE(sent.ok()) << "frame " << i << ": " << sent.message();
  }
  const Status finished = client.FinishStream(stream_id);
  ASSERT_TRUE(finished.ok()) << finished.message();
  const Status flushed = client.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.message();

  // Byte-identical resume: collector segments == local receiver segments.
  const auto segments = server->Segments("host1.cpu");
  ASSERT_TRUE(segments.ok()) << segments.status().message();
  EXPECT_EQ(segments.value(), decoded.segments());
  EXPECT_TRUE(server->KeyStatus("host1.cpu").ok());

  const auto reconstruction = server->Reconstruction("host1.cpu");
  ASSERT_TRUE(reconstruction.ok());

  const ProducerClient::Stats client_stats = client.GetStats();
  EXPECT_GE(client_stats.reconnects, 1u);
  const CollectorServer::Stats server_stats = server->GetStats();
  EXPECT_EQ(server_stats.streams, 1u);
  EXPECT_GE(server_stats.connections_accepted, 2u);
  std::remove(path.c_str());
}

TEST(CollectorServerTest, TcpEphemeralPortAndMultipleStreams) {
  auto listened = CollectorServer::Listen("tcp(host=127.0.0.1,port=0)");
  ASSERT_TRUE(listened.ok()) << listened.status().message();
  ScopedCollector server(std::move(listened).value());
  EXPECT_NE(server->port(), 0);

  auto client =
      ProducerClient::Connect(server->endpoint(), "frame").value();
  const uint32_t a = client->OpenStream("a", 1).value();
  const uint32_t b = client->OpenStream("b", 1).value();
  const std::vector<std::vector<uint8_t>> frames =
      EncodeFrames("frame", SampleRecords());
  for (const auto& frame : frames) {
    ASSERT_TRUE(client->SendFrame(a, frame).ok());
    ASSERT_TRUE(client->SendFrame(b, frame).ok());
  }
  ASSERT_TRUE(client->FinishStream(a).ok());
  ASSERT_TRUE(client->FinishStream(b).ok());
  ASSERT_TRUE(client->Flush().ok());

  EXPECT_EQ(server->Keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(server->Segments("a").value(), server->Segments("b").value());
  EXPECT_EQ(server->Segments("nope").status().code(), StatusCode::kNotFound);
  // The "memory" archive holds the same segments.
  const SegmentStore* store = server->Store("a");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->segment_count(), server->Segments("a").value().size());
}

TEST(CollectorServerTest, RejectsUnusableHelloCodec) {
  const std::string path = TempUdsPath("badcodec");
  auto listened = CollectorServer::Listen("uds(path=" + path + ")");
  ASSERT_TRUE(listened.ok());
  ScopedCollector server(std::move(listened).value());

  ProducerClient::Options options;
  options.retries = 0;
  auto client = ProducerClient::Connect(server->endpoint(),
                                        "no-such-codec", options)
                    .value();
  // The collector answers the bad hello with an ERROR and closes. A
  // sequenced frame forces Flush() to wait for an ACK that can never
  // come, so the sticky failure surfaces deterministically.
  Status status = Status::OK();
  const auto opened = client->OpenStream("k", 1);
  if (!opened.ok()) {
    status = opened.status();
  } else {
    const std::vector<uint8_t> bogus_frame = {0x00};
    status = client->SendFrame(opened.value(), bogus_frame);
    if (status.ok()) status = client->Flush();
  }
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("codec"), std::string::npos)
      << status.message();
  std::remove(path.c_str());
}

// Writes every byte of `bytes` to `fd`, polling through short blocks.
void WriteAllBytes(int fd, const std::vector<uint8_t>& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    size_t n = 0;
    const IoOutcome outcome = WriteSome(
        fd,
        std::span<const uint8_t>(bytes.data() + written,
                                 bytes.size() - written),
        &n);
    if (outcome == IoOutcome::kWouldBlock) {
      PollSocket(fd, /*want_write=*/true, 100);
      continue;
    }
    ASSERT_EQ(outcome, IoOutcome::kProgress);
    written += n;
  }
}

// Reads protocol messages from `fd` until an ACK with seq >= `want_seq`
// arrives (returns true) or the peer goes quiet/away (returns false).
bool WaitForAck(int fd, FrameSplitter* splitter, uint64_t want_seq) {
  uint8_t chunk[1024];
  for (int spins = 0; spins < 200; ++spins) {
    while (splitter->HasFrame()) {
      const std::span<const uint8_t> payload = splitter->NextFrame();
      const auto type = ParseMessageType(payload);
      if (!type.ok()) return false;
      if (type.value() == NetMessageType::kAck &&
          ParseAckMessage(payload).value().seq >= want_seq) {
        return true;
      }
    }
    PollSocket(fd, /*want_write=*/false, 50);
    size_t n = 0;
    const IoOutcome outcome =
        ReadSome(fd, std::span<uint8_t>(chunk, sizeof(chunk)), &n);
    if (outcome == IoOutcome::kWouldBlock) continue;
    if (outcome != IoOutcome::kProgress) return false;
    if (!splitter->Feed(std::span<const uint8_t>(chunk, n)).ok()) {
      return false;
    }
  }
  return false;
}

TEST(CollectorServerTest, ResentFramesAreDedupedBeforeTheCodec) {
  const std::string path = TempUdsPath("dedup");
  auto listened = CollectorServer::Listen("uds(path=" + path + ")");
  ASSERT_TRUE(listened.ok());
  ScopedCollector server(std::move(listened).value());
  const std::vector<std::vector<uint8_t>> frames =
      EncodeFrames("frame", SampleRecords());

  // Connection A delivers seq 1 and sees it ACKed — the collector has
  // provably applied it — then dies as if the ACK never made it home.
  {
    auto a = UdsConnect(path).value();
    std::vector<uint8_t> bytes;
    AppendHelloMessage(&bytes, "frame");
    AppendOpenStreamMessage(&bytes, 1, 1, "k");
    AppendFrameMessage(&bytes, 1, 1, frames[0]);
    WriteAllBytes(a.get(), bytes);
    FrameSplitter splitter;
    ASSERT_TRUE(WaitForAck(a.get(), &splitter, 1));
  }

  // Connection B replays seq 1 (the "lost ACK" resend) and continues
  // with seq 2. The replay must be dropped before the codec — applied
  // exactly once — and still be re-ACKed so B can trim its buffer.
  auto b = UdsConnect(path).value();
  std::vector<uint8_t> bytes;
  AppendHelloMessage(&bytes, "frame");
  AppendOpenStreamMessage(&bytes, 1, 1, "k");
  AppendFrameMessage(&bytes, 1, 1, frames[0]);
  AppendFrameMessage(&bytes, 1, 2, frames[1]);
  WriteAllBytes(b.get(), bytes);
  FrameSplitter splitter;
  ASSERT_TRUE(WaitForAck(b.get(), &splitter, 2));

  const CollectorServer::Stats stats = server->GetStats();
  EXPECT_EQ(stats.frames_deduped, 1u);
  EXPECT_EQ(stats.frames_applied, 2u);
  EXPECT_TRUE(server->KeyStatus("k").ok());
  std::remove(path.c_str());
}

TEST(CollectorServerTest, SequenceGapFailsTheConnection) {
  const std::string path = TempUdsPath("gap");
  auto listened = CollectorServer::Listen("uds(path=" + path + ")");
  ASSERT_TRUE(listened.ok());
  ScopedCollector server(std::move(listened).value());

  // Speak the protocol by hand to force a seq gap (a real client cannot).
  auto fd = UdsConnect(path).value();
  std::vector<uint8_t> bytes;
  AppendHelloMessage(&bytes, "frame");
  AppendOpenStreamMessage(&bytes, 1, 1, "k");
  const std::vector<std::vector<uint8_t>> frames =
      EncodeFrames("frame", SampleRecords());
  AppendFrameMessage(&bytes, 1, 5, frames[0]);  // seq 5 with nothing before
  size_t written = 0;
  while (written < bytes.size()) {
    size_t n = 0;
    const IoOutcome outcome = WriteSome(
        fd.get(),
        std::span<const uint8_t>(bytes.data() + written,
                                 bytes.size() - written),
        &n);
    if (outcome == IoOutcome::kWouldBlock) {
      PollSocket(fd.get(), /*want_write=*/true, 100);
      continue;
    }
    ASSERT_EQ(outcome, IoOutcome::kProgress);
    written += n;
  }
  // The collector must answer with an ERROR mentioning the gap and close.
  FrameSplitter splitter;
  std::string error_text;
  uint8_t chunk[1024];
  for (int spins = 0; spins < 200 && error_text.empty(); ++spins) {
    PollSocket(fd.get(), /*want_write=*/false, 50);
    size_t n = 0;
    const IoOutcome outcome =
        ReadSome(fd.get(), std::span<uint8_t>(chunk, sizeof(chunk)), &n);
    if (outcome == IoOutcome::kWouldBlock) continue;
    if (outcome != IoOutcome::kProgress) break;
    ASSERT_TRUE(splitter.Feed(std::span<const uint8_t>(chunk, n)).ok());
    while (splitter.HasFrame()) {
      const std::span<const uint8_t> payload = splitter.NextFrame();
      if (ParseMessageType(payload).value() == NetMessageType::kError) {
        error_text = ParseErrorMessage(payload).value();
      }
    }
  }
  EXPECT_NE(error_text.find("gap"), std::string::npos) << error_text;
  EXPECT_GE(server->GetStats().protocol_errors, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace plastream
