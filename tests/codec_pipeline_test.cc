// Copyright (c) 2026 The plastream Authors. MIT license.
//
// End-to-end codec contract: for every registered codec, a Pipeline
// archives segments equal (Segment::operator==) to the filter's direct
// sink output — across filter families, shard counts, threaded mode and
// mid-stream Flush — and bills exactly the wire bytes, frames and records
// a standalone Transmitter produces for the same filter output. Inproc
// frames are only counted, never decoded, so that billing is their sole
// check. Also covers the Builder::Codec surface itself.

#include <cctype>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/random_walk.h"
#include "plastream.h"

namespace plastream {
namespace {

const char* const kCodecSpecs[] = {
    "frame",
    "delta",
    "delta(varint=false)",
    "batch(n=1)",
    "batch(n=32,crc=crc32c)",
    "batch(n=500,crc=none)",
};

Signal Walk(uint64_t seed, double x0) {
  RandomWalkOptions o;
  o.count = 1500;
  o.max_delta = 1.0;
  o.x0 = x0;
  o.seed = seed;
  return *GenerateRandomWalk(o);
}

// The filter's ground truth: same spec, direct CollectingSink, no wire.
std::vector<Segment> DirectSegments(const std::string& filter_spec,
                                    const Signal& signal) {
  CollectingSink sink;
  auto filter = MakeFilter(filter_spec, &sink).value();
  for (const DataPoint& p : signal.points) {
    EXPECT_TRUE(filter->Append(p).ok());
  }
  EXPECT_TRUE(filter->Finish().ok());
  return sink.TakeSegments();
}

class CodecPipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecPipelineTest, SegmentsEqualDirectSinkOutputAcrossShardModes) {
  const std::vector<std::string> filter_specs{
      "slide(eps=0.6)", "swing(eps=0.8)", "cache(eps=1.2)",
      "slide(eps=0.5,max_lag=64)"};
  std::vector<std::pair<std::string, Signal>> streams;
  std::vector<std::vector<Segment>> expected;
  for (size_t i = 0; i < filter_specs.size(); ++i) {
    streams.emplace_back("key-" + std::to_string(i), Walk(40 + i, i * 10.0));
    expected.push_back(DirectSegments(filter_specs[i], streams[i].second));
  }

  struct Mode {
    size_t shards;
    bool threaded;
  };
  for (const Mode mode : {Mode{1, false}, Mode{3, false}, Mode{2, true},
                          Mode{4, true}}) {
    Pipeline::Builder builder;
    builder.Codec(GetParam()).Shards(mode.shards).Threads(mode.threaded);
    for (size_t i = 0; i < filter_specs.size(); ++i) {
      builder.PerKeySpec(streams[i].first, filter_specs[i]);
    }
    auto pipeline = builder.Build().value();
    for (size_t j = 0; j < streams[0].second.size(); ++j) {
      for (const auto& [key, signal] : streams) {
        ASSERT_TRUE(pipeline->Append(key, signal.points[j]).ok());
      }
    }
    ASSERT_TRUE(pipeline->Finish().ok());
    for (size_t i = 0; i < streams.size(); ++i) {
      const auto received = pipeline->Segments(streams[i].first).value();
      EXPECT_EQ(received, expected[i])
          << "codec " << GetParam() << " shards " << mode.shards
          << (mode.threaded ? " threaded" : " locked") << " key "
          << streams[i].first;
    }
  }
}

TEST_P(CodecPipelineTest, ConcurrentProducersStayLossless) {
  // One producer thread per key; per-key output must match the direct run
  // regardless of codec buffering.
  constexpr size_t kKeys = 6;
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.75)")
                      .Codec(GetParam())
                      .Shards(4)
                      .Threads(true)
                      .QueueCapacity(256)
                      .Build()
                      .value();
  std::vector<Signal> signals;
  for (size_t i = 0; i < kKeys; ++i) signals.push_back(Walk(70 + i, 0.0));
  std::vector<std::thread> producers;
  for (size_t i = 0; i < kKeys; ++i) {
    producers.emplace_back([&, i] {
      const std::string key = "k" + std::to_string(i);
      for (const DataPoint& p : signals[i].points) {
        ASSERT_TRUE(pipeline->Append(key, p).ok());
      }
    });
  }
  for (auto& producer : producers) producer.join();
  ASSERT_TRUE(pipeline->Finish().ok());
  for (size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(pipeline->Segments("k" + std::to_string(i)).value(),
              DirectSegments("slide(eps=0.75)", signals[i]))
        << "key " << i;
  }
}

TEST_P(CodecPipelineTest, MidStreamFlushDrainsBufferedRecords) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=0.4)")
                      .Codec(GetParam())
                      .Build()
                      .value();
  const Signal signal = Walk(99, 5.0);
  CollectingSink mid_sink;
  auto mid_filter = MakeFilter("swing(eps=0.4)", &mid_sink).value();
  for (size_t j = 0; j < 750; ++j) {
    ASSERT_TRUE(pipeline->Append("k", signal.points[j]).ok());
    ASSERT_TRUE(mid_filter->Append(signal.points[j]).ok());
  }
  ASSERT_TRUE(pipeline->Flush().ok());
  // Mid-stream, everything the filter emitted so far is archived — the
  // archive does not wait for a batching codec that holds records back.
  const auto received = pipeline->Segments("k").value();
  EXPECT_EQ(received, mid_sink.segments());
  const size_t mid = received.size();
  for (size_t j = 750; j < signal.size(); ++j) {
    ASSERT_TRUE(pipeline->Append("k", signal.points[j]).ok());
  }
  ASSERT_TRUE(pipeline->Finish().ok());
  EXPECT_GE(pipeline->Segments("k")->size(), mid);
  EXPECT_EQ(pipeline->Segments("k").value(),
            DirectSegments("swing(eps=0.4)", signal));
}

TEST_P(CodecPipelineTest, MaxLagProvisionalLinesSurviveEveryCodec) {
  // max_lag forces kProvisionalLine records onto the wire.
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.05,max_lag=16)")
                      .Codec(GetParam())
                      .Build()
                      .value();
  const Signal signal = Walk(123, 0.0);
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(pipeline->Append("k", p).ok());
  }
  ASSERT_TRUE(pipeline->Finish().ok());
  EXPECT_EQ(pipeline->Segments("k").value(),
            DirectSegments("slide(eps=0.05,max_lag=16)", signal));
}

INSTANTIATE_TEST_SUITE_P(EveryCodec, CodecPipelineTest,
                         ::testing::ValuesIn(kCodecSpecs),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Wire accounting
// ---------------------------------------------------------------------------

class WireAccountingTest
    : public ::testing::TestWithParam<std::tuple<const char*, size_t>> {};

TEST_P(WireAccountingTest, InprocStatsEqualAStandaloneTransmitter) {
  const auto [codec_spec, shards] = GetParam();
  // max_lag adds provisional-line records, which are billed but archive
  // nothing.
  const std::vector<std::string> filter_specs{
      "slide(eps=0.6)", "swing(eps=0.8)", "cache(eps=1.2)",
      "slide(eps=0.5,max_lag=64)"};
  Pipeline::Builder builder;
  builder.Codec(codec_spec).Shards(shards);
  std::vector<std::pair<std::string, Signal>> streams;
  std::vector<Pipeline::StreamStats> expected;
  for (size_t i = 0; i < filter_specs.size(); ++i) {
    streams.emplace_back("key-" + std::to_string(i), Walk(200 + i, i * 5.0));
    builder.PerKeySpec(streams[i].first, filter_specs[i]);
    // The reference: the same filter emitting into its own transmitter.
    Channel channel;
    auto codec = MakeWireCodec(codec_spec).value();
    Transmitter tx(&channel, codec.get());
    auto filter = MakeFilter(filter_specs[i], &tx).value();
    for (const DataPoint& p : streams[i].second.points) {
      ASSERT_TRUE(filter->Append(p).ok());
    }
    ASSERT_TRUE(filter->Finish().ok());
    ASSERT_TRUE(tx.Flush().ok());
    Pipeline::StreamStats stats;
    stats.records_sent = tx.records_sent();
    stats.frames_sent = channel.frames_sent();
    stats.bytes_sent = channel.bytes_sent();
    expected.push_back(stats);
  }

  auto pipeline = builder.Build().value();
  for (size_t j = 0; j < streams[0].second.size(); ++j) {
    for (const auto& [key, signal] : streams) {
      ASSERT_TRUE(pipeline->Append(key, signal.points[j]).ok());
    }
  }
  ASSERT_TRUE(pipeline->Finish().ok());

  Pipeline::PipelineStats total;
  for (size_t i = 0; i < streams.size(); ++i) {
    const auto stats = pipeline->StatsFor(streams[i].first).value();
    EXPECT_EQ(stats.records_sent, expected[i].records_sent) << i;
    EXPECT_EQ(stats.frames_sent, expected[i].frames_sent) << i;
    EXPECT_EQ(stats.bytes_sent, expected[i].bytes_sent) << i;
    total.records_sent += expected[i].records_sent;
    total.frames_sent += expected[i].frames_sent;
    total.bytes_sent += expected[i].bytes_sent;
  }
  const Pipeline::PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.records_sent, total.records_sent);
  EXPECT_EQ(stats.frames_sent, total.frames_sent);
  EXPECT_EQ(stats.bytes_sent, total.bytes_sent);
  EXPECT_GT(stats.bytes_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CodecsByShards, WireAccountingTest,
    ::testing::Combine(::testing::Values("frame", "delta",
                                         "batch(n=32,crc=crc32c)"),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<const char*, size_t>>&
           info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_shards" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Builder surface
// ---------------------------------------------------------------------------

TEST(PipelineCodecBuilderTest, DefaultCodecIsFrame) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("swing(eps=1)").Build().value();
  EXPECT_EQ(pipeline->CodecSpec().family, "frame");
  ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE(pipeline->Finish().ok());
  // One record per frame is the "frame" contract.
  const auto stats = pipeline->StatsFor("k").value();
  EXPECT_EQ(stats.frames_sent, stats.records_sent);
}

TEST(PipelineCodecBuilderTest, CodecSpecParseErrorSurfacesAtBuild) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=1)")
                      .Codec("batch(n=")
                      .Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineCodecBuilderTest, UnknownCodecIsNotFoundAtBuild) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=1)")
                      .Codec("zstd")
                      .Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kNotFound);
}

TEST(PipelineCodecBuilderTest, BadCodecParamsFailAtBuild) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=1)")
                      .Codec("batch(n=0)")
                      .Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineCodecBuilderTest, NullCodecRegistryFailsAtBuild) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=1)")
                      .WithCodecRegistry(nullptr)
                      .Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineCodecBuilderTest, PrivateCodecRegistryIsHonored) {
  CodecRegistry registry;  // empty: even "frame" is unknown
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=1)")
                      .WithCodecRegistry(&registry)
                      .Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kNotFound);

  RegisterBuiltinWireCodecs(registry);
  auto ok = Pipeline::Builder()
                .DefaultSpec("swing(eps=1)")
                .Codec("delta")
                .WithCodecRegistry(&registry)
                .Build();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->CodecSpec().family, "delta");
}

TEST(PipelineCodecBuilderTest, BatchingReducesFramesAndBytes) {
  const Signal signal = Walk(7, 0.0);
  Pipeline::PipelineStats frame_stats;
  Pipeline::PipelineStats batch_stats;
  for (const bool batched : {false, true}) {
    auto pipeline = Pipeline::Builder()
                        .DefaultSpec("slide(eps=0.2)")
                        .Codec(batched ? "batch(n=64)" : "frame")
                        .Build()
                        .value();
    for (const DataPoint& p : signal.points) {
      ASSERT_TRUE(pipeline->Append("k", p).ok());
    }
    ASSERT_TRUE(pipeline->Finish().ok());
    (batched ? batch_stats : frame_stats) = pipeline->Stats();
  }
  EXPECT_EQ(batch_stats.records_sent, frame_stats.records_sent);
  EXPECT_LT(batch_stats.frames_sent, frame_stats.frames_sent);
  EXPECT_LT(batch_stats.bytes_sent, frame_stats.bytes_sent);
}

}  // namespace
}  // namespace plastream
