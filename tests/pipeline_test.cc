// Copyright (c) 2026 The plastream Authors. MIT license.
//
// End-to-end tests for the Pipeline facade: spec-driven construction,
// keyed routing across the wire codec, the ε contract on the reconstructed
// output, and the archive/stats surfaces.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/random_walk.h"
#include "eval/metrics.h"
#include "plastream.h"

namespace plastream {
namespace {

Signal Walk(uint64_t seed, double x0) {
  RandomWalkOptions o;
  o.count = 2000;
  o.decrease_probability = 0.5;
  o.max_delta = 1.0;
  o.x0 = x0;
  o.seed = seed;
  return *GenerateRandomWalk(o);
}

TEST(PipelineBuilderTest, RequiresASpec) {
  auto pipeline = Pipeline::Builder().Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineBuilderTest, ReportsSpecParseErrorsAtBuild) {
  auto pipeline = Pipeline::Builder().DefaultSpec("slide(eps=").Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineBuilderTest, ReportsUnknownFamilyAtBuild) {
  auto pipeline = Pipeline::Builder().DefaultSpec("wavelet(eps=1)").Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kNotFound);
}

TEST(PipelineBuilderTest, ReportsMissingEpsilonAtBuild) {
  // A spec without eps names a family but cannot build a filter.
  auto pipeline = Pipeline::Builder().DefaultSpec("slide").Build();
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, EndToEndHonorsThePrecisionContract) {
  constexpr double kDefaultEps = 0.5;
  constexpr double kCoarseEps = 2.0;
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("slide(eps=0.5)")
                      .PerKeySpec("coarse", "swing(eps=2)")
                      .Build()
                      .value();

  const std::vector<std::pair<std::string, Signal>> streams{
      {"fine-1", Walk(1, 10.0)},
      {"fine-2", Walk(2, -5.0)},
      {"coarse", Walk(3, 100.0)},
  };
  for (size_t j = 0; j < 2000; ++j) {
    for (const auto& [key, signal] : streams) {
      ASSERT_TRUE(pipeline->Append(key, signal.points[j]).ok());
    }
  }
  ASSERT_TRUE(pipeline->Finish().ok());
  EXPECT_TRUE(pipeline->finished());

  // Every stream's receiver-side reconstruction is within its ε of the raw
  // signal — the paper's guarantee, carried across the wire codec.
  for (const auto& [key, signal] : streams) {
    const auto approx = pipeline->Reconstruction(key);
    ASSERT_TRUE(approx.ok()) << key;
    const std::vector<double> eps{key == "coarse" ? kCoarseEps : kDefaultEps};
    EXPECT_TRUE(VerifyPrecision(signal, *approx, eps).ok()) << key;
  }

  // The per-key spec actually selected a different family.
  ASSERT_NE(pipeline->GetFilter("coarse"), nullptr);
  EXPECT_EQ(pipeline->GetFilter("coarse")->name(), "swing");
  EXPECT_EQ(pipeline->GetFilter("fine-1")->name(), "slide");
  EXPECT_EQ(pipeline->SpecFor("coarse")->family, "swing");
  EXPECT_EQ(pipeline->SpecFor("anything-else")->family, "slide");
}

TEST(PipelineTest, StoreServesErrorBoundedQueries) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("slide(eps=0.25)").Build().value();
  const Signal signal = Walk(7, 50.0);
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(pipeline->Append("s", p).ok());
  }
  ASSERT_TRUE(pipeline->Finish().ok());

  const SegmentStore* store = pipeline->Store("s");
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->segment_count(), 0u);
  EXPECT_LT(store->segment_count(), signal.size());

  // Point queries answered from the archive stay within ε of the samples.
  for (size_t j = 0; j < signal.size(); j += 97) {
    const auto value = store->ValueAt(signal.points[j].t, 0);
    ASSERT_TRUE(value.ok()) << "t=" << signal.points[j].t;
    EXPECT_LE(std::abs(*value - signal.points[j].x[0]), 0.25 + 1e-9);
  }

  // Range aggregates come from the same archived chain.
  const auto agg = store->Aggregate(store->t_min(), store->t_max(), 0);
  ASSERT_TRUE(agg.ok());
  EXPECT_GE(agg->max, agg->min);
}

TEST(PipelineTest, StorageNoneDisablesTheArchive) {
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("cache(eps=1)")
                      .Storage("none")
                      .Build()
                      .value();
  ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE(pipeline->Finish().ok());
  EXPECT_EQ(pipeline->Store("k"), nullptr);
  // Nothing is retained, so there are no segments to read back; the
  // filter still ran and counted what it emitted.
  EXPECT_EQ(pipeline->Segments("k").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline->Reconstruction("k").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pipeline->Segments("unknown").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pipeline->Stats().segments, 1u);
  EXPECT_EQ(pipeline->StatsFor("k")->segments, 1u);
}

TEST(PipelineTest, UnknownKeyWithoutDefaultIsNotFound) {
  auto pipeline = Pipeline::Builder()
                      .PerKeySpec("known", "swing(eps=1)")
                      .Build()
                      .value();
  ASSERT_TRUE(pipeline->Append("known", 0.0, 1.0).ok());
  EXPECT_EQ(pipeline->Append("unknown", 0.0, 1.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pipeline->Segments("unknown").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(pipeline->Store("unknown"), nullptr);
}

TEST(PipelineTest, FilterErrorsPropagate) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("swing(eps=1)").Build().value();
  ASSERT_TRUE(pipeline->Append("k", 1.0, 0.0).ok());
  EXPECT_EQ(pipeline->Append("k", 1.0, 0.0).code(), StatusCode::kOutOfOrder);
  ASSERT_TRUE(pipeline->Finish().ok());
  EXPECT_EQ(pipeline->Append("k", 2.0, 0.0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, StatsAggregateAcrossStreams) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("slide(eps=0.5)").Build().value();
  for (int j = 0; j < 500; ++j) {
    ASSERT_TRUE(pipeline->Append("a", j, std::sin(j * 0.01)).ok());
    ASSERT_TRUE(pipeline->Append("b", j, std::cos(j * 0.01)).ok());
  }
  ASSERT_TRUE(pipeline->Finish().ok());
  const auto stats = pipeline->Stats();
  EXPECT_EQ(stats.streams, 2u);
  EXPECT_EQ(stats.points, 1000u);
  EXPECT_GT(stats.segments, 0u);
  EXPECT_GT(stats.records_sent, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.bytes_raw, 1000u * 2 * sizeof(double));
  // Compression on the wire: the smooth signals shrink a lot.
  EXPECT_LT(stats.bytes_sent, stats.bytes_raw);

  // Per-stream stats sum to the aggregate.
  const auto a = pipeline->StatsFor("a").value();
  const auto b = pipeline->StatsFor("b").value();
  EXPECT_EQ(a.points, 500u);
  EXPECT_EQ(a.points + b.points, stats.points);
  EXPECT_EQ(a.segments + b.segments, stats.segments);
  EXPECT_EQ(a.records_sent + b.records_sent, stats.records_sent);
  EXPECT_EQ(a.bytes_sent + b.bytes_sent, stats.bytes_sent);
  EXPECT_EQ(pipeline->StatsFor("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(PipelineTest, ReceiverSegmentsMatchABareFilterRun) {
  // The transport must be lossless: pipeline output == direct filter output.
  const Signal signal = Walk(11, 0.0);
  auto pipeline =
      Pipeline::Builder().DefaultSpec("swing(eps=0.75)").Build().value();
  auto direct = MakeFilter("swing(eps=0.75)").value();
  for (const DataPoint& p : signal.points) {
    ASSERT_TRUE(pipeline->Append("k", p).ok());
    ASSERT_TRUE(direct->Append(p).ok());
  }
  ASSERT_TRUE(pipeline->Finish().ok());
  ASSERT_TRUE(direct->Finish().ok());

  const auto received = pipeline->Segments("k").value();
  const auto expected = direct->TakeSegments();
  ASSERT_EQ(received.size(), expected.size());
  for (size_t k = 0; k < received.size(); ++k) {
    EXPECT_EQ(received[k].t_start, expected[k].t_start) << k;
    EXPECT_EQ(received[k].t_end, expected[k].t_end) << k;
    EXPECT_EQ(received[k].x_start, expected[k].x_start) << k;
    EXPECT_EQ(received[k].x_end, expected[k].x_end) << k;
    EXPECT_EQ(received[k].connected_to_prev, expected[k].connected_to_prev)
        << k;
  }
}

}  // namespace
}  // namespace plastream
