// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Columnar-vs-row equivalence: the zero-copy columnar overload
// AppendBatch(key, ts, vals) must produce byte-identical segment chains
// to the per-point path across filter families x dims x shard counts x
// ingest guard on/off, stop at the first error with the "columnar batch"
// prefix for malformed spans, and treat empty batches as no-ops. The
// forced-scalar leg holds each lane kernel's Pack and 1-lane
// instantiations to the same bytes, and golden CRC32C digests pin the
// reference chains themselves across commits and ISAs.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/simd.h"
#include "core/filter_registry.h"
#include "datagen/correlated_walk.h"
#include "stream/filter_bank.h"
#include "stream/pipeline.h"

namespace plastream {
namespace {

Signal MakeSignal(size_t dims, size_t count, uint64_t seed) {
  CorrelatedWalkOptions options;
  options.count = count;
  options.dimensions = dims;
  options.correlation = 0.25;
  options.max_delta = 0.9;
  options.seed = seed;
  return GenerateCorrelatedWalk(options).value();
}

std::string SpecFor(const std::string& family, size_t dims) {
  return family + "(eps=0.4,dims=" + std::to_string(dims) + ")";
}

// Transposes points[at, at+n) into dimension-major columns:
// vals[dim * n + j] is dimension `dim` of point at+j.
void ToColumns(const std::vector<DataPoint>& points, size_t at, size_t n,
               std::vector<double>* ts, std::vector<double>* vals) {
  const size_t dims = points.empty() ? 0 : points[at].x.size();
  ts->clear();
  vals->assign(n * dims, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const DataPoint& point = points[at + j];
    ts->push_back(point.t);
    for (size_t dim = 0; dim < dims; ++dim) {
      (*vals)[dim * n + j] = point.x[dim];
    }
  }
}

// Feeds the whole signal columnar-style in batches of `batch`.
void AppendColumnar(Filter& filter, const std::vector<DataPoint>& points,
                    size_t batch) {
  std::vector<double> ts;
  std::vector<double> vals;
  for (size_t at = 0; at < points.size(); at += batch) {
    const size_t n = std::min(batch, points.size() - at);
    ToColumns(points, at, n, &ts, &vals);
    ASSERT_TRUE(filter.AppendBatch(ts, vals).ok());
  }
}

// CRC32C over a segment chain's exact bytes: per segment its times, its
// start and end values (doubles in memory order) and its connected flag.
uint32_t ChainDigest(const std::vector<Segment>& chain) {
  uint32_t crc = 0;
  const auto add = [&crc](const void* data, size_t bytes) {
    crc = Crc32c(
        std::span<const uint8_t>(static_cast<const uint8_t*>(data), bytes),
        crc);
  };
  for (const Segment& seg : chain) {
    add(&seg.t_start, sizeof(double));
    add(&seg.t_end, sizeof(double));
    add(seg.x_start.data(), seg.x_start.size() * sizeof(double));
    add(seg.x_end.data(), seg.x_end.size() * sizeof(double));
    const uint8_t connected = seg.connected_to_prev ? 1 : 0;
    add(&connected, 1);
  }
  return crc;
}

// One pinned reference chain: the per-point output of `spec` over the
// seeded correlated walk, identified by its CRC32C.
struct GoldenChain {
  const char* spec;
  uint32_t digest;
};

// Every family at d in {1, 3, 4, 8, 9} (9 spills DimVec's inline storage
// and leaves a one-lane tail on both SSE2 and AVX2), cache in all three
// modes and swing/slide in max-lag (frozen) mode. The walk draws only
// uniforms and a sqrt, so the bytes do not depend on the libm. A change
// that moves one of these digests changes filter output: a behaviour
// change to justify, never a constant to refresh silently.
constexpr GoldenChain kGoldenChains[] = {
    {"cache(eps=0.4,dims=1)", 0x9CBED772u},
    {"cache(eps=0.4,dims=3)", 0xA93567E8u},
    {"cache(eps=0.4,dims=4)", 0x39C17D15u},
    {"cache(eps=0.4,dims=8)", 0x32EFFCBCu},
    {"cache(eps=0.4,dims=9)", 0x73D08110u},
    {"cache(mode=midrange,eps=0.4,dims=1)", 0x27B31292u},
    {"cache(mode=midrange,eps=0.4,dims=3)", 0x27FB016Fu},
    {"cache(mode=midrange,eps=0.4,dims=4)", 0x53BF2AF7u},
    {"cache(mode=midrange,eps=0.4,dims=8)", 0x678B5081u},
    {"cache(mode=midrange,eps=0.4,dims=9)", 0xC6292E1Du},
    {"cache(mode=mean,eps=0.4,dims=1)", 0x08E52953u},
    {"cache(mode=mean,eps=0.4,dims=3)", 0x64F1C271u},
    {"cache(mode=mean,eps=0.4,dims=4)", 0xAABCED5Bu},
    {"cache(mode=mean,eps=0.4,dims=8)", 0x2F6070B2u},
    {"cache(mode=mean,eps=0.4,dims=9)", 0x9FE40F5Eu},
    {"linear(eps=0.4,dims=1)", 0x794647C2u},
    {"linear(eps=0.4,dims=3)", 0x79F050B3u},
    {"linear(eps=0.4,dims=4)", 0xC0BB405Bu},
    {"linear(eps=0.4,dims=8)", 0xACE6DF75u},
    {"linear(eps=0.4,dims=9)", 0x06FE6026u},
    {"swing(eps=0.4,dims=1)", 0xBC920BD4u},
    {"swing(eps=0.4,dims=3)", 0xC72773ADu},
    {"swing(eps=0.4,dims=4)", 0x7A189BBAu},
    {"swing(eps=0.4,dims=8)", 0x81A15A00u},
    {"swing(eps=0.4,dims=9)", 0x956B351Du},
    {"slide(eps=0.4,dims=1)", 0x6AFD72FFu},
    {"slide(eps=0.4,dims=3)", 0x829C9804u},
    {"slide(eps=0.4,dims=4)", 0xC1DF44E1u},
    {"slide(eps=0.4,dims=8)", 0xAB923E66u},
    {"slide(eps=0.4,dims=9)", 0x62EF32B7u},
    {"kalman(eps=0.4,dims=1)", 0x51E18894u},
    {"kalman(eps=0.4,dims=3)", 0x65BCB1C5u},
    {"kalman(eps=0.4,dims=4)", 0x4EF1191Bu},
    {"kalman(eps=0.4,dims=8)", 0x3EE0E73Au},
    {"kalman(eps=0.4,dims=9)", 0x3AB3F0B6u},
    {"swing(max_lag=16,eps=2,dims=1)", 0x767EA956u},
    {"swing(max_lag=16,eps=2,dims=3)", 0x29CDDA72u},
    {"swing(max_lag=16,eps=2,dims=4)", 0x0DB62507u},
    {"swing(max_lag=16,eps=2,dims=8)", 0x4186D1A8u},
    {"swing(max_lag=16,eps=2,dims=9)", 0xE33B45E1u},
    {"slide(max_lag=16,eps=2,dims=1)", 0x0375D0ADu},
    {"slide(max_lag=16,eps=2,dims=3)", 0xD8BFC384u},
    {"slide(max_lag=16,eps=2,dims=4)", 0x4A62B0FDu},
    {"slide(max_lag=16,eps=2,dims=8)", 0x64BAD5C7u},
    {"slide(max_lag=16,eps=2,dims=9)", 0xBD931DC9u},
};

TEST(ColumnarIngestTest, FilterColumnarMatchesRowAcrossFamiliesAndDims) {
  for (const GoldenChain& golden : kGoldenChains) {
    auto row = MakeFilter(golden.spec).value();
    const size_t dims = row->dimensions();
    const Signal signal = MakeSignal(dims, 2500, 17 + dims);
    for (const DataPoint& p : signal.points) {
      ASSERT_TRUE(row->Append(p).ok());
    }
    ASSERT_TRUE(row->Finish().ok());
    const auto expected = row->TakeSegments();
    EXPECT_EQ(ChainDigest(expected), golden.digest)
        << golden.spec << " digest 0x" << std::hex << ChainDigest(expected);
    if (row->options().max_lag > 0) {
      // The max-lag chains must actually reach frozen mode.
      EXPECT_GT(row->extra_recordings(), 0u) << golden.spec;
    }

    auto batched = MakeFilter(golden.spec).value();
    for (size_t at = 0; at < signal.points.size(); at += 256) {
      const size_t n = std::min<size_t>(256, signal.points.size() - at);
      ASSERT_TRUE(batched
                      ->AppendBatch(std::span<const DataPoint>(
                          &signal.points[at], n))
                      .ok());
    }
    ASSERT_TRUE(batched->Finish().ok());
    EXPECT_EQ(batched->TakeSegments(), expected) << golden.spec << " (rows)";
    EXPECT_EQ(batched->extra_recordings(), row->extra_recordings());

    for (const size_t batch : {size_t{9}, size_t{256}}) {
      auto columnar = MakeFilter(golden.spec).value();
      AppendColumnar(*columnar, signal.points, batch);
      ASSERT_TRUE(columnar->Finish().ok());
      EXPECT_EQ(columnar->TakeSegments(), expected)
          << golden.spec << " batch=" << batch;
      EXPECT_EQ(columnar->points_seen(), row->points_seen());
    }

    // The 1-lane instantiation of the kernels must produce the same bytes
    // as the Pack instantiation. The switch is restored before asserting,
    // so a failure cannot leave later tests running at one lane.
    auto scalar = MakeFilter(golden.spec).value();
    simd::SetForceScalar(true);
    AppendColumnar(*scalar, signal.points, 256);
    const Status finished = scalar->Finish();
    simd::SetForceScalar(false);
    ASSERT_TRUE(finished.ok());
    EXPECT_EQ(scalar->TakeSegments(), expected)
        << golden.spec << " (forced scalar)";
  }
}

TEST(ColumnarIngestTest, PipelineColumnarMatrixShardsAndGuard) {
  const size_t kKeys = 4;
  const size_t kPoints = 1500;
  const size_t kDims = 4;
  std::vector<std::string> keys;
  std::vector<Signal> signals;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back("sensor" + std::to_string(i));
    signals.push_back(MakeSignal(kDims, kPoints, 70 + i));
  }

  const auto build = [&](size_t shards, bool threaded, bool guarded) {
    Pipeline::Builder builder;
    builder.DefaultSpec(SpecFor("slide", kDims)).Codec("frame").Shards(shards);
    if (threaded) builder.Threads();
    // The guarded leg uses a real reordering policy; the input is clean,
    // so the guard must admit every point unchanged.
    if (guarded) builder.Ingest("guard(reorder=8,nan=skip)");
    return builder.Build().value();
  };

  // Baseline: per-point appends, one shard, no guard.
  auto baseline = build(1, false, false);
  for (size_t i = 0; i < kKeys; ++i) {
    for (const DataPoint& p : signals[i].points) {
      ASSERT_TRUE(baseline->Append(keys[i], p).ok());
    }
  }
  ASSERT_TRUE(baseline->Finish().ok());

  std::vector<double> ts;
  std::vector<double> vals;
  for (const size_t shards : {1u, 3u}) {
    for (const bool threaded : {false, true}) {
      for (const bool guarded : {false, true}) {
        auto pipeline = build(shards, threaded, guarded);
        for (size_t at = 0; at < kPoints; at += 256) {
          const size_t n = std::min<size_t>(256, kPoints - at);
          for (size_t i = 0; i < kKeys; ++i) {
            ToColumns(signals[i].points, at, n, &ts, &vals);
            ASSERT_TRUE(pipeline->AppendBatch(keys[i], ts, vals).ok());
          }
        }
        ASSERT_TRUE(pipeline->Finish().ok());
        for (size_t i = 0; i < kKeys; ++i) {
          EXPECT_EQ(pipeline->Segments(keys[i]).value(),
                    baseline->Segments(keys[i]).value())
              << "shards=" << shards << " threaded=" << threaded
              << " guarded=" << guarded << " key=" << keys[i];
        }
        EXPECT_EQ(pipeline->Stats().points, kKeys * kPoints);
      }
    }
  }
}

TEST(ColumnarIngestTest, LengthMismatchRejectsWholeBatchWithPrefix) {
  auto filter = MakeFilter("swing(eps=0.5,dims=2)").value();
  // Seed one good point so "nothing applied" is observable against
  // existing state.
  ASSERT_TRUE(filter->Append(DataPoint(1.0, {0.0, 0.0})).ok());

  const std::vector<double> ts{2.0, 3.0, 4.0};
  const std::vector<double> short_vals{1.0, 2.0, 3.0, 4.0, 5.0};  // 5 != 3*2
  const Status mismatched = filter->AppendBatch(ts, short_vals);
  EXPECT_EQ(mismatched.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mismatched.message().rfind("columnar batch", 0), 0u)
      << mismatched.message();
  EXPECT_EQ(filter->points_seen(), 1u);  // nothing from the bad batch

  // The stream continues unharmed with a well-formed batch.
  const std::vector<double> good_vals{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_TRUE(filter->AppendBatch(ts, good_vals).ok());
  EXPECT_EQ(filter->points_seen(), 4u);
  EXPECT_TRUE(filter->Finish().ok());
}

TEST(ColumnarIngestTest, MidBatchErrorStopsWithPrefixApplied) {
  auto filter = MakeFilter("swing(eps=0.5)").value();
  const std::vector<double> ts{1.0, 2.0, 1.5, 3.0};  // 1.5 is out of order
  const std::vector<double> vals{0.0, 0.5, 0.7, 0.9};
  const Status status = filter->AppendBatch(ts, vals);
  EXPECT_EQ(status.code(), StatusCode::kOutOfOrder);
  EXPECT_EQ(filter->points_seen(), 2u);  // the prefix before the error
  EXPECT_TRUE(filter->Append(DataPoint::Scalar(2.5, 0.8)).ok());
  EXPECT_TRUE(filter->Finish().ok());
}

TEST(ColumnarIngestTest, EmptyColumnarBatchIsANoOp) {
  auto filter = MakeFilter("slide(eps=0.4)").value();
  EXPECT_TRUE(filter->AppendBatch(std::span<const double>{},
                                  std::span<const double>{})
                  .ok());
  EXPECT_EQ(filter->points_seen(), 0u);

  FilterBank bank([](std::string_view) {
    return Result<std::unique_ptr<Filter>>(MakeFilter("slide(eps=0.4)"));
  });
  EXPECT_TRUE(bank.AppendBatch("k", std::span<const double>{},
                               std::span<const double>{})
                  .ok());
  EXPECT_FALSE(bank.Contains("k"));  // no filter created for an empty batch

  auto pipeline =
      Pipeline::Builder().DefaultSpec("slide(eps=0.4)").Build().value();
  EXPECT_TRUE(pipeline
                  ->AppendBatch("k", std::span<const double>{},
                                std::span<const double>{})
                  .ok());
  EXPECT_EQ(pipeline->Stats().points, 0u);
  EXPECT_TRUE(pipeline->Finish().ok());
}

}  // namespace
}  // namespace plastream
