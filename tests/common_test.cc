// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit tests for src/common: Status/Result, RNG, statistics, strings.

#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/str_util.h"

namespace plastream {
namespace {

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / the canonical Castagnoli check value.
  EXPECT_EQ(Crc32c(Bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(Bytes("")), 0x00000000u);
  // iSCSI test pattern: 32 zero bytes.
  EXPECT_EQ(Crc32c(std::vector<uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::vector<uint8_t>(32, 0xFF)), 0x62A8AB43u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const auto data = Bytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::span<const uint8_t> head(data.data(), split);
    const std::span<const uint8_t> tail(data.data() + split,
                                        data.size() - split);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), Crc32c(data)) << split;
  }
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

// The dispatched Crc32c (the SSE4.2 instruction on x86-64 CPUs that have
// it) agrees with the portable table walk at every length across the
// 8-byte bulk/tail boundaries and at every start alignment.
TEST(Crc32cTest, DispatchedPathMatchesPortable) {
  const std::vector<uint8_t> buffer = RandomBytes(257 + 7, 2026);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      const std::span<const uint8_t> data(buffer.data() + offset, len);
      EXPECT_EQ(Crc32c(data), Crc32cPortable(data)) << offset << "+" << len;
      EXPECT_EQ(Crc32c(data, 0xDEADBEEFu), Crc32cPortable(data, 0xDEADBEEFu))
          << offset << "+" << len;
    }
  }
}

TEST(Crc32cTest, ChainedSplitsAgreeAcrossPaths) {
  const std::vector<uint8_t> data = RandomBytes(100, 7);
  const uint32_t whole = Crc32cPortable(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::span<const uint8_t> head(data.data(), split);
    const std::span<const uint8_t> tail(data.data() + split,
                                        data.size() - split);
    EXPECT_EQ(Crc32c(tail, Crc32c(head)), whole) << split;
    EXPECT_EQ(Crc32cPortable(tail, Crc32cPortable(head)), whole) << split;
    EXPECT_EQ(Crc32c(tail, Crc32cPortable(head)), whole) << split;
    EXPECT_EQ(Crc32cPortable(tail, Crc32c(head)), whole) << split;
  }
}

TEST(Crc32cTest, SingleBitFlipsAlwaysChangeTheChecksum) {
  const auto data = Bytes("plastream wire frame");
  const uint32_t clean = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = data;
      corrupted[i] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_NE(Crc32c(corrupted), clean) << i << ":" << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status st = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad epsilon");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad epsilon");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfOrder,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kIOError, StatusCode::kCorruption,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeName(code).empty());
    EXPECT_NE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    PLASTREAM_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto make = [](bool ok) -> Result<int> {
    if (ok) return 5;
    return Status::Internal("boom");
  };
  auto add_one = [&](bool ok) -> Result<int> {
    PLASTREAM_ASSIGN_OR_RETURN(const int v, make(ok));
    return v + 1;
  };
  EXPECT_EQ(*add_one(true), 6);
  EXPECT_EQ(add_one(false).status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 3);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) differing += a.Next() != b.Next();
  EXPECT_GT(differing, 60);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(-3.0, 7.5);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Uniform(0.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 1.0, 0.01);
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(12);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, draws / 10, draws / 100);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(15);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.02);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(16);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(RngTest, SplitProducesIndependentStreams) {
  Rng parent(17);
  Rng child1 = parent.Split();
  Rng child2 = parent.Split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += child1.Next() == child2.Next();
  EXPECT_LT(same, 4);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(KahanSumTest, ExactOnSmallSeries) {
  KahanSum sum;
  for (int i = 1; i <= 100; ++i) sum.Add(i);
  EXPECT_DOUBLE_EQ(sum.Total(), 5050.0);
}

TEST(KahanSumTest, CompensatesTinyIncrements) {
  KahanSum sum;
  sum.Add(1e16);
  for (int i = 0; i < 10000; ++i) sum.Add(1.0);
  sum.Add(-1e16);
  EXPECT_DOUBLE_EQ(sum.Total(), 10000.0);
}

TEST(KahanSumTest, ResetClears) {
  KahanSum sum;
  sum.Add(5.0);
  sum.Reset();
  EXPECT_DOUBLE_EQ(sum.Total(), 0.0);
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.StdDev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.Range(), 7.0);
}

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Range(), 0.0);
}

TEST(PearsonCorrelationTest, PerfectPositive) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
}

TEST(PearsonCorrelationTest, PerfectNegative) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(a, b), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, ConstantSeriesYieldsZero) {
  const std::vector<double> a{1, 1, 1, 1};
  const std::vector<double> b{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(PearsonCorrelationTest, MismatchedSizesYieldZero) {
  const std::vector<double> a{1, 2};
  const std::vector<double> b{1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StrUtilTest, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StrUtilTest, SplitSingleField) {
  const auto parts = SplitString("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StrUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StrUtilTest, ParseDoubleAcceptsValid) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble(" -1e-3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
}

TEST(StrUtilTest, ParseDoubleRejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("1.5 2.5", &v));
}

TEST(StrUtilTest, FormatDoubleTrimsNoise) {
  EXPECT_EQ(FormatDouble(5.0), "5");
  EXPECT_EQ(FormatDouble(3.16), "3.16");
  EXPECT_EQ(FormatDouble(0.1, 3), "0.1");
}

}  // namespace
}  // namespace plastream
