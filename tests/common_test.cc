// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit tests for src/common: Status/Result, RNG, statistics, SIMD lanes,
// strings.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/simd.h"
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
// SIMD lanes: every simd.h operation on simd::Pack lanes gives the same
// bits as on simd::Scalar, the exact-FP-equivalence rule the filters' one
// kernel per family rests on.
// ---------------------------------------------------------------------------

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// IEEE-754 corner cases (signed zeros, subnormals, infinities, the
// extreme finite magnitudes), then seeded finite doubles across 2^±40.
std::vector<double> LaneInputs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  const double min_normal = std::numeric_limits<double>::min();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  std::vector<double> inputs{0.0,        -0.0,        subnormal,
                             -subnormal, 3 * subnormal, min_normal / 3,
                             min_normal, -min_normal, max,
                             -max,       inf,         -inf,
                             1.0,        -1.0,        0.1,
                             1e300,      -1e-300};
  Rng rng(2026);
  for (int i = 0; i < 48; ++i) {
    const int exponent = static_cast<int>(rng.UniformInt(81)) - 40;
    inputs.push_back(std::ldexp(rng.Uniform(-1.0, 1.0), exponent));
  }
  return inputs;
}

// Every ordered pair of LaneInputs, unzipped into two lane-aligned columns
// padded to a whole number of Pack groups, so every input meets every
// other input in every lane position across the groups.
std::pair<std::vector<double>, std::vector<double>> LanePairs() {
  const std::vector<double> inputs = LaneInputs();
  std::vector<double> a;
  std::vector<double> b;
  for (const double x : inputs) {
    for (const double y : inputs) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  while (a.size() % simd::Pack::kLanes != 0) {
    a.push_back(1.0);
    b.push_back(-1.0);
  }
  return {a, b};
}

// Applies `op` to each Pack group of (a, b) and, separately, to each
// element as a Scalar; the two outputs must agree bit for bit.
template <typename Op>
void ExpectLanesMatchScalar(const char* name, Op op) {
  const auto [a, b] = LanePairs();
  std::vector<double> packed(a.size());
  for (size_t i = 0; i < a.size(); i += simd::Pack::kLanes) {
    op(simd::Pack::Load(&a[i]), simd::Pack::Load(&b[i])).Store(&packed[i]);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const double scalar = op(simd::Scalar{a[i]}, simd::Scalar{b[i]}).v;
    ASSERT_EQ(Bits(packed[i]), Bits(scalar))
        << name << "(" << a[i] << ", " << b[i] << ")";
  }
}

// A mask as 1.0/0.0 lanes, via Select.
template <typename V>
V MaskLanes(typename V::Mask mask) {
  return Select(mask, V::Broadcast(1.0), V::Broadcast(0.0));
}

TEST(SimdLaneTest, ArithmeticMatchesScalarBitForBit) {
  ExpectLanesMatchScalar("+", [](auto x, auto y) { return x + y; });
  ExpectLanesMatchScalar("-", [](auto x, auto y) { return x - y; });
  ExpectLanesMatchScalar("*", [](auto x, auto y) { return x * y; });
  ExpectLanesMatchScalar("/", [](auto x, auto y) { return x / y; });
  ExpectLanesMatchScalar("Abs", [](auto x, auto) { return Abs(x); });
}

TEST(SimdLaneTest, ComparisonsMasksAndSelectMatchScalar) {
  ExpectLanesMatchScalar("<", [](auto x, auto y) {
    return MaskLanes<decltype(x)>(x < y);
  });
  ExpectLanesMatchScalar(">", [](auto x, auto y) {
    return MaskLanes<decltype(x)>(x > y);
  });
  ExpectLanesMatchScalar(">=", [](auto x, auto y) {
    return MaskLanes<decltype(x)>(x >= y);
  });
  ExpectLanesMatchScalar("|", [](auto x, auto y) {
    return MaskLanes<decltype(x)>((x < y) | (y < x));
  });
  ExpectLanesMatchScalar("Select", [](auto x, auto y) {
    return Select(x < y, x, y);
  });
  ExpectLanesMatchScalar("Select>=", [](auto x, auto y) {
    return Select(x >= y, y - x, x * y);
  });
}

TEST(SimdLaneTest, ScalarOpsAreTheCppOperators) {
  const auto [a, b] = LanePairs();
  for (size_t i = 0; i < a.size(); ++i) {
    const simd::Scalar x{a[i]};
    const simd::Scalar y{b[i]};
    EXPECT_EQ((x < y).Any(), a[i] < b[i]);
    EXPECT_EQ((x > y).Any(), a[i] > b[i]);
    EXPECT_EQ((x >= y).Any(), a[i] >= b[i]);
    EXPECT_EQ(Bits(Select(x < y, x, y).v), Bits(a[i] < b[i] ? a[i] : b[i]));
    EXPECT_EQ(Bits(Abs(x).v), Bits(std::fabs(a[i])));
  }
}

TEST(SimdLaneTest, AnyReportsAnyLane) {
  const auto [a, b] = LanePairs();
  for (size_t i = 0; i < a.size(); i += simd::Pack::kLanes) {
    bool any = false;
    for (size_t k = 0; k < simd::Pack::kLanes; ++k) any |= a[i + k] < b[i + k];
    EXPECT_EQ((simd::Pack::Load(&a[i]) < simd::Pack::Load(&b[i])).Any(), any)
        << i;
  }
}

// KahanAdd over Pack lanes, over Scalar lanes and through one KahanSum per
// lane: three routes, one sequence of bits.
void ExpectKahanRoutesAgree(const std::vector<double>& values) {
  constexpr size_t kLanes = simd::Pack::kLanes;
  double pack_sum[kLanes] = {};
  double pack_comp[kLanes] = {};
  double scalar_sum[kLanes] = {};
  double scalar_comp[kLanes] = {};
  KahanSum sums[kLanes];
  for (size_t at = 0; at + kLanes <= values.size(); at += kLanes) {
    simd::KahanAdd(pack_sum, pack_comp, simd::Pack::Load(&values[at]));
    for (size_t k = 0; k < kLanes; ++k) {
      simd::KahanAdd(&scalar_sum[k], &scalar_comp[k],
                     simd::Scalar{values[at + k]});
      sums[k].Add(values[at + k]);
    }
    for (size_t k = 0; k < kLanes; ++k) {
      ASSERT_EQ(Bits(pack_sum[k]), Bits(scalar_sum[k])) << at << "+" << k;
      ASSERT_EQ(Bits(pack_comp[k]), Bits(scalar_comp[k])) << at << "+" << k;
      ASSERT_EQ(Bits(pack_sum[k] + pack_comp[k]), Bits(sums[k].Total()))
          << at << "+" << k;
    }
  }
}

TEST(SimdLaneTest, KahanAddMatchesKahanSumAcrossLanes) {
  // Finite terms spanning 2^±40, where compensation does real work.
  Rng rng(7);
  std::vector<double> finite;
  for (int i = 0; i < 4096; ++i) {
    const int exponent = static_cast<int>(rng.UniformInt(81)) - 40;
    finite.push_back(std::ldexp(rng.Uniform(-1.0, 1.0), exponent));
  }
  ExpectKahanRoutesAgree(finite);
  // Every corner case as a term, infinities included.
  ExpectKahanRoutesAgree(LanePairs().first);
}

// The lane groups ForEachLaneGroup visits for `d` dimensions, as
// (first dimension, lanes) pairs.
std::vector<std::pair<size_t, size_t>> LaneGroups(size_t d) {
  std::vector<std::pair<size_t, size_t>> groups;
  simd::ForEachLaneGroup(d, [&]<typename V>(size_t i) {
    groups.emplace_back(i, V::kLanes);
    return false;
  });
  return groups;
}

TEST(SimdLaneTest, ForEachLaneGroupCoversEveryDimensionOnce) {
  constexpr size_t kLanes = simd::Pack::kLanes;
  for (size_t d = 0; d <= 11; ++d) {
    std::vector<std::pair<size_t, size_t>> expected;
    size_t i = 0;
    for (; i + kLanes <= d; i += kLanes) expected.emplace_back(i, kLanes);
    for (; i < d; ++i) expected.emplace_back(i, 1);
    EXPECT_EQ(LaneGroups(d), expected) << "d=" << d;

    std::vector<std::pair<size_t, size_t>> scalar;
    for (size_t k = 0; k < d; ++k) scalar.emplace_back(k, 1);
    simd::SetForceScalar(true);
    const auto forced = LaneGroups(d);
    simd::SetForceScalar(false);
    EXPECT_EQ(forced, scalar) << "d=" << d << " forced scalar";
  }
}

TEST(SimdLaneTest, ForEachLaneGroupStopsWhenTheBodyReturnsTrue) {
  size_t visited = 0;
  const bool stopped = simd::ForEachLaneGroup(9, [&]<typename V>(size_t i) {
    ++visited;
    return i + V::kLanes > 4;  // the group holding dimension 4
  });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(visited, 4 / simd::Pack::kLanes + 1);
  EXPECT_FALSE(simd::ForEachLaneGroup(
      9, []<typename V>(size_t) { return false; }));
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
