// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit tests for FilterBank: lazy per-key filter creation, routing,
// lifecycle, error propagation, and its flat hash index (colliding keys,
// growth with stable entries, iteration orders).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/filter_registry.h"
#include "stream/filter_bank.h"

namespace plastream {
namespace {

FilterBank::FilterFactory SwingFactory(double eps) {
  return [eps](std::string_view) -> Result<std::unique_ptr<Filter>> {
    FilterSpec spec;
    spec.family = "swing";
    spec.options = FilterOptions::Scalar(eps);
    return MakeFilter(spec);
  };
}

TEST(FilterBankTest, RoutesByKeyAndCreatesLazily) {
  FilterBank bank(SwingFactory(0.5));
  EXPECT_FALSE(bank.Contains("a"));
  ASSERT_TRUE(bank.Append("a", DataPoint::Scalar(0, 1)).ok());
  ASSERT_TRUE(bank.Append("b", DataPoint::Scalar(0, 2)).ok());
  ASSERT_TRUE(bank.Append("a", DataPoint::Scalar(1, 1)).ok());
  EXPECT_TRUE(bank.Contains("a"));
  EXPECT_TRUE(bank.Contains("b"));
  const auto keys = bank.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(FilterBankTest, StreamsAreIndependent) {
  FilterBank bank(SwingFactory(0.5));
  // Interleave two streams with conflicting timestamps: each stream has
  // its own monotonicity requirement.
  ASSERT_TRUE(bank.Append("x", DataPoint::Scalar(10, 0)).ok());
  ASSERT_TRUE(bank.Append("y", DataPoint::Scalar(1, 0)).ok());
  ASSERT_TRUE(bank.Append("x", DataPoint::Scalar(11, 0)).ok());
  ASSERT_TRUE(bank.Append("y", DataPoint::Scalar(2, 0)).ok());
  // Regressing within one stream still fails.
  EXPECT_EQ(bank.Append("x", DataPoint::Scalar(5, 0)).code(),
            StatusCode::kOutOfOrder);
  ASSERT_TRUE(bank.FinishAll().ok());
  EXPECT_EQ(bank.TakeSegments("x")->size(), 1u);
  EXPECT_EQ(bank.TakeSegments("y")->size(), 1u);
}

TEST(FilterBankTest, TakeSegmentsUnknownKey) {
  FilterBank bank(SwingFactory(1.0));
  EXPECT_EQ(bank.TakeSegments("nope").status().code(), StatusCode::kNotFound);
}

TEST(FilterBankTest, FactoryErrorsPropagate) {
  FilterBank bank([](std::string_view key) -> Result<std::unique_ptr<Filter>> {
    if (key == "bad") return Status::InvalidArgument("no such stream class");
    return MakeFilter("cache(eps=1)");
  });
  EXPECT_TRUE(bank.Append("good", DataPoint::Scalar(0, 0)).ok());
  EXPECT_EQ(bank.Append("bad", DataPoint::Scalar(0, 0)).code(),
            StatusCode::kInvalidArgument);
  // The failed key was not registered.
  EXPECT_FALSE(bank.Contains("bad"));
}

TEST(FilterBankTest, PerKeyConfiguration) {
  // The factory can give each stream its own precision.
  FilterBank bank([](std::string_view key) -> Result<std::unique_ptr<Filter>> {
    return MakeFilter(key == "coarse" ? "swing(eps=10)" : "swing(eps=0.1)");
  });
  for (int j = 0; j < 50; ++j) {
    const double v = (j % 7) * 1.0;
    ASSERT_TRUE(bank.Append("coarse", DataPoint::Scalar(j, v)).ok());
    ASSERT_TRUE(bank.Append("fine", DataPoint::Scalar(j, v)).ok());
  }
  ASSERT_TRUE(bank.FinishAll().ok());
  const auto coarse = bank.TakeSegments("coarse").value();
  const auto fine = bank.TakeSegments("fine").value();
  EXPECT_LT(coarse.size(), fine.size());
}

TEST(FilterBankTest, StatsAggregateAcrossStreams) {
  FilterBank bank(SwingFactory(0.25));
  for (int j = 0; j < 30; ++j) {
    ASSERT_TRUE(bank.Append("s1", DataPoint::Scalar(j, j % 3)).ok());
    ASSERT_TRUE(bank.Append("s2", DataPoint::Scalar(j, j % 5)).ok());
    ASSERT_TRUE(bank.Append("s3", DataPoint::Scalar(j, 0.0)).ok());
  }
  ASSERT_TRUE(bank.FinishAll().ok());
  const auto stats = bank.Stats();
  EXPECT_EQ(stats.streams, 3u);
  EXPECT_EQ(stats.points, 90u);
  EXPECT_GT(stats.segments, 3u);
  EXPECT_NE(bank.GetFilter("s1"), nullptr);
  EXPECT_EQ(bank.GetFilter("s9"), nullptr);
}

TEST(FilterBankTest, AppendAfterFinishAllFails) {
  FilterBank bank(SwingFactory(1.0));
  ASSERT_TRUE(bank.Append("a", DataPoint::Scalar(0, 0)).ok());
  ASSERT_TRUE(bank.FinishAll().ok());
  ASSERT_TRUE(bank.FinishAll().ok());  // idempotent
  EXPECT_EQ(bank.Append("a", DataPoint::Scalar(1, 0)).code(),
            StatusCode::kFailedPrecondition);
}

// "<prefix><i><suffix>".
std::string NumberedKey(std::string_view prefix, size_t i,
                        std::string_view suffix = "") {
  std::string key(prefix);
  key += std::to_string(i);
  key += suffix;
  return key;
}

// The index takes a key's home slot from the top bits of its FNV-1a hash.
// Returns `count` keys, `target` first, whose hashes agree with target's
// in their top `bits` bits, so they share a home slot in every table of up
// to 2^bits slots and must be told apart by probing.
std::vector<std::string> KeysSharingTopBits(const std::string& target,
                                            size_t count, int bits) {
  const uint64_t top = StreamKey::Hash(target) >> (64 - bits);
  std::vector<std::string> keys{target};
  for (size_t i = 0; keys.size() < count; ++i) {
    std::string key = NumberedKey("collide.", i);
    if (StreamKey::Hash(key) >> (64 - bits) == top) keys.push_back(key);
  }
  return keys;
}

double Wiggle(size_t key_index, int j) {
  return (j % 11) * 0.7 + static_cast<double>(key_index) * 0.3 + (j % 4);
}

TEST(FilterBankIndexTest, CollidingKeysMatchDirectFilterRuns) {
  const auto keys = KeysSharingTopBits("host0001.cpu", 6, 16);
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_NE(StreamKey::Hash(keys[i]), StreamKey::Hash(keys[0]));
  }
  FilterBank bank(SwingFactory(0.5));
  std::vector<std::unique_ptr<Filter>> direct;
  for (size_t i = 0; i < keys.size(); ++i) {
    direct.push_back(SwingFactory(0.5)(keys[i]).value().filter);
  }
  // Interleaved: every point probes past the other keys' slots.
  for (int j = 0; j < 300; ++j) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const DataPoint point = DataPoint::Scalar(j, Wiggle(i, j));
      ASSERT_TRUE(bank.Append(keys[i], point).ok());
      ASSERT_TRUE(direct[i]->Append(point).ok());
    }
  }
  ASSERT_TRUE(bank.FinishAll().ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(direct[i]->Finish().ok());
    const auto segments = bank.TakeSegments(keys[i]);
    ASSERT_TRUE(segments.ok()) << keys[i];
    EXPECT_FALSE(segments->empty());
    EXPECT_EQ(*segments, direct[i]->TakeSegments()) << keys[i];
  }
}

TEST(FilterBankIndexTest, EqualHashesAreToldApartByTheKey) {
  // Two keys given the same 64-bit hash: the probe's hash test passes for
  // both, and only the key comparison keeps their streams apart.
  FilterBank bank(SwingFactory(0.5));
  const StreamKey a("alpha", 42);
  const StreamKey b("beta", 42);
  ASSERT_TRUE(bank.Append(a, DataPoint::Scalar(0, 1)).ok());
  ASSERT_TRUE(bank.Append(b, DataPoint::Scalar(0, 2)).ok());
  ASSERT_TRUE(bank.Append(a, DataPoint::Scalar(1, 1)).ok());
  EXPECT_NE(bank.GetFilter(a), bank.GetFilter(b));
  EXPECT_EQ(bank.GetFilter(a)->points_seen(), 2u);
  EXPECT_EQ(bank.GetFilter(b)->points_seen(), 1u);
  EXPECT_FALSE(bank.Contains(StreamKey("gamma", 42)));
  EXPECT_EQ(bank.Stats().streams, 2u);
}

TEST(FilterBankIndexTest, EntriesKeepTheirAddressAcrossGrowth) {
  // 12,000 keys grow the index from 16 to 32,768 slots (11 doublings).
  constexpr size_t kKeys = 12000;
  FilterBank bank(SwingFactory(0.5));
  std::vector<std::string> keys;
  std::vector<const Filter*> filters;
  for (size_t i = 0; i < kKeys; ++i) {
    keys.push_back(NumberedKey("fleet.host", i, ".cpu"));
    ASSERT_TRUE(bank.Append(keys[i], DataPoint::Scalar(0, 0)).ok());
    filters.push_back(bank.GetFilter(keys[i]));
    ASSERT_NE(filters[i], nullptr);
  }
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(bank.Append(keys[i], DataPoint::Scalar(1, 1)).ok());
    ASSERT_EQ(bank.GetFilter(keys[i]), filters[i]) << keys[i];
    ASSERT_EQ(filters[i]->points_seen(), 2u) << keys[i];
  }
  EXPECT_EQ(bank.Stats().streams, kKeys);
  EXPECT_EQ(bank.Stats().points, 2 * kKeys);
}

TEST(FilterBankIndexTest, UnknownKeysMissEvenWhenTheyCollide) {
  const auto keys = KeysSharingTopBits("live.key", 3, 16);
  FilterBank bank(SwingFactory(0.5));
  ASSERT_TRUE(bank.Append(keys[0], DataPoint::Scalar(0, 0)).ok());
  ASSERT_TRUE(bank.Append(keys[1], DataPoint::Scalar(0, 0)).ok());
  // keys[2] shares the live keys' home slot but was never appended.
  for (const std::string& unknown : {keys[2], std::string("absent"),
                                    std::string("")}) {
    EXPECT_FALSE(bank.Contains(unknown)) << unknown;
    EXPECT_EQ(bank.GetFilter(unknown), nullptr) << unknown;
    EXPECT_EQ(bank.Context(unknown), nullptr) << unknown;
    EXPECT_EQ(bank.TakeSegments(unknown).status().code(),
              StatusCode::kNotFound)
        << unknown;
  }
  EXPECT_TRUE(bank.Contains(keys[0]));
  EXPECT_TRUE(bank.Contains(keys[1]));
}

TEST(FilterBankIndexTest, KeysAreSortedWhateverTheCreationOrder) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < 200; ++i) keys.push_back(NumberedKey("k", i));
  std::shuffle(keys.begin(), keys.end(), std::mt19937(7));
  FilterBank bank(SwingFactory(0.5));
  for (const std::string& key : keys) {
    ASSERT_TRUE(bank.Append(key, DataPoint::Scalar(0, 0)).ok());
  }
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(bank.Keys(), sorted);
}

// A context that remembers its stream's key.
struct KeyContext : StreamContext {
  explicit KeyContext(std::string_view key_in) : key(key_in) {}
  std::string key;
};

TEST(FilterBankIndexTest, ForEachContextVisitsInCreationOrder) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < 100; ++i) keys.push_back(NumberedKey("s", i));
  std::shuffle(keys.begin(), keys.end(), std::mt19937(11));
  FilterBank bank([](std::string_view key) -> Result<FilterBank::NewStream> {
    PLASTREAM_ASSIGN_OR_RETURN(auto filter, MakeFilter("swing(eps=0.5)"));
    return FilterBank::NewStream(std::move(filter),
                                 std::make_unique<KeyContext>(key));
  });
  for (const std::string& key : keys) {
    ASSERT_TRUE(bank.Append(key, DataPoint::Scalar(0, 0)).ok());
  }
  std::vector<std::string> visited;
  ASSERT_TRUE(bank.ForEachContext([&](StreamContext& context) {
                    visited.push_back(static_cast<KeyContext&>(context).key);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(visited, keys);
}

}  // namespace
}  // namespace plastream
