// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Unit tests for ShardedFilterBank: shard determinism (per-key output is
// byte-identical for every shard count and mode), aggregation across
// shards, error propagation in both modes, and concurrent producers (this
// suite and sharded_pipeline_test are the TSan CI targets).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/filter_registry.h"
#include "stream/sharded_filter_bank.h"

namespace plastream {
namespace {

ShardedFilterBank::FilterFactory SwingFactory(double eps) {
  return [eps](std::string_view) -> Result<std::unique_ptr<Filter>> {
    FilterSpec spec;
    spec.family = "swing";
    spec.options = FilterOptions::Scalar(eps);
    return MakeFilter(spec);
  };
}

std::unique_ptr<ShardedFilterBank> MakeBank(size_t shards, bool threaded,
                                            double eps = 0.25) {
  ShardedFilterBank::Options options;
  options.shards = shards;
  options.threaded = threaded;
  options.queue_capacity = 16;
  auto bank = ShardedFilterBank::Create(SwingFactory(eps), options);
  EXPECT_TRUE(bank.ok()) << bank.status().ToString();
  return std::move(bank).value();
}

// A deterministic multi-key workload: ramps plus per-key phase wiggle.
std::vector<std::string> WorkloadKeys(size_t count) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < count; ++i) {
    keys.push_back("host" + std::to_string(i) + ".cpu");
  }
  return keys;
}

double WorkloadValue(size_t key_index, int j) {
  return (j % 13) * 0.5 + static_cast<double>(key_index) + (j % 3) * 0.2;
}

void FeedWorkload(ShardedFilterBank& bank, const std::vector<std::string>& keys,
                  int points_per_key) {
  for (int j = 0; j < points_per_key; ++j) {
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(
          bank.Append(keys[i], DataPoint::Scalar(j, WorkloadValue(i, j)))
              .ok());
    }
  }
}

TEST(ShardedFilterBankTest, CreateValidatesOptions) {
  ShardedFilterBank::Options zero_shards;
  zero_shards.shards = 0;
  EXPECT_EQ(ShardedFilterBank::Create(SwingFactory(1), zero_shards)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  ShardedFilterBank::Options zero_queue;
  zero_queue.threaded = true;
  zero_queue.queue_capacity = 0;
  EXPECT_EQ(
      ShardedFilterBank::Create(SwingFactory(1), zero_queue).status().code(),
      StatusCode::kInvalidArgument);

  EXPECT_EQ(ShardedFilterBank::Create(nullptr, ShardedFilterBank::Options{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedFilterBankTest, ShardAssignmentIsStableAndComplete) {
  const auto bank = MakeBank(8, false);
  EXPECT_EQ(bank->shard_count(), 8u);
  for (const std::string& key : WorkloadKeys(100)) {
    const size_t shard = bank->ShardOf(key);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, bank->ShardOf(key));  // stable
  }
}

// The tentpole guarantee: the same key sequence through 1 shard and 8
// shards (and through worker threads) yields identical per-key segments.
TEST(ShardedFilterBankTest, PerKeySegmentsIdenticalAcrossShardCountsAndModes) {
  const auto keys = WorkloadKeys(13);
  const int points = 200;

  const auto baseline = MakeBank(1, false);
  FeedWorkload(*baseline, keys, points);
  ASSERT_TRUE(baseline->FinishAll().ok());
  std::map<std::string, std::vector<Segment>> expected;
  for (const std::string& key : keys) {
    expected[key] = baseline->TakeSegments(key).value();
    EXPECT_FALSE(expected[key].empty());
  }

  for (const size_t shards : {2u, 8u}) {
    for (const bool threaded : {false, true}) {
      auto bank = MakeBank(shards, threaded);
      FeedWorkload(*bank, keys, points);
      ASSERT_TRUE(bank->FinishAll().ok());
      for (const std::string& key : keys) {
        EXPECT_EQ(bank->TakeSegments(key).value(), expected[key])
            << "key=" << key << " shards=" << shards
            << " threaded=" << threaded;
      }
    }
  }
}

TEST(ShardedFilterBankTest, KeysMergeSortedAcrossShards) {
  const auto bank = MakeBank(4, false);
  const auto keys = WorkloadKeys(20);
  for (const std::string& key : keys) {
    ASSERT_TRUE(bank->Append(key, DataPoint::Scalar(0, 0)).ok());
  }
  const auto seen = bank->Keys();
  ASSERT_EQ(seen.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (const std::string& key : keys) {
    EXPECT_TRUE(bank->Contains(key));
    EXPECT_NE(bank->GetFilter(key), nullptr);
  }
  EXPECT_FALSE(bank->Contains("absent"));
  EXPECT_EQ(bank->GetFilter("absent"), nullptr);
}

// Every shard's index grows several times under 12,000 keys; each stream
// keeps its filter (and its address) throughout.
TEST(ShardedFilterBankTest, LockedShardsKeepEntriesAcrossIndexGrowth) {
  constexpr size_t kKeys = 12000;
  const auto bank = MakeBank(4, false);
  const auto keys = WorkloadKeys(kKeys);
  std::vector<const Filter*> filters;
  for (const std::string& key : keys) {
    ASSERT_TRUE(bank->Append(key, DataPoint::Scalar(0, 0)).ok());
    filters.push_back(bank->GetFilter(key));
    ASSERT_NE(filters.back(), nullptr);
  }
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(bank->Append(keys[i], DataPoint::Scalar(1, 1)).ok());
    ASSERT_EQ(bank->GetFilter(keys[i]), filters[i]) << keys[i];
    ASSERT_EQ(filters[i]->points_seen(), 2u) << keys[i];
  }
  const auto stats = bank->Stats();
  EXPECT_EQ(stats.streams, kKeys);
  EXPECT_EQ(stats.points, 2 * kKeys);
  for (const auto& shard : bank->ShardStats()) EXPECT_GT(shard.streams, 0u);
  EXPECT_FALSE(bank->Contains("host12000.cpu"));
}

TEST(ShardedFilterBankTest, StatsAndCountersAggregateAcrossShards) {
  const auto keys = WorkloadKeys(10);
  const auto bank = MakeBank(4, false);
  FeedWorkload(*bank, keys, 50);
  ASSERT_TRUE(bank->FinishAll().ok());

  const auto stats = bank->Stats();
  EXPECT_EQ(stats.streams, keys.size());
  EXPECT_EQ(stats.points, keys.size() * 50);
  EXPECT_GE(stats.segments, keys.size());

  // Per-shard stats partition the totals.
  size_t streams = 0, points = 0;
  for (const auto& shard : bank->ShardStats()) {
    streams += shard.streams;
    points += shard.points;
  }
  EXPECT_EQ(streams, stats.streams);
  EXPECT_EQ(points, stats.points);

  // Every swing filter exposes unreported_points; the aggregate merges
  // them into one counter (value is workload-dependent, name is not).
  const auto counters = bank->AggregateCounters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].name, "unreported_points");
}

TEST(ShardedFilterBankTest, PostAppendHookRunsPerPoint) {
  std::atomic<int> calls{0};
  ShardedFilterBank::Options options;
  options.shards = 4;
  options.post_append = [&calls](StreamContext*) {
    ++calls;
    return Status::OK();
  };
  auto bank = ShardedFilterBank::Create(SwingFactory(0.5), options).value();
  const auto keys = WorkloadKeys(5);
  for (int j = 0; j < 10; ++j) {
    for (const std::string& key : keys) {
      ASSERT_TRUE(bank->Append(key, DataPoint::Scalar(j, 0)).ok());
    }
  }
  EXPECT_EQ(calls.load(), 50);
  ASSERT_TRUE(bank->FinishAll().ok());
}

TEST(ShardedFilterBankTest, LockedModeErrorsAreSynchronousNotSticky) {
  const auto bank = MakeBank(2, false);
  ASSERT_TRUE(bank->Append("a", DataPoint::Scalar(10, 0)).ok());
  EXPECT_EQ(bank->Append("a", DataPoint::Scalar(5, 0)).code(),
            StatusCode::kOutOfOrder);
  // Filter errors leave the stream usable (same contract as Filter), and
  // Flush has nothing to report: locked-mode errors are never deferred.
  EXPECT_TRUE(bank->Append("a", DataPoint::Scalar(11, 0)).ok());
  EXPECT_TRUE(bank->Flush().ok());
  ASSERT_TRUE(bank->FinishAll().ok());
}

TEST(ShardedFilterBankTest, ThreadedModeDefersErrorsUntilFlush) {
  ShardedFilterBank::Options options;
  options.shards = 1;  // deterministic: both points hit the same shard
  options.threaded = true;
  auto bank = ShardedFilterBank::Create(SwingFactory(1.0), options).value();
  ASSERT_TRUE(bank->Append("a", DataPoint::Scalar(10, 0)).ok());
  // Out-of-order point: accepted into the queue, fails in the worker.
  ASSERT_TRUE(bank->Append("a", DataPoint::Scalar(5, 0)).ok());
  EXPECT_EQ(bank->Flush().code(), StatusCode::kOutOfOrder);
  // The error is sticky: later appends to the shard report it.
  EXPECT_EQ(bank->Append("a", DataPoint::Scalar(11, 0)).code(),
            StatusCode::kOutOfOrder);
  EXPECT_EQ(bank->FinishAll().code(), StatusCode::kOutOfOrder);
}

// Regression: a producer blocked on a full ingest queue must wake when
// FinishAll stops the shard and report FailedPrecondition — not silently
// enqueue into a dead shard (which also left Flush waiting forever).
TEST(ShardedFilterBankTest, QueueFullAppendWakesOnFinishAll) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> hook_entered{0};
  ShardedFilterBank::Options options;
  options.shards = 1;
  options.threaded = true;
  options.queue_capacity = 1;
  options.post_append = [&](StreamContext*) {
    ++hook_entered;
    released.wait();  // hold the worker so the queue stays full
    return Status::OK();
  };
  auto bank = ShardedFilterBank::Create(SwingFactory(1.0), options).value();

  ASSERT_TRUE(bank->Append("a", DataPoint::Scalar(0, 0)).ok());
  while (hook_entered.load() == 0) std::this_thread::yield();
  ASSERT_TRUE(bank->Append("a", DataPoint::Scalar(1, 0)).ok());  // fills queue

  Status blocked_status = Status::OK();
  std::thread blocked([&] {
    blocked_status = bank->Append("a", DataPoint::Scalar(2, 0));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Status finish_status = Status::OK();
  std::thread finisher([&] { finish_status = bank->FinishAll(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();

  blocked.join();
  finisher.join();
  EXPECT_EQ(blocked_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(finish_status.ok()) << finish_status.ToString();
  EXPECT_TRUE(bank->Flush().ok());  // no stranded in_flight accounting
  EXPECT_EQ(bank->Stats().points, 2u);
}

TEST(ShardedFilterBankTest, AppendAfterFinishAllFails) {
  for (const bool threaded : {false, true}) {
    auto bank = MakeBank(2, threaded);
    ASSERT_TRUE(bank->Append("a", DataPoint::Scalar(0, 0)).ok());
    ASSERT_TRUE(bank->FinishAll().ok());
    ASSERT_TRUE(bank->FinishAll().ok());  // idempotent
    EXPECT_EQ(bank->Append("a", DataPoint::Scalar(1, 0)).code(),
              StatusCode::kFailedPrecondition);
  }
}

// Concurrent multi-producer ingest: P producers own disjoint key sets and
// hammer the bank simultaneously. Run under both modes; ThreadSanitizer
// (PLASTREAM_TSAN=ON in CI) checks the synchronization.
TEST(ShardedFilterBankTest, ConcurrentProducersDisjointKeys) {
  for (const bool threaded : {false, true}) {
    auto bank = MakeBank(8, threaded);
    constexpr int kProducers = 4;
    constexpr int kKeysPerProducer = 6;
    constexpr int kPoints = 300;
    std::vector<std::thread> producers;
    std::atomic<int> failures{0};
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&bank, &failures, p] {
        for (int j = 0; j < kPoints; ++j) {
          for (int k = 0; k < kKeysPerProducer; ++k) {
            const std::string key =
                "p" + std::to_string(p) + ".k" + std::to_string(k);
            if (!bank->Append(key, DataPoint::Scalar(j, (j % 11) * 0.3 + k))
                     .ok()) {
              ++failures;
            }
          }
        }
      });
    }
    for (auto& producer : producers) producer.join();
    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(bank->FinishAll().ok());
    const auto stats = bank->Stats();
    EXPECT_EQ(stats.streams,
              static_cast<size_t>(kProducers * kKeysPerProducer));
    EXPECT_EQ(stats.points,
              static_cast<size_t>(kProducers * kKeysPerProducer * kPoints));
  }
}

}  // namespace
}  // namespace plastream
