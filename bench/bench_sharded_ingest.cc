// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Sharded-ingest throughput: aggregate points/sec through the full
// Pipeline (filter -> wire codec accounting + archive) as a function of
// shard count, with one producer thread per shard, in both execution
// modes (per-shard locks vs dedicated shard workers). Also asserts the
// sharding contract: per-key segment sequences are identical for every
// shard count and mode.
//
//   $ ./build/bench_sharded_ingest [--keys N] [--points N]
//                                  [--json PATH] [--spec SPEC]
//
// --points is per key; --json writes the series as a machine-readable
// artifact (CI uploads it so PRs accumulate a perf trajectory).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/random_walk.h"
#include "stream/pipeline.h"

namespace plastream::bench {
namespace {

struct Config {
  size_t keys = 64;
  size_t points_per_key = 4000;
  std::string spec = "slide(eps=0.5)";
  std::string json_path;
};

struct RunResult {
  size_t shards = 0;
  bool threaded = false;
  double seconds = 0.0;
  double points_per_sec = 0.0;
  bool deterministic = true;
};

// One producer thread per shard; producer p owns every p-th key, so each
// key has exactly one writer (the pipeline's per-key ordering contract).
RunResult RunOnce(const Config& config, size_t shards, bool threaded,
                  const std::vector<std::string>& keys,
                  const std::vector<Signal>& signals,
                  std::map<std::string, std::vector<Segment>>* baseline) {
  auto pipeline = ValueOrDie(Pipeline::Builder()
                                 .DefaultSpec(config.spec)
                                 .Shards(shards)
                                 .Threads(threaded)
                                 .QueueCapacity(1024)
                                 .Build(),
                             "Pipeline::Build");

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producers;
  for (size_t p = 0; p < shards; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = p; i < keys.size(); i += shards) {
        for (const DataPoint& point : signals[i].points) {
          CheckOk(pipeline->Append(keys[i], point), "Pipeline::Append");
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  CheckOk(pipeline->Finish(), "Pipeline::Finish");
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  RunResult result;
  result.shards = shards;
  result.threaded = threaded;
  result.seconds = elapsed.count();
  result.points_per_sec =
      static_cast<double>(keys.size() * config.points_per_key) /
      elapsed.count();

  // Determinism: per-key segments must be byte-identical to the 1-shard
  // baseline (which this call populates on the first run).
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto segments =
        ValueOrDie(pipeline->Segments(keys[i]), "Pipeline::Segments");
    auto [it, inserted] = baseline->try_emplace(keys[i], segments);
    if (!inserted && it->second != segments) result.deterministic = false;
  }
  return result;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--keys") == 0) {
      config.keys = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--points") == 0) {
      config.points_per_key = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--spec") == 0) {
      config.spec = next();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_sharded_ingest [--keys N] [--points N] "
                   "[--spec SPEC] [--json PATH]\n");
      return 2;
    }
  }

  std::vector<std::string> keys;
  std::vector<Signal> signals;
  for (size_t i = 0; i < config.keys; ++i) {
    keys.push_back("host" + std::to_string(i) + ".metric");
    RandomWalkOptions walk;
    walk.count = config.points_per_key;
    walk.max_delta = 0.8;
    walk.seed = 1000 + i;
    signals.push_back(ValueOrDie(GenerateRandomWalk(walk), "random walk"));
  }

  std::printf("Sharded Pipeline ingest: %zu keys x %zu points, spec %s, "
              "%u hardware threads\n\n",
              config.keys, config.points_per_key, config.spec.c_str(),
              std::thread::hardware_concurrency());
  std::printf("%-8s %-10s %12s %16s %10s %14s\n", "shards", "mode",
              "seconds", "points/sec", "check", "speedup-vs-1");

  std::map<std::string, std::vector<Segment>> baseline;
  std::vector<RunResult> results;
  std::map<bool, double> base_rate;
  bool all_deterministic = true;
  for (const bool threaded : {false, true}) {
    for (const size_t shards : {1u, 2u, 4u, 8u}) {
      const RunResult run =
          RunOnce(config, shards, threaded, keys, signals, &baseline);
      results.push_back(run);
      if (shards == 1) base_rate[threaded] = run.points_per_sec;
      all_deterministic = all_deterministic && run.deterministic;
      std::printf("%-8zu %-10s %12.3f %16.0f %10s %13.2fx\n", run.shards,
                  threaded ? "threaded" : "locked", run.seconds,
                  run.points_per_sec, run.deterministic ? "identical" : "DRIFT",
                  run.points_per_sec / base_rate[threaded]);
    }
  }

  std::printf("\nshape: per-key segment sequences %s across every shard "
              "count and mode\n",
              all_deterministic ? "are byte-identical" : "DIVERGED");

  if (!config.json_path.empty()) {
    std::FILE* out = std::fopen(config.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"sharded_ingest\",\n  \"keys\": %zu,\n"
                 "  \"points_per_key\": %zu,\n  \"spec\": \"%s\",\n"
                 "  \"hardware_threads\": %u,\n  \"deterministic\": %s,\n"
                 "  \"results\": [\n",
                 config.keys, config.points_per_key, config.spec.c_str(),
                 std::thread::hardware_concurrency(),
                 all_deterministic ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
      const RunResult& run = results[i];
      std::fprintf(out,
                   "    {\"shards\": %zu, \"threaded\": %s, "
                   "\"seconds\": %.6f, \"points_per_sec\": %.0f}%s\n",
                   run.shards, run.threaded ? "true" : "false", run.seconds,
                   run.points_per_sec, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return all_deterministic ? 0 : 1;
}

}  // namespace
}  // namespace plastream::bench

int main(int argc, char** argv) { return plastream::bench::Main(argc, argv); }
