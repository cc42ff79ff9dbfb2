// Copyright (c) 2026 The plastream Authors. MIT license.
//
// bench_e2e: plastream's end-to-end benchmark. Each workload drives the
// public Pipeline / CollectorServer API in a closed loop over inputs
// generated from --seed, repeats a fixed-size unit of work until --seconds
// of measurement have passed, checks every archive against a direct
// FilterRegistry run over the same points, and prints one JSON line:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics of untraced repetitions.
// --trace 1 alternates untraced repetitions with traced ones, which build
// the same pipelines from the timing registries of timed_layers.h, and
// reports per-layer metrics. bench/e2e/README.md defines every metric.
//
//   bench_e2e --workload fleet_point --seed 1 --seconds 10 --trace 0
//             [--workdir DIR] [--smoke] [--self-test CASE]
//             [--trace-out PATH]

#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "datagen/correlated_walk.h"
#include "datagen/random_walk.h"
#include "datagen/sea_surface.h"
#include "eval/metrics.h"
#include "storage/archive_reader.h"
#include "stream/pipeline.h"
#include "timed_layers.h"
#include "trace.h"
#include "transport/collector_server.h"

namespace plastream::e2e {
namespace {

// --- workloads ---------------------------------------------------------------

enum class Generator { kRandomWalk, kSeaSurface, kCorrelatedWalk };
enum class IngestMode { kPoint, kRowBatch, kColumnar };

// One workload: its inputs, its pipeline configuration and the fixed unit
// of work one repetition performs. A round gives every key one ingest call
// of `batch` points; a repetition runs points / batch rounds.
struct Workload {
  const char* name;
  Generator generator;
  const char* key_format;  // printf format of the key names
  const char* filter;
  const char* codec;
  bool file_storage;         // file(codec=delta) archive; else "memory"
  size_t keys;
  size_t prep_points;        // per key, archived before set-up, untimed
  size_t points;             // per key, ingested by every repetition
  size_t batch;              // points per ingest call
  IngestMode mode;
  size_t flush_every;        // rounds between Flush() calls
  size_t queries_per_flush;  // queries after every Flush()
  size_t final_queries;      // queries after Finish()
  size_t producers;          // producer threads of a remote fan-in; 0 = local
  size_t pipelines;          // remote pipelines in all
};

// Input sizes are fixed so that a parent and a change commit do identical
// work per repetition; README.md records the wall time and memory each
// takes. Why each workload exists is in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"fleet_point", Generator::kRandomWalk, "host%04zu.cpu", "swing(eps=0.5)",
     "frame", false, 2048, 0, 500, 1, IngestMode::kPoint, 4, 0, 10000, 0,
     0},
    {"sst_batch_file", Generator::kSeaSurface, "buoy%02zu.sst",
     "slide(eps=0.1)", "delta", true, 64, 0, 65536, 256,
     IngestMode::kRowBatch, 1, 0, 10000, 0, 0},
    {"collector_fanin", Generator::kRandomWalk, "p%03zu.metric",
     "swing(eps=0.5)", "batch(n=64)", true, 768, 0, 1000, 1,
     IngestMode::kPoint, 100, 0, 10000, 3, 96},
    {"restart_query", Generator::kCorrelatedWalk, "dev%03zu.imu",
     "slide(eps=1.0,dims=4)", "frame", true, 64, 16384, 12800, 256,
     IngestMode::kColumnar, 1, 64, 0, 0, 0},
};

// Scales a workload down 100x for --smoke.
Workload Smoke(Workload w) {
  const auto scale = [&](size_t n) {
    return n == 0 ? 0 : std::max(w.batch, n / 100 / w.batch * w.batch);
  };
  w.prep_points = scale(w.prep_points);
  w.points = scale(w.points);
  w.final_queries /= 100;
  w.flush_every = std::min(w.flush_every, w.points / w.batch);
  return w;
}

// --- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string self_test;  // "", "eps_half", "perturb", "withhold_finish"
  std::string trace_out;
  std::string workdir = ".";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "--seconds S [--trace 0|1] [--workdir DIR] [--smoke] "
               "[--self-test eps_half|perturb|withhold_finish] "
               "[--trace-out PATH]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--workdir") {
      args.workdir = value();
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--self-test") {
      args.self_test = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds >= 0.0)) Usage("--seconds must be >= 0");
  if (!args.self_test.empty() && args.self_test != "eps_half" &&
      args.self_test != "perturb" && args.self_test != "withhold_finish") {
    Usage("unknown --self-test case");
  }
  return args;
}

// --- process probes ------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

// A "VmRSS"/"VmHWM" line of /proc/self/status, in bytes.
double StatusBytes(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- outcome ledger ----------------------------------------------------------

// Counts attempted operations (ingest calls, flushes, queries, checks) and
// failed ones; logs the first few failures to stderr.
class Ledger {
 public:
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  void Check(const Status& status, const char* what) {
    ++attempted;
    if (status.ok()) return;
    ++failed;
    if (failed <= 10) {
      std::fprintf(stderr, "FAILED: %s: %s\n", what,
                   status.ToString().c_str());
    }
  }
  void Merge(const Ledger& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// --- inputs ------------------------------------------------------------------

struct KeyInput {
  std::string key;
  std::vector<double> t;  // prep_points + points samples
  std::vector<double> x;  // point-major values: x[j * dims + i]
};

// A query, resolved against the key's covered history when it runs: a
// ValueAt at a sample time, or an Aggregate over a range whose length is
// log-uniform between 16 samples and the whole history.
struct Query {
  uint32_t key = 0;
  bool aggregate = false;
  uint32_t dim = 0;
  double u0 = 0.0;
  double u1 = 0.0;
};

struct Inputs {
  FilterSpec spec;
  size_t dims = 1;
  std::vector<KeyInput> keys;
  std::vector<Query> queries;
  // The checks' reference: per key, the chain a direct filter run over the
  // same points produces (prep chain, then continuation chain).
  std::vector<std::vector<Segment>> reference;
  std::vector<double> reference_eps;
  uint64_t reference_segments = 0;
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Result<Signal> GenerateKey(const Workload& w, uint64_t seed, size_t count) {
  switch (w.generator) {
    case Generator::kRandomWalk: {
      RandomWalkOptions options;
      options.count = count;
      options.decrease_probability = 0.5;
      options.max_delta = 1.0;
      options.seed = seed;
      return GenerateRandomWalk(options);
    }
    case Generator::kSeaSurface: {
      SeaSurfaceOptions options;
      options.count = count;
      options.seed = seed;
      return GenerateSeaSurfaceTemperature(options);
    }
    case Generator::kCorrelatedWalk: {
      CorrelatedWalkOptions options;
      options.count = count;
      options.dimensions = 4;
      options.correlation = 0.3;
      options.seed = seed;
      return GenerateCorrelatedWalk(options);
    }
  }
  return Status::InvalidArgument("unknown generator");
}

Result<std::vector<Segment>> ReferenceChain(const FilterSpec& spec,
                                            const KeyInput& in, size_t dims,
                                            size_t prep) {
  std::vector<Segment> chain;
  DataPoint point;
  point.x.resize(dims);
  const auto run = [&](size_t first, size_t last) -> Status {
    PLASTREAM_ASSIGN_OR_RETURN(auto filter,
                               FilterRegistry::Global().MakeFilter(spec));
    for (size_t j = first; j < last; ++j) {
      point.t = in.t[j];
      for (size_t i = 0; i < dims; ++i) point.x[i] = in.x[j * dims + i];
      PLASTREAM_RETURN_NOT_OK(filter->Append(point));
    }
    PLASTREAM_RETURN_NOT_OK(filter->Finish());
    for (Segment& segment : filter->TakeSegments()) {
      chain.push_back(std::move(segment));
    }
    return Status::OK();
  };
  if (prep > 0) PLASTREAM_RETURN_NOT_OK(run(0, prep));
  PLASTREAM_RETURN_NOT_OK(run(prep, in.t.size()));
  return chain;
}

Result<Inputs> MakeInputs(const Workload& w, const Args& args) {
  Inputs in;
  PLASTREAM_ASSIGN_OR_RETURN(in.spec, FilterSpec::Parse(w.filter));
  in.dims = in.spec.options.epsilon.size();
  const size_t count = w.prep_points + w.points;
  in.keys.resize(w.keys);
  for (size_t k = 0; k < w.keys; ++k) {
    KeyInput& key = in.keys[k];
    char name[64];
    std::snprintf(name, sizeof(name), w.key_format, k);
    key.key = name;
    PLASTREAM_ASSIGN_OR_RETURN(
        const Signal signal,
        GenerateKey(w, SplitMix64(args.seed * 1000003 + k), count));
    key.t.reserve(count);
    key.x.reserve(count * in.dims);
    for (const DataPoint& p : signal.points) {
      key.t.push_back(p.t);
      for (size_t i = 0; i < in.dims; ++i) key.x.push_back(p.x[i]);
    }
  }
  Rng rng(SplitMix64(args.seed ^ 0x51ED270B7A3Full));
  const size_t rounds = w.points / w.batch;
  in.queries.resize(std::max<size_t>(
      1, std::max(w.final_queries, rounds * w.queries_per_flush)));
  for (Query& q : in.queries) {
    q.key = static_cast<uint32_t>(rng.UniformInt(w.keys));
    q.aggregate = rng.Bernoulli(0.5);
    q.dim = static_cast<uint32_t>(rng.UniformInt(in.dims));
    q.u0 = rng.NextDouble();
    q.u1 = rng.NextDouble();
  }

  // The reference; --self-test breaks it on purpose.
  FilterSpec reference_spec = in.spec;
  if (args.self_test == "eps_half") {
    for (double& eps : reference_spec.options.epsilon) eps *= 0.5;
  }
  in.reference_eps = reference_spec.options.epsilon;
  in.reference.resize(w.keys);
  for (size_t k = 0; k < w.keys; ++k) {
    PLASTREAM_ASSIGN_OR_RETURN(
        in.reference[k],
        ReferenceChain(reference_spec, in.keys[k], in.dims, w.prep_points));
    in.reference_segments += in.reference[k].size();
  }
  if (args.self_test == "perturb") {
    std::vector<Segment>& chain = in.reference[0];
    chain[chain.size() / 2].x_end[0] += in.spec.options.epsilon[0];
  }
  return in;
}

// Reusable argument buffers of one ingest call.
class CallData {
 public:
  CallData(size_t dims, size_t batch, IngestMode mode)
      : dims_(dims), mode_(mode) {
    point_.x.resize(dims);
    if (mode == IngestMode::kRowBatch) {
      rows_.resize(batch);
      for (DataPoint& p : rows_) p.x.resize(dims);
    }
    if (mode == IngestMode::kColumnar) {
      ts_.resize(batch);
      vals_.resize(batch * dims);
    }
  }

  // Loads samples [first, first + n) of `in`.
  void Fill(const KeyInput& in, size_t first, size_t n) {
    switch (mode_) {
      case IngestMode::kPoint:
        point_.t = in.t[first];
        for (size_t i = 0; i < dims_; ++i) point_.x[i] = in.x[first * dims_ + i];
        break;
      case IngestMode::kRowBatch:
        for (size_t j = 0; j < n; ++j) {
          rows_[j].t = in.t[first + j];
          for (size_t i = 0; i < dims_; ++i) {
            rows_[j].x[i] = in.x[(first + j) * dims_ + i];
          }
        }
        break;
      case IngestMode::kColumnar:
        for (size_t j = 0; j < n; ++j) {
          ts_[j] = in.t[first + j];
          for (size_t i = 0; i < dims_; ++i) {
            vals_[i * n + j] = in.x[(first + j) * dims_ + i];
          }
        }
        break;
    }
  }

  Status Ingest(Pipeline& pipeline, std::string_view key) const {
    Span span(kStreamAppend);
    switch (mode_) {
      case IngestMode::kPoint:
        return pipeline.Append(key, point_);
      case IngestMode::kRowBatch:
        return pipeline.AppendBatch(key, std::span<const DataPoint>(rows_));
      case IngestMode::kColumnar:
        return pipeline.AppendBatch(key, std::span<const double>(ts_),
                                    std::span<const double>(vals_));
    }
    return Status::InvalidArgument("unknown ingest mode");
  }

 private:
  size_t dims_;
  IngestMode mode_;
  DataPoint point_;
  std::vector<DataPoint> rows_;
  std::vector<double> ts_;
  std::vector<double> vals_;
};

// --- repetitions -------------------------------------------------------------

/// Byte and record counters of a pipeline's streams.
struct WireCounters {
  uint64_t wire_bytes = 0;     // channel bytes, or socket bytes when remote
  uint64_t codec_bytes = 0;    // bytes the codec encoded
  uint64_t records = 0;        // wire records sent
  uint64_t frames = 0;         // codec frames
  uint64_t segments_held = 0;  // segments the local receivers hold
  TransportStats transport;
};

struct Context {
  Workload w;
  Args args;
  Inputs in;
  std::string archive_path;  // this process's archive file
  std::string prep_path;     // restart_query: the archive written in prep
  std::string socket_path;   // collector_fanin: the collector's socket
};

// What one repetition measured.
struct Rep {
  bool traced = false;
  bool warmup = false;  // first repetition: RSS and byte counts only
  double setup_s = 0.0;
  double call_s = 0.0;   // ingest + Flush + Finish calls, summed over threads
  double phase_s = 0.0;  // wall time of the ingest phase, queries excluded
  double cpu_s = 0.0;    // process CPU over the ingest phase
  uint64_t points = 0;
  double append_p50_ns = 0.0;
  double append_p99_ns = 0.0;
  size_t append_samples = 0;
  WireCounters wire;
  uint64_t decode_frames = 0;   // frames the receiving side decoded
  uint64_t store_segments = 0;  // segments in the archives at the end
  uint64_t recovered_segments = 0;
  double archive_bytes = 0.0;
  double rss_growth_bytes = 0.0;  // first repetition only
  double collector_busy = 0.0;    // serve-thread CPU / phase wall time
  uint64_t collector_bytes = 0;
};

// Everything a run accumulates across its repetitions.
struct RunState {
  explicit RunState(size_t threads) {
    for (size_t i = 0; i < threads; ++i) {
      tracers.emplace_back(static_cast<uint32_t>(i));
      append.emplace_back();
      flush_scratch.emplace_back();
    }
  }
  Ledger ledger;
  std::vector<Rep> reps;
  std::vector<Samples> append;         // per thread, per repetition
  std::vector<Samples> flush_scratch;  // per thread, per repetition
  Samples flush;                       // untraced repetitions, pooled
  Samples query_aggregate;             // measured repetitions, pooled
  Samples query_value_at;
  double segments_touched = 0.0;
  uint64_t aggregates_checked = 0;
  std::vector<Tracer> tracers;  // one per producer thread
  Tracer collector_tracer{99};  // 99: the serve thread's Chrome-trace tid
  Tracer producer_total;   // merged over traced repetitions
  Tracer collector_total;
  SpanCost span_cost;      // measured before the first traced repetition
  std::optional<uint32_t> archive_crc;
  // The first repetition warms caches, the allocator and the kernel's
  // socket buffers; its latencies and rates are not reported.
  bool warmup = true;
};

using StoreOf = std::function<const SegmentStore*(size_t key)>;

void RunQueries(const Context& ctx, size_t count, size_t& cursor,
                const StoreOf& store_of, RunState& st) {
  const Inputs& in = ctx.in;
  for (size_t n = 0; n < count; ++n) {
    const Query& q = in.queries[cursor++ % in.queries.size()];
    const KeyInput& key = in.keys[q.key];
    const SegmentStore* store = store_of(q.key);
    if (store == nullptr || store->empty()) {
      st.ledger.Check(false, "query on " + key.key + ": no archive");
      continue;
    }
    // Only samples the archive already covers are queried.
    const size_t covered = static_cast<size_t>(
        std::upper_bound(key.t.begin(), key.t.end(), store->t_max()) -
        key.t.begin());
    if (covered == 0) {
      st.ledger.Check(false, "query on " + key.key + ": nothing covered");
      continue;
    }
    bool ok = false;
    if (q.aggregate) {
      const double span = 16.0 * std::pow(std::max(1.0, covered / 16.0), q.u1);
      const size_t len = std::clamp<size_t>(static_cast<size_t>(span), 1,
                                            covered);
      const size_t first = std::min(
          covered - len, static_cast<size_t>(q.u0 * (covered - len + 1)));
      const uint64_t a = NowNs();
      const auto result =
          store->Aggregate(key.t[first], key.t[first + len - 1], q.dim);
      if (!st.warmup) st.query_aggregate.Add(NowNs() - a);
      if (result.ok()) {
        const double tol = 1e-9 * std::max({1.0, std::abs(result->min),
                                            std::abs(result->max)});
        ok = result->segments_touched > 0 &&
             result->mean >= result->min - tol &&
             result->mean <= result->max + tol;
        st.segments_touched += static_cast<double>(result->segments_touched);
        ++st.aggregates_checked;
      }
    } else {
      const size_t j = std::min(covered - 1, static_cast<size_t>(q.u0 * covered));
      const uint64_t a = NowNs();
      const auto result = store->ValueAt(key.t[j], q.dim);
      if (!st.warmup) st.query_value_at.Add(NowNs() - a);
      // The paper's contract at a sample: within ε of the raw value.
      const double raw = key.x[j * in.dims + q.dim];
      const double eps = in.reference_eps[q.dim];
      ok = result.ok() &&
           std::abs(*result - raw) <=
               eps + 1e-9 * std::max({1.0, std::abs(raw), eps});
    }
    st.ledger.Check(ok, std::string(q.aggregate ? "Aggregate" : "ValueAt") +
                            " on " + key.key);
  }
}

// Every key's archived chain equals the reference chain.
void CheckChains(const Context& ctx, const StoreOf& store_of, Ledger& ledger) {
  for (size_t k = 0; k < ctx.in.keys.size(); ++k) {
    const SegmentStore* store = store_of(k);
    const std::vector<Segment>& ref = ctx.in.reference[k];
    ledger.Check(store != nullptr &&
                     std::equal(store->segments().begin(),
                                store->segments().end(), ref.begin(),
                                ref.end()),
                 "archive chain of " + ctx.in.keys[k].key +
                     " differs from the reference");
  }
}

// Every key's archive is within ε of its raw points (VerifyPrecision).
void CheckPrecision(const Context& ctx, const StoreOf& store_of,
                    Ledger& ledger) {
  const Inputs& in = ctx.in;
  for (size_t k = 0; k < in.keys.size(); ++k) {
    const SegmentStore* store = store_of(k);
    if (store == nullptr) {
      ledger.Check(false, "no archive for " + in.keys[k].key);
      continue;
    }
    Signal signal;
    signal.points.resize(in.keys[k].t.size());
    for (size_t j = 0; j < signal.points.size(); ++j) {
      signal.points[j].t = in.keys[k].t[j];
      signal.points[j].x.resize(in.dims);
      for (size_t i = 0; i < in.dims; ++i) {
        signal.points[j].x[i] = in.keys[k].x[j * in.dims + i];
      }
    }
    auto approx = PiecewiseLinearFunction::Make(std::vector<Segment>(
        store->segments().begin(), store->segments().end()));
    ledger.Check(approx.ok() ? VerifyPrecision(signal, *approx,
                                               in.reference_eps)
                             : approx.status(),
                 ("precision of " + in.keys[k].key).c_str());
  }
}

// The archive file, read back cold, holds every key's reference chain.
void CheckArchiveFile(const Context& ctx, Ledger& ledger) {
  auto reader = SegmentArchiveReader::Open(ctx.archive_path);
  ledger.Check(reader.status(), "open archive file");
  if (!reader.ok()) return;
  ledger.Check(!(*reader)->torn_tail(), "archive file has a torn tail");
  CheckChains(
      ctx, [&](size_t k) { return (*reader)->Store(ctx.in.keys[k].key); },
      ledger);
}

uint32_t FileCrc(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::vector<uint8_t> buffer(1 << 20);
  uint32_t crc = 0;
  while (file) {
    file.read(reinterpret_cast<char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
    crc = Crc32c(std::span<const uint8_t>(
                     buffer.data(), static_cast<size_t>(file.gcount())),
                 crc);
  }
  return crc;
}

/// What a pipeline is built from, as Pipeline::Builder spec strings.
struct PipelineConfig {
  std::string filter;     // default filter spec
  std::string codec;      // wire codec spec
  std::string storage;    // storage spec; empty = the pipeline's default
  std::string transport;  // transport spec; empty = "inproc"
};

// A traced pipeline is the same Pipeline, its layers built by the timing
// registries.
Result<std::unique_ptr<Pipeline>> BuildPipeline(const PipelineConfig& config,
                                                bool traced) {
  Pipeline::Builder builder;
  builder.DefaultSpec(config.filter).Codec(config.codec);
  if (!config.storage.empty()) builder.Storage(config.storage);
  if (!config.transport.empty()) builder.Transport(config.transport);
  if (traced) {
    const TimedRegistries& timed = Timed();
    builder.WithRegistry(&timed.filters)
        .WithCodecRegistry(&timed.codecs)
        .WithStorageRegistry(&timed.storage)
        .WithTransportRegistry(&timed.transports);
  }
  return builder.Build();
}

WireCounters CountersOf(const Pipeline& pipeline) {
  const Pipeline::PipelineStats stats = pipeline.Stats();
  WireCounters counters;
  counters.wire_bytes =
      pipeline.remote() ? stats.transport.bytes_sent : stats.bytes_sent;
  counters.codec_bytes = stats.bytes_sent;
  counters.records = stats.records_sent;
  counters.frames = stats.frames_sent;
  counters.segments_held = stats.segments;
  counters.transport = stats.transport;
  return counters;
}

void AddCounters(WireCounters& into, const WireCounters& from) {
  into.wire_bytes += from.wire_bytes;
  into.codec_bytes += from.codec_bytes;
  into.records += from.records;
  into.frames += from.frames;
  into.segments_held += from.segments_held;
  into.transport.bytes_sent += from.transport.bytes_sent;
  into.transport.frames_sent += from.transport.frames_sent;
  into.transport.frames_resent += from.transport.frames_resent;
  into.transport.reconnects += from.transport.reconnects;
  into.transport.backpressure_stalls += from.transport.backpressure_stalls;
}

std::string FileStorageSpec(const std::string& path) {
  return "file(path=" + path + ",codec=delta)";
}

// One repetition of a single-threaded workload on a local pipeline.
Rep RunLocalRep(const Context& ctx, RunState& st, bool traced, bool first) {
  const Workload& w = ctx.w;
  const Inputs& in = ctx.in;
  Rep rep;
  rep.traced = traced;
  std::error_code ec;
  if (!ctx.prep_path.empty()) {
    std::filesystem::copy_file(
        ctx.prep_path, ctx.archive_path,
        std::filesystem::copy_options::overwrite_existing, ec);
  } else {
    std::filesystem::remove(ctx.archive_path, ec);
  }
  st.ledger.Check(!ec, "prepare the archive file");
  tls_tracer = traced ? &st.tracers[0] : nullptr;

  PipelineConfig config{w.filter, w.codec,
                        w.file_storage ? FileStorageSpec(ctx.archive_path)
                                       : "memory",
                        ""};
  const uint64_t setup_start = NowNs();
  auto built = BuildPipeline(config, traced);
  rep.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  st.ledger.Check(built.status(), "Build");
  if (!built.ok()) return rep;
  Pipeline& pipeline = **built;
  const StoreOf store_of = [&](size_t k) {
    return pipeline.Store(in.keys[k].key);
  };
  if (w.prep_points > 0) {
    for (size_t k = 0; k < in.keys.size(); ++k) {
      const SegmentStore* store = store_of(k);
      if (store != nullptr) rep.recovered_segments += store->segment_count();
    }
  }
  const double rss_base = first ? StatusBytes("VmRSS") : 0.0;
  const double bytes_base =
      static_cast<double>(pipeline.GetStorageBackend().bytes_written());

  CallData call(in.dims, w.batch, w.mode);
  Samples& append = st.append[0];
  append.Clear();
  uint64_t call_ns = 0;
  uint64_t query_ns = 0;
  size_t cursor = 0;
  double cpu_start = ProcessCpuSeconds();
  const uint64_t phase_start = NowNs();
  const size_t rounds = w.points / w.batch;
  for (size_t r = 0; r < rounds; ++r) {
    const size_t first_sample = w.prep_points + r * w.batch;
    for (size_t k = 0; k < in.keys.size(); ++k) {
      call.Fill(in.keys[k], first_sample, w.batch);
      const uint64_t a = NowNs();
      const Status status = call.Ingest(pipeline, in.keys[k].key);
      const uint64_t b = NowNs();
      append.Add(b - a);
      call_ns += b - a;
      st.ledger.Check(status, "ingest");
    }
    if ((r + 1) % w.flush_every == 0) {
      const uint64_t a = NowNs();
      Status status;
      {
        Span span(kStreamFlush);
        status = pipeline.Flush();
      }
      const uint64_t b = NowNs();
      if (!traced && !st.warmup) st.flush.Add(b - a);
      call_ns += b - a;
      st.ledger.Check(status, "Flush");
    }
    if (w.queries_per_flush > 0) {
      rep.cpu_s += ProcessCpuSeconds() - cpu_start;
      const uint64_t a = NowNs();
      RunQueries(ctx, w.queries_per_flush, cursor, store_of, st);
      query_ns += NowNs() - a;
      cpu_start = ProcessCpuSeconds();
    }
  }
  const uint64_t a = NowNs();
  Status finished;
  {
    Span span(kStreamFinish);
    finished = pipeline.Finish();
  }
  const uint64_t b = NowNs();
  call_ns += b - a;
  st.ledger.Check(finished, "Finish");
  rep.cpu_s += ProcessCpuSeconds() - cpu_start;
  rep.phase_s = static_cast<double>(b - phase_start - query_ns) / 1e9;
  rep.call_s = static_cast<double>(call_ns) / 1e9;
  rep.points = w.keys * w.points;
  rep.append_samples = append.size();
  rep.append_p50_ns = append.Percentile(0.50);
  rep.append_p99_ns = append.Percentile(0.99);
  tls_tracer = nullptr;

  RunQueries(ctx, w.final_queries, cursor, store_of, st);
  if (first) rep.rss_growth_bytes = StatusBytes("VmHWM") - rss_base;

  rep.wire = CountersOf(pipeline);
  rep.decode_frames = rep.wire.frames;
  for (size_t k = 0; k < in.keys.size(); ++k) {
    const SegmentStore* store = store_of(k);
    if (store != nullptr) rep.store_segments += store->segment_count();
  }
  // The memory backend's medium is RAM: the stored segments themselves.
  rep.archive_bytes =
      w.file_storage
          ? static_cast<double>(pipeline.GetStorageBackend().bytes_written()) -
                bytes_base
          : static_cast<double>(rep.store_segments * sizeof(Segment));
  CheckChains(ctx, store_of, st.ledger);
  if (first) CheckPrecision(ctx, store_of, st.ledger);
  return rep;
}

// One repetition of collector_fanin: remote pipelines on producer threads
// (the main thread is producer 0) into an in-process CollectorServer.
Rep RunCollectorRep(const Context& ctx, RunState& st, bool traced,
                    bool first) {
  const Workload& w = ctx.w;
  const Inputs& in = ctx.in;
  Rep rep;
  rep.traced = traced;
  std::error_code ec;
  std::filesystem::remove(ctx.archive_path, ec);
  std::filesystem::remove(ctx.socket_path, ec);

  CollectorServer::Options options;
  options.storage_spec = FileStorageSpec(ctx.archive_path);
  if (traced) {
    options.codec_registry = &Timed().codecs;
    options.storage_registry = &Timed().storage;
  }
  tls_tracer = traced ? &st.collector_tracer : nullptr;  // archive Open
  const uint64_t setup_start = NowNs();
  auto listened =
      CollectorServer::Listen("uds(path=" + ctx.socket_path + ")", options);
  tls_tracer = nullptr;
  st.ledger.Check(listened.status(), "CollectorServer::Listen");
  if (!listened.ok()) return rep;
  std::unique_ptr<CollectorServer> server = std::move(listened).value();
  Status serve_status = Status::OK();
  Tracer* serve_tracer = traced ? &st.collector_tracer : nullptr;
  std::thread serving([&] {
    tls_tracer = serve_tracer;
    serve_status = server->Serve();
  });

  tls_tracer = traced ? &st.tracers[0] : nullptr;
  const PipelineConfig config{w.filter, w.codec, "", server->endpoint()};
  std::vector<std::unique_ptr<Pipeline>> pipes;
  for (size_t q = 0; q < w.pipelines; ++q) {
    auto built = BuildPipeline(config, traced);
    st.ledger.Check(built.status(), "Build");
    if (!built.ok()) break;
    pipes.push_back(std::move(built).value());
  }
  rep.setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  tls_tracer = nullptr;

  if (pipes.size() == w.pipelines) {
    const size_t keys_per_pipe = w.keys / w.pipelines;
    const size_t pipes_per_thread = w.pipelines / w.producers;
    const size_t rounds = w.points;
    std::vector<Ledger> ledgers(w.producers);
    std::vector<uint64_t> call_ns(w.producers, 0);
    const auto produce = [&](size_t i) {
      tls_tracer = traced ? &st.tracers[i] : nullptr;
      Samples& append = st.append[i];
      Samples& flush = st.flush_scratch[i];
      append.Clear();
      flush.Clear();
      CallData call(in.dims, 1, IngestMode::kPoint);
      const size_t q0 = i * pipes_per_thread;
      const size_t q1 = q0 + pipes_per_thread;
      // Times one call; `samples` (may be null) gets its latency.
      const auto timed = [&](const auto& fn, Samples* samples,
                             const char* what) {
        const uint64_t a = NowNs();
        const Status status = fn();
        const uint64_t b = NowNs();
        if (samples != nullptr) samples->Add(b - a);
        call_ns[i] += b - a;
        ledgers[i].Check(status, what);
      };
      for (size_t r = 0; r < rounds; ++r) {
        for (size_t q = q0; q < q1; ++q) {
          for (size_t k = q * keys_per_pipe; k < (q + 1) * keys_per_pipe;
               ++k) {
            call.Fill(in.keys[k], r, 1);
            timed([&] { return call.Ingest(*pipes[q], in.keys[k].key); },
                  &append, "Append");
          }
        }
        if ((r + 1) % w.flush_every == 0) {
          for (size_t q = q0; q < q1; ++q) {
            timed(
                [&] {
                  Span span(kStreamFlush);
                  return pipes[q]->Flush();
                },
                &flush, "Flush");
          }
        }
      }
      for (size_t q = q0; q < q1; ++q) {
        // --self-test withhold_finish: pipeline 0 never sends its FINISH.
        if (q == 0 && ctx.args.self_test == "withhold_finish") continue;
        timed(
            [&] {
              Span span(kStreamFinish);
              return pipes[q]->Finish();
            },
            nullptr, "Finish");
      }
      tls_tracer = nullptr;
    };

    clockid_t serve_clock{};
    const bool have_serve_clock =
        pthread_getcpuclockid(serving.native_handle(), &serve_clock) == 0;
    const double serve_cpu_start =
        have_serve_clock ? ClockSeconds(serve_clock) : 0.0;
    const double rss_base = first ? StatusBytes("VmRSS") : 0.0;
    const double cpu_start = ProcessCpuSeconds();
    const uint64_t phase_start = NowNs();
    std::vector<std::thread> helpers;
    for (size_t i = 1; i < w.producers; ++i) helpers.emplace_back(produce, i);
    produce(0);
    for (std::thread& helper : helpers) helper.join();
    rep.phase_s = static_cast<double>(NowNs() - phase_start) / 1e9;
    rep.cpu_s = ProcessCpuSeconds() - cpu_start;
    if (have_serve_clock) {
      rep.collector_busy =
          (ClockSeconds(serve_clock) - serve_cpu_start) / rep.phase_s;
    }
    Samples& append = st.append[0];
    for (size_t i = 0; i < w.producers; ++i) {
      st.ledger.Merge(ledgers[i]);
      rep.call_s += static_cast<double>(call_ns[i]) / 1e9;
      if (i > 0) append.Append(st.append[i]);
      if (!traced && !st.warmup) st.flush.Append(st.flush_scratch[i]);
    }
    rep.points = w.keys * w.points;
    rep.append_samples = append.size();
    rep.append_p50_ns = append.Percentile(0.50);
    rep.append_p99_ns = append.Percentile(0.99);

    // Finish() returns once the collector ACKed the FINISH; the count is
    // re-read briefly in case the stats lag the ACK.
    size_t finished = 0;
    for (int attempt = 0; attempt < 500; ++attempt) {
      finished = server->GetStats().streams_finished;
      if (finished >= w.keys) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    st.ledger.Check(finished == w.keys,
                    "collector applied " + std::to_string(finished) + " of " +
                        std::to_string(w.keys) + " FINISH messages");

    const StoreOf store_of = [&](size_t k) {
      return server->Store(in.keys[k].key);
    };
    size_t cursor = 0;
    RunQueries(ctx, w.final_queries, cursor, store_of, st);
    if (first) rep.rss_growth_bytes = StatusBytes("VmHWM") - rss_base;

    for (const auto& pipe : pipes) AddCounters(rep.wire, CountersOf(*pipe));
    for (size_t k = 0; k < in.keys.size(); ++k) {
      const SegmentStore* store = store_of(k);
      if (store != nullptr) rep.store_segments += store->segment_count();
    }
    // Collector receivers hold every segment they archived.
    rep.wire.segments_held = rep.store_segments;
    const CollectorServer::Stats stats = server->GetStats();
    rep.decode_frames = stats.frames_applied;
    rep.collector_bytes = stats.bytes_received;
    rep.archive_bytes = static_cast<double>(server->storage().bytes_written());
    CheckChains(ctx, store_of, st.ledger);
    if (first) CheckPrecision(ctx, store_of, st.ledger);
  }

  pipes.clear();  // closes the producer connections
  server->Shutdown();
  serving.join();
  st.ledger.Check(serve_status, "CollectorServer::Serve");
  server.reset();  // closes the archive file
  return rep;
}

// Writes restart_query's prep archive (untimed) in a child process, so the
// memory the writing pipeline takes never counts toward this process's
// peak RSS.
Status WritePrepArchive(const Context& ctx) {
  const Workload& w = ctx.w;
  std::error_code ec;
  std::filesystem::remove(ctx.prep_path, ec);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    auto built = BuildPipeline(
        {w.filter, w.codec, FileStorageSpec(ctx.prep_path), ""}, false);
    bool ok = built.ok();
    if (ok) {
      CallData call(ctx.in.dims, w.batch, w.mode);
      for (size_t first = 0; ok && first < w.prep_points; first += w.batch) {
        for (const KeyInput& key : ctx.in.keys) {
          call.Fill(key, first, w.batch);
          ok = ok && call.Ingest(**built, key.key).ok();
        }
      }
      ok = ok && (*built)->Finish().ok();
    }
    std::_Exit(ok ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal("writing the prep archive failed");
  }
  return Status::OK();
}

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// Time per point over `reps`: the ingest calls of all threads.
double CallNsPerPoint(const std::vector<const Rep*>& reps) {
  double call_s = 0.0;
  double points = 0.0;
  for (const Rep* rep : reps) {
    call_s += rep->call_s;
    points += static_cast<double>(rep->points);
  }
  return Ratio(call_s * 1e9, points);
}

std::vector<Metric> EndToEndMetrics(const Context& ctx, RunState& st) {
  std::vector<double> setup, rate, cpu, p50;
  const Rep* first = nullptr;
  for (const Rep& rep : st.reps) {
    if (rep.warmup) first = &rep;
    if (rep.traced || rep.warmup) continue;
    const double points = static_cast<double>(rep.points);
    setup.push_back(rep.setup_s);
    // Concurrent producers: points over the phase's wall time.
    rate.push_back(Ratio(points,
                         ctx.w.producers > 0 ? rep.phase_s : rep.call_s));
    cpu.push_back(Ratio(rep.cpu_s * 1e9, points));
    p50.push_back(rep.append_p50_ns / 1e3);
  }
  const Rep none;
  if (first == nullptr) first = &none;
  Samples query = st.query_aggregate;
  query.Append(st.query_value_at);
  const double points = static_cast<double>(first->points);
  return {
      {"setup_s", Median(setup), "s"},
      {"points_per_s", Median(rate), "pts/s"},
      {"cpu_ns_per_point", Median(cpu), "ns"},
      {"append_p50_us", Median(p50), "us"},
      {"flush_p50_ms", st.flush.Percentile(0.50) / 1e6, "ms"},
      {"query_p50_us", query.Percentile(0.50) / 1e3, "us"},
      {"wire_bytes_per_point",
       Ratio(static_cast<double>(first->wire.wire_bytes), points), "B"},
      {"archive_bytes_per_point", Ratio(first->archive_bytes, points), "B"},
      {"rss_growth_mb", first->rss_growth_bytes / (1024.0 * 1024.0), "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const Context& ctx, RunState& st) {
  std::vector<const Rep*> traced, untraced;
  const Rep* first = nullptr;
  for (const Rep& rep : st.reps) {
    if (rep.warmup) {
      first = &rep;
      continue;
    }
    (rep.traced ? traced : untraced).push_back(&rep);
  }
  const double reps = static_cast<double>(std::max<size_t>(1, traced.size()));
  double points = 0, records = 0, codec_bytes = 0, frames = 0, decoded = 0,
         archive_bytes = 0, held = 0, recovered = 0, busy = 0,
         collector_frames = 0, collector_bytes = 0, transport_frames = 0,
         stalls = 0, resent = 0;
  for (const Rep* rep : traced) {
    points += static_cast<double>(rep->points);
    records += static_cast<double>(rep->wire.records);
    codec_bytes += static_cast<double>(rep->wire.codec_bytes);
    frames += static_cast<double>(rep->wire.frames);
    decoded += static_cast<double>(rep->decode_frames);
    archive_bytes += rep->archive_bytes;
    held += static_cast<double>(rep->wire.segments_held);
    recovered += static_cast<double>(rep->recovered_segments);
    busy += rep->collector_busy;
    if (ctx.w.producers > 0) {
      collector_frames += static_cast<double>(rep->decode_frames);
    }
    collector_bytes += static_cast<double>(rep->collector_bytes);
    transport_frames += static_cast<double>(rep->wire.transport.frames_sent);
    stalls += static_cast<double>(rep->wire.transport.backpressure_stalls);
    resent += static_cast<double>(rep->wire.transport.frames_resent);
  }
  Tracer all = st.producer_total;
  all.Merge(st.collector_total);
  const SpanCost& cost = st.span_cost;
  const auto self_per_point = [&](Layer layer) {
    return Ratio(all.LayerSelfNs(layer, cost), points);
  };
  // The producer-side spans of ingest, Flush and Finish partition the
  // traced call time (set-up spans lie outside it); what they leave of the
  // untraced time per point is unattributed.
  double producer_self = 0.0;
  for (int op = 0; op < kNumOps; ++op) {
    if (op == kStorageOpen || op == kTransportConnect) continue;
    producer_self += st.producer_total.SelfNs(static_cast<Op>(op), cost);
  }
  const double untraced_ns = CallNsPerPoint(untraced);
  const double traced_ns = CallNsPerPoint(traced);
  std::fprintf(stderr,
               "trace: layer self time %.1f ns/pt, traced calls %.1f ns/pt, "
               "untraced calls %.1f ns/pt (layer sum / untraced = %.3f)\n",
               Ratio(producer_self, points), traced_ns, untraced_ns,
               Ratio(Ratio(producer_self, points), untraced_ns));

  const double total_points =
      static_cast<double>(ctx.w.keys * (ctx.w.prep_points + ctx.w.points));
  const double appends = static_cast<double>(all.calls[kStorageAppend]);
  Samples storage_flush = all.storage_flush;
  Samples transport_flush = all.transport_flush;
  // Call-level tails, from the untraced repetitions: too unsteady from run
  // to run on a shared machine to carry an end-to-end bound.
  std::vector<double> append_p99;
  for (const Rep* rep : untraced) append_p99.push_back(rep->append_p99_ns / 1e3);
  Samples query = st.query_aggregate;
  query.Append(st.query_value_at);
  const double us_per_tick = NsPerTick() / 1e3;
  return {
      {"filter.self_ns_per_point", self_per_point(kLayerFilter), "ns"},
      {"filter.points_per_segment",
       Ratio(total_points, static_cast<double>(ctx.in.reference_segments)),
       "ratio"},
      {"filter.segments", static_cast<double>(ctx.in.reference_segments),
       "count"},
      {"stream.self_ns_per_point", self_per_point(kLayerStream), "ns"},
      {"stream.self_ns_per_call",
       Ratio(all.LayerSelfNs(kLayerStream, cost),
             static_cast<double>(all.LayerCalls(kLayerStream))),
       "ns"},
      {"encode.self_ns_per_point", self_per_point(kLayerEncode), "ns"},
      {"encode.ns_per_record",
       Ratio(all.LayerSelfNs(kLayerEncode, cost), records),
       "ns"},
      {"encode.records", records / reps, "count"},
      {"encode.frames", frames / reps, "count"},
      {"encode.bytes_per_record", Ratio(codec_bytes, records), "B"},
      {"decode.self_ns_per_point", self_per_point(kLayerDecode), "ns"},
      {"decode.ns_per_frame",
       Ratio(all.LayerSelfNs(kLayerDecode, cost), decoded),
       "ns"},
      {"decode.segments_held", held / reps, "count"},
      {"storage.self_ns_per_point", self_per_point(kLayerStorage), "ns"},
      {"storage.append_ns_per_segment",
       Ratio(all.SelfNs(kStorageAppend, cost), appends), "ns"},
      {"storage.bytes_per_segment", Ratio(archive_bytes, appends), "B"},
      {"storage.flush_mean_us", storage_flush.Mean() * us_per_tick, "us"},
      {"storage.flush_p99_us", storage_flush.Percentile(0.99) * us_per_tick,
       "us"},
      {"storage.open_ms", all.SelfNs(kStorageOpen, cost) / reps / 1e6, "ms"},
      {"storage.recovered_segments", recovered / reps, "count"},
      {"transport.self_ns_per_point", self_per_point(kLayerTransport), "ns"},
      {"transport.flush_mean_us", transport_flush.Mean() * us_per_tick, "us"},
      {"transport.flush_p99_us", transport_flush.Percentile(0.99) * us_per_tick,
       "us"},
      {"transport.frames_sent", transport_frames / reps, "count"},
      {"transport.backpressure_stalls", stalls / reps, "count"},
      {"transport.frames_resent", resent / reps, "count"},
      {"store.aggregate_ns", st.query_aggregate.Mean(), "ns"},
      {"store.value_at_ns", st.query_value_at.Mean(), "ns"},
      {"store.segments_touched_per_query",
       Ratio(st.segments_touched, static_cast<double>(st.aggregates_checked)),
       "count"},
      {"store.rss_bytes_per_segment",
       first == nullptr ? 0.0
                        : Ratio(first->rss_growth_bytes,
                                static_cast<double>(first->store_segments)),
       "B"},
      {"collector.busy_frac", busy / reps, "ratio"},
      {"collector.frames_applied", collector_frames / reps, "count"},
      {"collector.bytes_received", collector_bytes / reps, "B"},
      {"tail.append_p99_us", Median(append_p99), "us"},
      {"tail.flush_p99_ms", st.flush.Percentile(0.99) / 1e6, "ms"},
      {"tail.query_p99_us", query.Percentile(0.99) / 1e3, "us"},
      {"trace.unattributed_ns_per_point",
       untraced_ns - Ratio(producer_self, points), "ns"},
      {"trace.overhead_frac", Ratio(traced_ns, untraced_ns) - 1.0, "ratio"},
  };
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += ledger.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted);
  line += ", \"failed\": " + std::to_string(ledger.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// --- main --------------------------------------------------------------------

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Usage(("unknown workload " + args.workload).c_str());

  Context ctx;
  ctx.w = args.smoke ? Smoke(*found) : *found;
  ctx.args = args;
  const Workload& w = ctx.w;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  ctx.archive_path = args.workdir + "/" + w.name + ".plar";
  ctx.socket_path = args.workdir + "/collector.sock";
  if (w.prep_points > 0) ctx.prep_path = args.workdir + "/prep.plar";

  const uint64_t origin = NowNs();
  const uint64_t origin_ticks = Ticks();
  auto inputs = MakeInputs(w, args);
  if (!inputs.ok()) {
    std::fprintf(stderr, "bench_e2e: generating inputs failed: %s\n",
                 inputs.status().ToString().c_str());
    return 1;
  }
  ctx.in = std::move(inputs).value();
  if (!ctx.prep_path.empty()) {
    const Status prep = WritePrepArchive(ctx);
    if (!prep.ok()) {
      std::fprintf(stderr, "bench_e2e: %s\n", prep.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "%s: inputs, reference and prep took %.2f s\n", w.name,
               static_cast<double>(NowNs() - origin) / 1e9);

  const size_t threads = std::max<size_t>(1, w.producers);
  RunState st(threads);
  for (Samples& samples : st.append) {
    samples.Preallocate(w.keys * (w.points / w.batch) / threads * threads);
  }
  st.flush.Preallocate(1 << 16);
  st.query_aggregate.Preallocate(1 << 17);
  st.query_value_at.Preallocate(1 << 17);
  if (args.trace) {
    st.span_cost = Tracer::Calibrate();
    std::fprintf(stderr, "trace: a span costs %.1f + %.1f ns\n",
                 st.span_cost.inner * NsPerTick(),
                 st.span_cost.outer * NsPerTick());
  }

  // Repetitions until --seconds of them have run (at least one of each kind
  // the run reports); a --trace 1 run alternates untraced and traced ones.
  const size_t min_reps = args.trace ? 3 : 2;
  double measured = 0.0;
  for (size_t i = 0; i < min_reps || measured < args.seconds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const bool first = i == 0;
    st.warmup = first;
    const uint64_t start = NowNs();
    Rep rep = w.producers > 0 ? RunCollectorRep(ctx, st, traced, first)
                              : RunLocalRep(ctx, st, traced, first);
    measured += static_cast<double>(NowNs() - start) / 1e9;
    std::fprintf(stderr,
                 "%s: repetition %zu%s: set-up %.6f s, %.4g pts/s in calls, "
                 "%.1f cpu ns/pt\n",
                 w.name, i, traced ? " (traced)" : "", rep.setup_s,
                 Ratio(static_cast<double>(rep.points),
                       w.producers > 0 ? rep.phase_s : rep.call_s),
                 Ratio(rep.cpu_s * 1e9, static_cast<double>(rep.points)));
    if (traced) {
      for (size_t t = 0; t < st.tracers.size(); ++t) {
        st.producer_total.Merge(st.tracers[t]);
        st.tracers[t] = Tracer(static_cast<uint32_t>(t));
      }
      st.collector_total.Merge(st.collector_tracer);
      st.collector_tracer = Tracer(99);
    }
    if (w.file_storage && w.producers == 0) {
      // Single-threaded archives are deterministic: every repetition,
      // traced or not, must write the same bytes.
      const uint32_t crc = FileCrc(ctx.archive_path);
      if (!st.archive_crc.has_value()) st.archive_crc = crc;
      st.ledger.Check(crc == *st.archive_crc,
                      "archive bytes differ between repetitions");
    }
    if (first && w.file_storage) CheckArchiveFile(ctx, st.ledger);
    rep.warmup = first;
    st.reps.push_back(rep);
    if (rep.points == 0) break;  // set-up failed; the ledger says why
  }

  size_t untraced = 0;
  for (const Rep& rep : st.reps) untraced += rep.traced ? 0 : 1;
  std::fprintf(stderr,
               "%s: %zu repetitions (%zu untraced, the first a warm-up) in "
               "%.2f s; samples per "
               "repetition: %zu ingest calls; pooled: %zu flushes, %zu "
               "queries\n",
               w.name, st.reps.size(), untraced, measured,
               st.reps.empty() ? size_t{0} : st.reps.front().append_samples,
               st.flush.size(),
               st.query_aggregate.size() + st.query_value_at.size());

  const std::vector<Metric> metrics =
      args.trace ? LayerMetrics(ctx, st) : EndToEndMetrics(ctx, st);
  if (!args.trace_out.empty()) {
    std::vector<SpanRecord> spans = st.producer_total.spans;
    spans.insert(spans.end(), st.collector_total.spans.begin(),
                 st.collector_total.spans.end());
    if (!WriteChromeTrace(args.trace_out.c_str(), spans, origin_ticks)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  std::filesystem::remove(ctx.archive_path, ec);
  std::filesystem::remove(ctx.socket_path, ec);
  if (!ctx.prep_path.empty()) std::filesystem::remove(ctx.prep_path, ec);

  PrintResult(st.ledger, metrics);
  return st.ledger.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace plastream::e2e

int main(int argc, char** argv) { return plastream::e2e::Run(argc, argv); }
