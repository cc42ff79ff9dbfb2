// Copyright (c) 2026 The plastream Authors. MIT license.

#include "tests/harness/harness.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/simd.h"
#include "transport/collector_server.h"

namespace plastream {
namespace harness {
namespace {

// Unique scratch paths for file-storage archives and uds sockets; pid +
// counter keeps parallel ctest invocations apart.
std::string ScratchPath(const char* stem, const char* suffix) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(n) + suffix))
      .string();
}

// Removes a scratch file on scope exit, success or failure.
class ScopedRemove {
 public:
  explicit ScopedRemove(std::string path) : path_(std::move(path)) {}
  ~ScopedRemove() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(path_, ec);
    }
  }
  ScopedRemove(const ScopedRemove&) = delete;
  ScopedRemove& operator=(const ScopedRemove&) = delete;

 private:
  std::string path_;
};

// Runs a CollectorServer's poll loop on its own thread for the scope of
// one uds-variant run (Listen() only binds; Serve() is the loop).
class ScopedServe {
 public:
  explicit ScopedServe(CollectorServer* server)
      : server_(server), thread_([this] { serve_status_ = server_->Serve(); }) {}
  ~ScopedServe() {
    server_->Shutdown();
    thread_.join();
  }
  ScopedServe(const ScopedServe&) = delete;
  ScopedServe& operator=(const ScopedServe&) = delete;

 private:
  CollectorServer* server_;
  Status serve_status_ = Status::OK();
  std::thread thread_;
};

// Flips simd::SetForceScalar for one run and always restores it.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool on) : active_(on) {
    if (active_) simd::SetForceScalar(true);
  }
  ~ScopedForceScalar() {
    if (active_) simd::SetForceScalar(false);
  }
  ScopedForceScalar(const ScopedForceScalar&) = delete;
  ScopedForceScalar& operator=(const ScopedForceScalar&) = delete;

 private:
  bool active_;
};

Status AnnotateVariant(const PipelineVariant& variant, const Status& inner) {
  if (inner.ok()) return inner;
  return Status(inner.code(),
                "variant '" + variant.name + "': " + inner.message());
}

// Accounting invariants that hold on every variant: the pipeline admits
// exactly the truth points, and the guard counters match what the
// generator injected (every injection is exactly repairable).
Status CheckAccounting(const Scenario& scenario,
                       const Pipeline::PipelineStats& stats) {
  const auto fail = [](std::string_view what, size_t got, size_t want) {
    return Status::FailedPrecondition(std::string(what) + ": got " +
                                      std::to_string(got) + ", expected " +
                                      std::to_string(want));
  };
  if (stats.points != scenario.ExpectedPoints()) {
    return fail("admitted points", stats.points, scenario.ExpectedPoints());
  }
  const IngestGuardStats& guard = stats.ingest;
  if (guard.late_dropped != 0) {
    return fail("late_dropped (all lateness fits the window)",
                guard.late_dropped, 0);
  }
  if (guard.reordered != scenario.injected_late) {
    return fail("reordered", guard.reordered, scenario.injected_late);
  }
  if (guard.dups_resolved != scenario.injected_dups) {
    return fail("dups_resolved", guard.dups_resolved, scenario.injected_dups);
  }
  if (guard.nan_skipped + guard.nan_gaps != scenario.injected_nans) {
    return fail("nan_skipped + nan_gaps", guard.nan_skipped + guard.nan_gaps,
                scenario.injected_nans);
  }
  if (guard.gaps_cut != scenario.injected_gaps) {
    return fail("gaps_cut", guard.gaps_cut, scenario.injected_gaps);
  }
  return Status::OK();
}

}  // namespace

std::vector<PipelineVariant> VariantsFor(uint64_t seed) {
  std::vector<PipelineVariant> variants;
  variants.push_back({"shards1-frame-memory", 1, false, "frame", false, false});
  variants.push_back(
      {"shards3-delta-threaded", 3, true, "delta(varint=true)", false, false});
  // Ingest-mode legs: the batch and columnar paths must match the
  // point-mode reference byte-for-byte on every scenario; the forced-
  // scalar leg proves the Pack instantiation of each lane kernel matches
  // its 1-lane instantiation.
  {
    PipelineVariant batch{"shards1-frame-batch", 1, false, "frame",
                          false,                 false};
    batch.ingest = IngestMode::kBatch;
    variants.push_back(batch);
    PipelineVariant columnar{"shards1-frame-columnar", 1, false, "frame",
                             false,                    false};
    columnar.ingest = IngestMode::kColumnar;
    variants.push_back(columnar);
    if (seed % 2 == 0) {
      PipelineVariant scalar{"shards1-frame-batch-scalar", 1, false, "frame",
                             false,                        false};
      scalar.ingest = IngestMode::kBatch;
      scalar.force_scalar = true;
      variants.push_back(scalar);
    }
  }
  if (seed % 4 == 0) {
    variants.push_back(
        {"shards2-batch-file", 2, false, "batch(n=7)", true, false});
  }
  if (seed % 8 == 0) {
    variants.push_back({"shards2-frame-uds", 2, false, "frame", false, true});
  }
  if (seed % 8 == 4) {
    // The chaos leg: the same uds pipeline under a seeded fault schedule
    // (short I/O, transient socket errors). Reconnect-and-resume plus
    // seq-dedup must keep it byte-identical to the fault-free reference.
    PipelineVariant faulty{"shards2-frame-uds-faults", 2,     false,
                           "frame",                    false, true};
    faulty.fault_plan = "faults(seed=" + std::to_string(seed) +
                        ",short_io=0.25,err_rate=0.04)";
    variants.push_back(faulty);
  }
  return variants;
}

Result<RunOutput> RunScenario(const Scenario& scenario,
                              const PipelineVariant& variant) {
  // Optional legs: a file-backed archive and a uds collector.
  std::string archive_path;
  if (variant.file_storage) {
    archive_path = ScratchPath("plastream-prop", ".plar");
  }
  const ScopedRemove archive_cleanup(archive_path);

  std::unique_ptr<CollectorServer> server;
  std::unique_ptr<ScopedServe> serving;
  std::string socket_path;
  if (variant.uds_transport) {
    socket_path = ScratchPath("plastream-prop", ".sock");
    PLASTREAM_ASSIGN_OR_RETURN(
        server, CollectorServer::Listen("uds(path=" + socket_path + ")",
                                        CollectorServer::Options{}));
    serving = std::make_unique<ScopedServe>(server.get());
  }
  const ScopedRemove socket_cleanup(socket_path);

  // The fault leg: install the variant's seeded schedule before the
  // producer dials so connects, reads and writes on both sides run under
  // it. Destroyed (restoring the previous schedule) before the collector
  // is shut down and drained.
  std::optional<ScopedFaultInjection> faults;
  if (!variant.fault_plan.empty()) {
    PLASTREAM_ASSIGN_OR_RETURN(const FaultPlan plan,
                               FaultPlan::Parse(variant.fault_plan));
    faults.emplace(plan);
  }

  Pipeline::Builder builder;
  for (const ScenarioStream& stream : scenario.streams) {
    builder.PerKeySpec(stream.key, stream.spec);
  }
  builder.Ingest(scenario.policy.Format())
      .Codec(variant.codec)
      .Shards(variant.shards);
  if (variant.threaded) builder.Threads();
  if (variant.file_storage) {
    builder.Storage("file(path=" + archive_path + ")");
  }
  if (variant.uds_transport) {
    std::string endpoint = server->endpoint();
    if (faults.has_value()) {
      // Injected transient errors break connections on purpose; give the
      // producer a deep, fast redial budget so the run exercises
      // reconnect-and-resume instead of timing out.
      endpoint.insert(endpoint.size() - 1,
                      ",retries=300,backoff_ms=1,backoff_max_ms=8,"
                      "connect_timeout_ms=5000");
    }
    builder.Transport(endpoint);
  }
  PLASTREAM_ASSIGN_OR_RETURN(std::unique_ptr<Pipeline> pipeline,
                             builder.Build());

  // The forced-scalar leg runs every kernel at one lane for the duration
  // of this run only (a process-wide switch).
  const ScopedForceScalar scalar_guard(variant.force_scalar);

  if (variant.ingest == IngestMode::kPoint) {
    for (const Arrival& arrival : scenario.arrivals) {
      const Status appended =
          pipeline->Append(scenario.streams[arrival.stream].key, arrival.point);
      if (!appended.ok()) {
        return Status(appended.code(),
                      "append t=" + std::to_string(arrival.point.t) + " key '" +
                          scenario.streams[arrival.stream].key +
                          "': " + appended.message());
      }
    }
  } else {
    // Feed maximal same-key runs of the interleaved sequence as batches,
    // preserving each key's exact arrival order.
    std::vector<DataPoint> run;
    std::vector<double> ts;
    std::vector<double> vals;
    for (size_t i = 0; i < scenario.arrivals.size();) {
      const size_t stream = scenario.arrivals[i].stream;
      size_t end = i + 1;
      while (end < scenario.arrivals.size() &&
             scenario.arrivals[end].stream == stream) {
        ++end;
      }
      const std::string& key = scenario.streams[stream].key;
      Status appended = Status::OK();
      if (variant.ingest == IngestMode::kBatch) {
        run.clear();
        for (size_t j = i; j < end; ++j) run.push_back(scenario.arrivals[j].point);
        appended = pipeline->AppendBatch(key, run);
      } else {
        const size_t n = end - i;
        const size_t dims = scenario.arrivals[i].point.x.size();
        ts.clear();
        vals.assign(n * dims, 0.0);
        for (size_t j = i; j < end; ++j) {
          const DataPoint& point = scenario.arrivals[j].point;
          ts.push_back(point.t);
          for (size_t dim = 0; dim < dims; ++dim) {
            vals[dim * n + (j - i)] = point.x[dim];
          }
        }
        appended = pipeline->AppendBatch(key, ts, vals);
      }
      if (!appended.ok()) {
        return Status(appended.code(),
                      "batch append at t=" +
                          std::to_string(scenario.arrivals[i].point.t) +
                          " key '" + key + "': " + appended.message());
      }
      i = end;
    }
  }
  PLASTREAM_RETURN_NOT_OK(pipeline->Finish());

  RunOutput output;
  output.stats = pipeline->Stats();
  for (const ScenarioStream& stream : scenario.streams) {
    auto segments = variant.uds_transport ? server->Segments(stream.key)
                                          : pipeline->Segments(stream.key);
    if (!segments.ok()) {
      return Status(segments.status().code(), "segments for key '" +
                                                  stream.key + "': " +
                                                  segments.status().message());
    }
    output.segments.push_back(std::move(segments).value());
  }
  return output;
}

Status CheckScenario(const Scenario& scenario,
                     const std::vector<PipelineVariant>& variants) {
  const auto annotate = [&scenario](const Status& inner) {
    if (inner.ok()) return inner;
    return Status(inner.code(),
                  "[" + scenario.Describe() + "] " + inner.message());
  };
  if (variants.empty()) {
    return annotate(Status::InvalidArgument("no pipeline variants"));
  }

  auto reference = RunScenario(scenario, variants.front());
  if (!reference.ok()) {
    return annotate(AnnotateVariant(variants.front(), reference.status()));
  }
  PLASTREAM_RETURN_NOT_OK(annotate(AnnotateVariant(
      variants.front(), CheckAccounting(scenario, reference.value().stats))));
  for (size_t s = 0; s < scenario.streams.size(); ++s) {
    PLASTREAM_RETURN_NOT_OK(annotate(
        AnnotateVariant(variants.front(),
                        CheckStreamInvariants(scenario.streams[s],
                                              reference.value().segments[s]))));
  }

  for (size_t v = 1; v < variants.size(); ++v) {
    auto run = RunScenario(scenario, variants[v]);
    if (!run.ok()) {
      return annotate(AnnotateVariant(variants[v], run.status()));
    }
    PLASTREAM_RETURN_NOT_OK(annotate(AnnotateVariant(
        variants[v], CheckAccounting(scenario, run.value().stats))));
    for (size_t s = 0; s < scenario.streams.size(); ++s) {
      PLASTREAM_RETURN_NOT_OK(annotate(AnnotateVariant(
          variants[v],
          CheckSegmentsIdentical(scenario.streams[s].key,
                                 run.value().segments[s], variants[v].name,
                                 reference.value().segments[s],
                                 variants.front().name))));
    }
  }
  return Status::OK();
}

Status CheckSeed(uint64_t seed) {
  const Scenario scenario = GenerateScenario(seed);
  return CheckScenario(scenario, VariantsFor(seed));
}

}  // namespace harness
}  // namespace plastream
