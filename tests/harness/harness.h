// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The property-based conformance harness: runs a generated Scenario
// through a matrix of pipeline configurations (shards x threading x wire
// codec x storage backend x transport) and checks every conformance
// invariant (tests/harness/invariants.h) on every run — including
// byte-identity of each key's segment chain across all variants.
//
// Entry point for tests:
//
//   Status st = harness::CheckSeed(seed);
//   ASSERT_TRUE(st.ok()) << st.message();   // message embeds the seed
//
// Every failure message starts with the scenario description (seed,
// policy, stream specs, injection counts), so any red run names its
// exact repro: rerun with PLASTREAM_PROPERTY_BASE_SEED=<seed>
// PLASTREAM_PROPERTY_SEEDS=1.

#ifndef PLASTREAM_TESTS_HARNESS_HARNESS_H_
#define PLASTREAM_TESTS_HARNESS_HARNESS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "stream/pipeline.h"
#include "tests/harness/invariants.h"
#include "tests/harness/scenario.h"

namespace plastream {
namespace harness {

// How a variant feeds the scenario's arrivals to the pipeline. Batch and
// columnar modes group maximal same-key runs of the interleaved arrival
// sequence, preserving each key's arrival order exactly, so all three
// modes must produce byte-identical segments.
enum class IngestMode {
  kPoint,     // Pipeline::Append, one arrival at a time
  kBatch,     // Pipeline::AppendBatch over same-key runs
  kColumnar,  // columnar AppendBatch(ts, vals) over the same runs
};

// One pipeline configuration of the conformance matrix.
struct PipelineVariant {
  std::string name;            // names the variant in failure messages
  size_t shards = 1;
  bool threaded = false;
  std::string codec = "frame";
  bool file_storage = false;   // archive to a temp file instead of memory
  bool uds_transport = false;  // ship frames to a uds CollectorServer
  IngestMode ingest = IngestMode::kPoint;
  // When non-empty, a FaultPlan spec (common/fault_injection.h) installed
  // for the duration of the run: socket faults force reconnect/resend
  // paths, and the run must STILL be byte-identical to the fault-free
  // reference variant.
  std::string fault_plan;
  // Runs the families' lane kernels at one lane (simd::SetForceScalar)
  // for the duration of the run, so the matrix proves the Pack and 1-lane
  // instantiations of each kernel byte-identical on every scenario it
  // covers.
  bool force_scalar = false;
};

// The matrix for `seed`: the point-mode reference plus batch and columnar
// SIMD legs on every seed, the forced-scalar batch leg every 2nd seed,
// the file-storage leg every 4th, the uds-transport leg every 8th, and a
// uds leg under a seeded FaultPlan (short reads/writes, transient socket
// errors) on the other half of every 8th — so sustained runs still sweep
// the full spread without paying socket and disk setup on every scenario.
std::vector<PipelineVariant> VariantsFor(uint64_t seed);

// The observable output of one scenario run.
struct RunOutput {
  // Per-stream segment chains, aligned with Scenario::streams.
  std::vector<std::vector<Segment>> segments;
  Pipeline::PipelineStats stats;
};

// Feeds the scenario's arrivals through one pipeline variant and collects
// each stream's segments (from the collector when the variant ships over
// a transport). Errors if any append, flush or finish fails — generated
// scenarios are constructed to be error-free under their policy.
Result<RunOutput> RunScenario(const Scenario& scenario,
                              const PipelineVariant& variant);

// Runs the scenario through every variant and checks all invariants:
// per-stream chain validity and the L-infinity contract on the reference
// variant, admitted-point and guard-counter accounting on every variant,
// and per-key byte-identity of every variant against the reference. The
// failure message embeds scenario.Describe().
Status CheckScenario(const Scenario& scenario,
                     const std::vector<PipelineVariant>& variants);

// GenerateScenario + CheckScenario(VariantsFor) for one seed.
Status CheckSeed(uint64_t seed);

}  // namespace harness
}  // namespace plastream

#endif  // PLASTREAM_TESTS_HARNESS_HARNESS_H_
