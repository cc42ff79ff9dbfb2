// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The seeded fault-injection subsystem and the robustness behavior it
// drives: FaultPlan spec parsing and determinism, the socket and file
// hook points, and the file backend's on_error policies — a full
// ENOSPC-degrade-and-resume cycle whose archive stays readable, and the
// fail policy's sticky, IsDiskFull-classifiable error.

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "plastream.h"
#include "storage/archive_format.h"
#include "transport/socket_util.h"

namespace plastream {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "plastream_faults_" + name + "_" +
         std::to_string(::getpid()) + ".plar";
}

Segment DisconnectedSegment(double t0) {
  Segment segment;
  segment.t_start = t0;
  segment.t_end = t0 + 0.5;
  segment.x_start = {t0};
  segment.x_end = {t0 + 1.0};
  segment.connected_to_prev = false;
  return segment;
}

// --- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlanTest, ParsesAndRoundTrips) {
  const auto plan = FaultPlan::Parse(
      "faults(seed=42,short_io=0.25,err_rate=0.05,enospc_after=64,"
      "enospc_for=3,delay_ms=2,delay_rate=0.5)");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_DOUBLE_EQ(plan->short_io, 0.25);
  EXPECT_DOUBLE_EQ(plan->err_rate, 0.05);
  EXPECT_EQ(plan->enospc_after, 64u);
  EXPECT_EQ(plan->enospc_for, 3u);
  EXPECT_EQ(plan->delay_ms, 2u);
  EXPECT_DOUBLE_EQ(plan->delay_rate, 0.5);
  EXPECT_TRUE(plan->Enabled());
  const auto reparsed = FaultPlan::Parse(plan->Format());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed->Format(), plan->Format());
}

TEST(FaultPlanTest, DefaultsAreInert) {
  const auto plan = FaultPlan::Parse("faults(seed=7)");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Enabled());
  // No decision ever perturbs anything under an inert plan.
  FaultInjector injector(*plan);
  for (int i = 0; i < 64; ++i) {
    const FaultDecision decision =
        injector.Next(FaultSite::kSocketRead, 4096);
    EXPECT_FALSE(decision.fail);
    EXPECT_FALSE(decision.no_space);
    EXPECT_EQ(decision.clamp_len, 0u);
    EXPECT_EQ(decision.delay_ms, 0u);
  }
}

TEST(FaultPlanTest, DelayRateDefaultsWhenDelaySet) {
  const auto plan = FaultPlan::Parse("faults(delay_ms=5)");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->delay_rate, 0.01);
  EXPECT_TRUE(plan->Enabled());
}

TEST(FaultPlanTest, RejectsGarbage) {
  EXPECT_EQ(FaultPlan::Parse("chaos(seed=1)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("faults(volume=11)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("faults(err_rate=1.5)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("faults(short_io=-0.1)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FaultPlan::Parse("faults(seed=banana)").status().code(),
            StatusCode::kInvalidArgument);
}

// --- determinism ------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.short_io = 0.3;
  plan.err_rate = 0.1;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 512; ++i) {
    const FaultDecision da = a.Next(FaultSite::kSocketWrite, 4096);
    const FaultDecision db = b.Next(FaultSite::kSocketWrite, 4096);
    EXPECT_EQ(da.fail, db.fail) << "op " << i;
    EXPECT_EQ(da.clamp_len, db.clamp_len) << "op " << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedsDifferentSchedules) {
  FaultPlan plan_a;
  plan_a.err_rate = 0.5;
  plan_a.seed = 1;
  FaultPlan plan_b = plan_a;
  plan_b.seed = 2;
  FaultInjector a(plan_a);
  FaultInjector b(plan_b);
  int differing = 0;
  for (int i = 0; i < 256; ++i) {
    if (a.Next(FaultSite::kSocketRead, 64).fail !=
        b.Next(FaultSite::kSocketRead, 64).fail) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, SitesHaveIndependentCounters) {
  FaultPlan plan;
  plan.enospc_after = 2;
  plan.enospc_for = 1;
  FaultInjector injector(plan);
  // Socket traffic does not consume the file-write schedule.
  for (int i = 0; i < 16; ++i) injector.Next(FaultSite::kSocketRead, 64);
  EXPECT_FALSE(injector.Next(FaultSite::kFileWrite, 64).no_space);  // 0
  EXPECT_FALSE(injector.Next(FaultSite::kFileWrite, 64).no_space);  // 1
  EXPECT_TRUE(injector.Next(FaultSite::kFileWrite, 64).no_space);   // 2
  EXPECT_FALSE(injector.Next(FaultSite::kFileWrite, 64).no_space);  // 3
}

// --- scoped activation ------------------------------------------------------

TEST(ScopedFaultInjectionTest, InstallsAndRestores) {
  FaultInjector* before = FaultInjector::Active();
  {
    FaultPlan plan;
    plan.err_rate = 1.0;
    ScopedFaultInjection scope(plan);
    ASSERT_EQ(FaultInjector::Active(), scope.injector());
    {
      FaultPlan inner;
      inner.short_io = 1.0;
      ScopedFaultInjection nested(inner);
      EXPECT_EQ(FaultInjector::Active(), nested.injector());
    }
    EXPECT_EQ(FaultInjector::Active(), scope.injector());
  }
  EXPECT_EQ(FaultInjector::Active(), before);
}

// --- socket hooks -----------------------------------------------------------

TEST(SocketFaultTest, ErrRateFailsReadsAndWrites) {
  FaultPlan plan;
  plan.err_rate = 1.0;
  ScopedFaultInjection scope(plan);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketFd read_end(fds[0]);
  SocketFd write_end(fds[1]);
  uint8_t buf[16] = {0};
  size_t n = 0;
  EXPECT_EQ(ReadSome(read_end.get(), std::span<uint8_t>(buf, sizeof(buf)),
                     &n),
            IoOutcome::kError);
  EXPECT_EQ(WriteSome(write_end.get(),
                      std::span<const uint8_t>(buf, sizeof(buf)), &n),
            IoOutcome::kError);
}

TEST(SocketFaultTest, ShortIoClampsTransfersToOneByte) {
  FaultPlan plan;
  plan.short_io = 1.0;
  ScopedFaultInjection scope(plan);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketFd read_end(fds[0]);
  SocketFd write_end(fds[1]);
  ASSERT_TRUE(SetNonBlocking(read_end.get()).ok());
  ASSERT_TRUE(SetNonBlocking(write_end.get()).ok());
  const uint8_t payload[64] = {7};
  size_t n = 0;
  ASSERT_EQ(WriteSome(write_end.get(),
                      std::span<const uint8_t>(payload, sizeof(payload)),
                      &n),
            IoOutcome::kProgress);
  EXPECT_EQ(n, 1u);
  uint8_t buf[64] = {0};
  ASSERT_EQ(ReadSome(read_end.get(), std::span<uint8_t>(buf, sizeof(buf)),
                     &n),
            IoOutcome::kProgress);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(buf[0], 7);
}

TEST(SocketFaultTest, ConnectFaultFailsTheDial) {
  FaultPlan plan;
  plan.err_rate = 1.0;
  ScopedFaultInjection scope(plan);
  const auto dialed = TcpConnect("127.0.0.1", 1, /*connect_timeout_ms=*/50);
  ASSERT_FALSE(dialed.ok());
  EXPECT_NE(dialed.status().message().find("injected fault"),
            std::string::npos)
      << dialed.status().message();
}

// --- file backend: ENOSPC classification and on_error policies --------------

TEST(FileBackendFaultTest, FailPolicyIsStickyAndClassified) {
  const std::string path = TempPath("fail_policy");
  std::remove(path.c_str());
  FaultPlan plan;
  plan.enospc_after = 2;  // write 0 = stream-open, write 1 = one segment
  plan.enospc_for = 1000;
  ScopedFaultInjection scope(plan);
  auto backend = MakeStorageBackend("file(path=" + path + ")").value();
  ASSERT_TRUE(backend->Open().ok());
  auto stream = backend->OpenStream("k", 1);
  ASSERT_TRUE(stream.ok()) << stream.status().message();
  ASSERT_TRUE(stream.value()->Append(DisconnectedSegment(0)).ok());
  const Status failed = stream.value()->Append(DisconnectedSegment(1));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsDiskFull(failed)) << failed.message();
  EXPECT_NE(failed.message().find("No space left"), std::string::npos)
      << failed.message();
  // Sticky: later appends and Flush keep reporting the medium failure.
  EXPECT_TRUE(IsDiskFull(stream.value()->Append(DisconnectedSegment(2))));
  EXPECT_TRUE(IsDiskFull(backend->Flush()));
  EXPECT_EQ(backend->Health().state, StorageHealth::State::kFailing);
  EXPECT_FALSE(backend->Health().cause.empty());
  std::remove(path.c_str());
}

TEST(FileBackendFaultTest, DegradePolicySurvivesEnospcAndResumes) {
  const std::string path = TempPath("degrade_resume");
  std::remove(path.c_str());
  FaultPlan plan;
  // kFileWrite schedule: write 0 = stream-open, writes 1-2 = segments 0-1.
  // Degrade-mode flushes peek the *next* write slot, so segment 2's
  // post-write flush already sees slot 4 and the degradation window
  // covers segments 2-4; segment 5 finds the medium free again.
  plan.enospc_after = 4;
  plan.enospc_for = 2;
  {
    ScopedFaultInjection scope(plan);
    auto backend =
        MakeStorageBackend("file(path=" + path + ",on_error=degrade)")
            .value();
    ASSERT_TRUE(backend->Open().ok());
    auto stream = backend->OpenStream("k", 1).value();

    // Healthy prefix.
    ASSERT_TRUE(stream->Append(DisconnectedSegment(0)).ok());
    ASSERT_TRUE(stream->Append(DisconnectedSegment(1)).ok());
    EXPECT_EQ(backend->Health().state, StorageHealth::State::kOk);

    // The ENOSPC window: ingest keeps being served (Append returns OK),
    // archiving degrades, segments are counted as dropped.
    ASSERT_TRUE(stream->Append(DisconnectedSegment(2)).ok());
    StorageHealth health = backend->Health();
    EXPECT_EQ(health.state, StorageHealth::State::kDegraded);
    EXPECT_NE(health.cause.find("[ENOSPC]"), std::string::npos)
        << health.cause;
    EXPECT_EQ(health.segments_dropped, 1u);
    ASSERT_TRUE(stream->Append(DisconnectedSegment(3)).ok());
    ASSERT_TRUE(stream->Append(DisconnectedSegment(4)).ok());
    EXPECT_EQ(backend->Health().segments_dropped, 3u);
    EXPECT_EQ(backend->Health().state, StorageHealth::State::kDegraded);

    // The medium frees up: the next probe lands and health recovers.
    ASSERT_TRUE(stream->Append(DisconnectedSegment(5)).ok());
    health = backend->Health();
    EXPECT_EQ(health.state, StorageHealth::State::kOk);
    EXPECT_TRUE(health.cause.empty());
    EXPECT_EQ(health.recoveries, 1u);
    EXPECT_EQ(health.write_failures, 3u);

    // The queryable in-memory view always has everything.
    EXPECT_EQ(stream->store()->segment_count(), 6u);
    ASSERT_TRUE(backend->Flush().ok());
    ASSERT_TRUE(backend->Close().ok());
  }

  // The surviving archive is clean: no torn tail, and exactly the logged
  // segments (the dropped ones left a recorded gap, not corruption).
  const auto scan = ScanArchiveFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  EXPECT_FALSE(scan->torn) << scan->torn_reason;
  EXPECT_EQ(scan->segments, 3u);  // segments 0, 1 and 5
  ASSERT_EQ(scan->streams.size(), 1u);
  const SegmentStore& recovered = *scan->streams[0]->store;
  ASSERT_EQ(recovered.segment_count(), 3u);
  EXPECT_DOUBLE_EQ(recovered.segments()[0].t_start, 0.0);
  EXPECT_DOUBLE_EQ(recovered.segments()[1].t_start, 1.0);
  EXPECT_DOUBLE_EQ(recovered.segments()[2].t_start, 5.0);
  // The post-gap segment must not claim continuity with a predecessor
  // that never reached the log.
  EXPECT_FALSE(recovered.segments()[2].connected_to_prev);

  // And a recovering writer appends to it seamlessly, fault-free.
  {
    auto backend =
        MakeStorageBackend("file(path=" + path + ",on_error=degrade)")
            .value();
    ASSERT_TRUE(backend->Open().ok());
    auto stream = backend->OpenStream("k", 1).value();
    EXPECT_EQ(stream->store()->segment_count(), 3u);
    ASSERT_TRUE(stream->Append(DisconnectedSegment(9)).ok());
    EXPECT_EQ(backend->Health().state, StorageHealth::State::kOk);
    ASSERT_TRUE(backend->Close().ok());
  }
  std::remove(path.c_str());
}

TEST(FileBackendFaultTest, DegradedStreamOpenDefersItsLogRecord) {
  const std::string path = TempPath("deferred_open");
  std::remove(path.c_str());
  FaultPlan plan;
  // "a"'s open record is write 0; its flush peeks slot 1, which is in the
  // window [1, 3) — the open is rolled back and deferred.
  plan.enospc_after = 1;
  plan.enospc_for = 2;
  {
    ScopedFaultInjection scope(plan);
    auto backend =
        MakeStorageBackend("file(path=" + path + ",on_error=degrade)")
            .value();
    ASSERT_TRUE(backend->Open().ok());
    auto a = backend->OpenStream("a", 1).value();  // deferred, degraded
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(backend->Health().state, StorageHealth::State::kDegraded);
    // write 1: "a"'s open retry fails -> its segment is dropped.
    ASSERT_TRUE(a->Append(DisconnectedSegment(0)).ok());
    // Opening a second stream while degraded must not write its open
    // record out of order; it is served from memory and deferred too
    // (write 2, the last failing slot).
    auto b = backend->OpenStream("b", 1).value();
    ASSERT_NE(b, nullptr);
    // The medium frees up: write 3 = b's deferred open, write 4 = b's
    // segment; both land and health recovers.
    ASSERT_TRUE(b->Append(DisconnectedSegment(10)).ok());
    EXPECT_EQ(backend->Health().state, StorageHealth::State::kOk);
    // "a"'s deferred open lands on its next append (writes 5-6).
    ASSERT_TRUE(a->Append(DisconnectedSegment(1)).ok());
    ASSERT_TRUE(backend->Close().ok());
  }
  // The log's stream ids are sequential in landing order ("b" before
  // "a") even though both opens raced a failing medium — the scanner
  // accepts the archive whole.
  const auto scan = ScanArchiveFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  EXPECT_FALSE(scan->torn) << scan->torn_reason;
  ASSERT_EQ(scan->streams.size(), 2u);
  EXPECT_EQ(scan->streams[0]->key, "b");
  EXPECT_EQ(scan->streams[1]->key, "a");
  EXPECT_EQ(scan->streams[0]->store->segment_count(), 1u);
  EXPECT_EQ(scan->streams[1]->store->segment_count(), 1u);
  std::remove(path.c_str());
}

// --- Pipeline::Health -------------------------------------------------------

TEST(PipelineHealthTest, ReportsStorageDegradation) {
  const std::string path = TempPath("pipeline_health");
  std::remove(path.c_str());
  FaultPlan plan;
  plan.enospc_after = 1;  // only the stream-open record ever lands
  plan.enospc_for = 100000;
  ScopedFaultInjection scope(plan);
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("cache(eps=0.1)")
                      .Storage("file(path=" + path + ",on_error=degrade)")
                      .Build()
                      .value();
  EXPECT_EQ(pipeline->Health().state, StorageHealth::State::kOk);
  // Values jumping far past eps force a segment per appended point.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipeline->Append("k", i, i * 10.0).ok());
  }
  // Ingest survives the full-disk window; Finish stays OK by contract.
  ASSERT_TRUE(pipeline->Finish().ok());
  const Pipeline::HealthSnapshot health = pipeline->Health();
  EXPECT_EQ(health.state, StorageHealth::State::kDegraded);
  EXPECT_NE(health.cause.find("[ENOSPC]"), std::string::npos)
      << health.cause;
  EXPECT_GE(health.storage.segments_dropped, 1u);
  EXPECT_GE(health.storage.write_failures, 1u);
  // Stats carries the same report, and the archived segments are all still
  // queryable from the in-memory store.
  EXPECT_EQ(pipeline->Stats().storage_health.state,
            StorageHealth::State::kDegraded);
  EXPECT_GE(pipeline->Segments("k")->size(), 1u);
  std::remove(path.c_str());
}

// --- Pipeline storage-error propagation -------------------------------------

// The archive's write schedule for the tests below: write 0 is the
// stream-open record, write n the record of segment n-1. cache(eps=0.1)
// over values 10 apart closes one segment per appended point, so the
// Append of point 3 archives segment 2 — write 3, the first ENOSPC.
constexpr int kFailingAppend = 3;

std::unique_ptr<Pipeline> BuildFileOnFullDisk(const std::string& path,
                                              const std::string& on_error,
                                              bool threaded) {
  Pipeline::Builder builder;
  builder.DefaultSpec("cache(eps=0.1)")
      .Storage("file(path=" + path + ",on_error=" + on_error + ")");
  if (threaded) builder.Threads();
  return builder.Build().value();
}

FaultPlan DiskFullFrom(uint64_t write) {
  FaultPlan plan;
  plan.enospc_after = write;
  plan.enospc_for = 100000;
  return plan;
}

TEST(PipelineStorageErrorTest, LockedAppendReturnsTheArchiveFailureStickily) {
  const std::string path = TempPath("storage_error_locked");
  std::remove(path.c_str());
  {
    ScopedFaultInjection scope(DiskFullFrom(kFailingAppend));
    auto pipeline = BuildFileOnFullDisk(path, "fail", /*threaded=*/false);
    for (int i = 0; i < kFailingAppend; ++i) {
      ASSERT_TRUE(pipeline->Append("k", i, i * 10.0).ok()) << i;
    }
    // The Append whose filter output hit the full disk reports it ...
    const Status failed = pipeline->Append("k", kFailingAppend, 30.0);
    EXPECT_TRUE(IsDiskFull(failed)) << failed.ToString();
    // ... and so does every later call.
    const Status later = pipeline->Append("k", kFailingAppend + 1, 40.0);
    EXPECT_TRUE(IsDiskFull(later)) << later.ToString();
    EXPECT_TRUE(IsDiskFull(pipeline->Flush()));
    EXPECT_TRUE(IsDiskFull(pipeline->Finish()));
    EXPECT_TRUE(IsDiskFull(pipeline->Finish()));
    EXPECT_FALSE(pipeline->finished());
    EXPECT_EQ(pipeline->Health().state, StorageHealth::State::kFailing);
  }
  std::remove(path.c_str());
}

TEST(PipelineStorageErrorTest, ThreadedArchiveFailureSurfacesAtFlushAndFinish) {
  const std::string path = TempPath("storage_error_threaded");
  std::remove(path.c_str());
  {
    ScopedFaultInjection scope(DiskFullFrom(kFailingAppend));
    auto pipeline = BuildFileOnFullDisk(path, "fail", /*threaded=*/true);
    for (int i = 0; i < 8; ++i) {
      // Enqueueing succeeds until the shard worker has hit the failure;
      // from then on Append reports it too.
      const Status appended = pipeline->Append("k", i, i * 10.0);
      EXPECT_TRUE(appended.ok() || IsDiskFull(appended))
          << appended.ToString();
    }
    EXPECT_TRUE(IsDiskFull(pipeline->Flush()));
    EXPECT_TRUE(IsDiskFull(pipeline->Finish()));
  }
  std::remove(path.c_str());
}

TEST(PipelineStorageErrorTest, DegradeKeepsIngestAndTheDroppedSegments) {
  const std::string path = TempPath("storage_error_degrade");
  std::remove(path.c_str());
  {
    ScopedFaultInjection scope(DiskFullFrom(kFailingAppend));
    auto pipeline = BuildFileOnFullDisk(path, "degrade", /*threaded=*/false);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(pipeline->Append("k", i, i * 10.0).ok()) << i;
    }
    ASSERT_TRUE(pipeline->Flush().ok());
    ASSERT_TRUE(pipeline->Finish().ok());
    // One segment per point: the ones the medium dropped are still in the
    // queryable store.
    const SegmentStore* store = pipeline->Store("k");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->segment_count(), 8u);
    EXPECT_EQ(pipeline->Segments("k")->size(), 8u);
    const Pipeline::HealthSnapshot health = pipeline->Health();
    EXPECT_EQ(health.state, StorageHealth::State::kDegraded);
    EXPECT_GE(health.storage.segments_dropped, 1u);
  }
  std::remove(path.c_str());
}

TEST(PipelineHealthTest, HealthyPipelineReportsOk) {
  auto pipeline =
      Pipeline::Builder().DefaultSpec("swing(eps=1)").Build().value();
  ASSERT_TRUE(pipeline->Append("k", 0.0, 1.0).ok());
  ASSERT_TRUE(pipeline->Finish().ok());
  const Pipeline::HealthSnapshot health = pipeline->Health();
  EXPECT_EQ(health.state, StorageHealth::State::kOk);
  EXPECT_TRUE(health.cause.empty());
  EXPECT_EQ(StorageHealthStateName(health.state), "ok");
}

}  // namespace
}  // namespace plastream
