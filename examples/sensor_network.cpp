// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Sensor-network scenario (the paper's motivating application): a field of
// battery-powered sensors reports readings through swing filters — chosen
// here for their minimal per-point overhead — over a bandwidth-metered
// channel to a base station, with a bounded transmitter lag so the base
// station's view is never more than `kMaxLag` samples stale.
//
// The Pipeline facade stands in for the whole deployment: one key per
// sensor, the lag bound carried in the spec string, the radio budget read
// off the pipeline's byte accounting.
//
//   $ ./build/sensor_network

#include <cstdio>
#include <string>
#include <vector>

#include "datagen/random_walk.h"
#include "eval/metrics.h"
#include "plastream.h"

using namespace plastream;

namespace {

constexpr size_t kSensors = 8;
constexpr size_t kSamples = 5000;
constexpr double kEpsilon = 0.25;  // degrees
constexpr size_t kMaxLag = 32;     // samples the base station may lag

std::string SensorKey(size_t s) { return "sensor-" + std::to_string(s); }

}  // namespace

int main() {
  // Each sensor observes a smooth temperature-like drift.
  std::vector<Signal> signals(kSensors);
  for (size_t s = 0; s < kSensors; ++s) {
    RandomWalkOptions o;
    o.count = kSamples;
    o.decrease_probability = 0.45;
    o.max_delta = 0.2;
    o.x0 = 15.0 + static_cast<double>(s);
    o.seed = 500 + s;
    signals[s] = *GenerateRandomWalk(o);
  }

  // The whole field behind one collector: every sensor gets a swing filter
  // with the lag bound baked into the default spec.
  auto pipeline = Pipeline::Builder()
                      .DefaultSpec("swing(eps=0.25,max_lag=32)")
                      .Build()
                      .value();

  // Drive all sensors sample-by-sample; every Append archives whatever
  // segment the sensor's filter closes and bills its wire bytes.
  for (size_t j = 0; j < kSamples; ++j) {
    for (size_t s = 0; s < kSensors; ++s) {
      (void)pipeline->Append(SensorKey(s), signals[s].points[j]);
    }
  }
  (void)pipeline->Finish();

  std::printf("%-10s %10s %12s %12s %10s\n", "sensor", "samples",
              "raw bytes", "sent bytes", "saved");
  // Raw cost: one (t, x) pair of doubles per sample.
  const size_t raw_bytes = kSamples * 2 * sizeof(double);
  const auto stats = pipeline->Stats();
  for (size_t s = 0; s < kSensors; ++s) {
    const size_t sent_bytes = pipeline->StatsFor(SensorKey(s))->bytes_sent;
    std::printf("%-10s %10zu %12zu %12zu %9.1f%%\n", SensorKey(s).c_str(),
                kSamples, raw_bytes, sent_bytes,
                100.0 * (1.0 - static_cast<double>(sent_bytes) /
                                   static_cast<double>(raw_bytes)));
  }
  std::printf("fleet: %.1f%% of the radio budget saved (%zu -> %zu bytes)\n",
              100.0 * (1.0 - static_cast<double>(stats.bytes_sent) /
                                 static_cast<double>(stats.bytes_raw)),
              stats.bytes_raw, stats.bytes_sent);

  // The base station's reconstruction honors the precision contract.
  for (size_t s = 0; s < kSensors; ++s) {
    const auto approx = pipeline->Reconstruction(SensorKey(s)).value();
    const std::vector<double> eps{kEpsilon};
    const Status ok = VerifyPrecision(signals[s], approx, eps);
    if (!ok.ok()) {
      std::fprintf(stderr, "sensor %zu: %s\n", s, ok.ToString().c_str());
      return 1;
    }
  }
  std::printf("base station view verified within +/-%.2f for all %zu "
              "sensors, lag bounded by %zu samples\n",
              kEpsilon, kSensors, kMaxLag);
  return 0;
}
