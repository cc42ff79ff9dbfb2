// Copyright (c) 2026 The plastream Authors. MIT license.
//
// Columnar ingest: feed a pipeline from column arrays (timestamps and
// values in separate buffers, the layout CSV readers and Arrow record
// batches already hold) without ever materializing DataPoint rows.
//
//   $ ./build/columnar_ingest
//
// The columnar overload AppendBatch(key, ts, vals) is the zero-copy
// bulk-ingest entry: `ts` is the batch's timestamps in order, `vals` is
// dimension-major (vals[dim * n + j] = dimension dim of point j). It is
// byte-identical to appending the same points one at a time — this
// example proves that on the paper's Figure 6 sea-surface-temperature
// trace by running both and diffing the segments.

#include <cstdio>
#include <vector>

#include "datagen/sea_surface.h"
#include "plastream.h"

using namespace plastream;

int main() {
  // The ~9 day SST trace (synthetic stand-in for the paper's NOAA TAO
  // trace), immediately transposed into the column arrays a file-backed
  // source would hand us: one timestamp column, one value column.
  const Signal signal = *GenerateSeaSurfaceTemperature(SeaSurfaceOptions{});
  std::vector<double> ts;
  std::vector<double> temperature;
  for (const DataPoint& point : signal.points) {
    ts.push_back(point.t);
    temperature.push_back(point.x[0]);
  }
  std::printf("input: %zu samples in 2 column arrays, range %.2f C\n",
              ts.size(), signal.Range(0));

  // A pipeline compressing the stream within 0.05 C, fed in columnar
  // chunks of 256 — each chunk is two sub-spans, no row conversion. Each
  // point runs the same SIMD bound-check kernel as a per-point Append.
  auto columnar =
      Pipeline::Builder().DefaultSpec("slide(eps=0.05)").Build().value();
  constexpr size_t kChunk = 256;
  for (size_t at = 0; at < ts.size(); at += kChunk) {
    const size_t n = std::min(kChunk, ts.size() - at);
    const Status status = columnar->AppendBatch(
        "tao.sst", std::span<const double>(&ts[at], n),
        std::span<const double>(&temperature[at], n));
    if (!status.ok()) {
      std::fprintf(stderr, "columnar append failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }
  (void)columnar->Finish();
  const auto stats = columnar->Stats();
  std::printf("columnar: %zu points -> %zu segments, %zu wire records\n",
              stats.points, stats.segments, stats.records_sent);

  // The contract: identical bytes to the row-at-a-time path.
  auto row = Pipeline::Builder().DefaultSpec("slide(eps=0.05)").Build().value();
  for (const DataPoint& point : signal.points) {
    (void)row->Append("tao.sst", point);
  }
  (void)row->Finish();
  const bool identical = columnar->Segments("tao.sst").value() ==
                         row->Segments("tao.sst").value();
  std::printf("columnar vs row segments: %s\n",
              identical ? "byte-identical" : "DIVERGED");
  return identical ? 0 : 1;
}
