// Copyright (c) 2026 The plastream Authors. MIT license.
//
// The filter interface shared by cache, linear, swing and slide filters.
//
// A Filter consumes a stream of data points one at a time and produces a
// piece-wise linear (or constant) approximation as a stream of Segments,
// guaranteeing |x_ij - approximation_i(t_j)| <= epsilon_i for every input
// point and every dimension i (the paper's L-infinity precision contract).

#ifndef PLASTREAM_CORE_FILTER_H_
#define PLASTREAM_CORE_FILTER_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/segment_sink.h"
#include "core/types.h"

namespace plastream {

/// Configuration shared by every filter.
struct FilterOptions {
  /// Per-dimension precision width ε_i (>= 0, finite). The vector's size
  /// fixes the stream's dimensionality d. ε_i = 0 requests exact fitting in
  /// that dimension (only collinear runs are merged).
  std::vector<double> epsilon;

  /// Upper bound m_max_lag on data points the filter may buffer before the
  /// receiver must be updated. 0 means unbounded (the paper's default for
  /// the compression experiments). Honored by the swing and slide filters;
  /// cache and linear filters are lag-free by construction because their
  /// current prediction line is fully determined by already-transmitted
  /// recordings plus at most the first two points of the open segment.
  size_t max_lag = 0;

  /// Convenience factory for a uniform-ε d-dimensional configuration.
  static FilterOptions Uniform(size_t dims, double eps) {
    FilterOptions opts;
    opts.epsilon.assign(dims, eps);
    return opts;
  }
  /// Convenience factory for 1-dimensional streams.
  static FilterOptions Scalar(double eps) { return Uniform(1, eps); }

  /// Field-wise equality.
  bool operator==(const FilterOptions&) const = default;
};

/// One named diagnostic counter exposed by a filter (see
/// Filter::Counters()). Values are doubles so a single type covers counts
/// and measurements.
struct FilterCounter {
  /// Counter name, unique within one filter's Counters() list.
  std::string name;
  /// Current counter value.
  double value = 0.0;
};

/// Sums `from` into `into` by counter name: an existing name accumulates,
/// a new name is inserted at its sorted position. `into` must be sorted by
/// name (as this function maintains when accumulation starts from an empty
/// vector); `from` may be in any order. Used to aggregate Counters()
/// across the filters of a bank or the shards of a ShardedFilterBank.
void MergeFilterCounters(std::vector<FilterCounter>& into,
                         const std::vector<FilterCounter>& from);

/// Validates a FilterOptions instance (dimensionality >= 1, finite
/// non-negative epsilons).
Status ValidateFilterOptions(const FilterOptions& options);

/// Base class of all filters. Not thread-safe; one instance per stream.
///
/// Lifecycle: construct -> Append(point)* -> Finish(). Finish flushes the
/// open filtering interval; appending after Finish is an error. Segments
/// are pushed to the sink passed at construction; without a sink they are
/// buffered for TakeSegments(). Exactly one of the two paths holds a
/// segment, so a long-running sinked stream never accumulates output.
class Filter {
 public:
  /// `sink` may be null; it is borrowed, not owned, and must outlive the
  /// filter.
  explicit Filter(FilterOptions options, SegmentSink* sink = nullptr);
  /// Destroys the filter without flushing; call Finish() first.
  virtual ~Filter() = default;

  /// Filters hold per-stream state and are not copyable.
  Filter(const Filter&) = delete;
  /// Filters hold per-stream state and are not copyable.
  Filter& operator=(const Filter&) = delete;

  /// Consumes one data point.
  ///
  /// Errors: InvalidArgument for non-finite timestamps or values (NaN and
  /// infinity never reach the hull/slope math) or a dimensionality
  /// mismatch, OutOfOrder for non-increasing timestamps, FailedPrecondition
  /// after Finish(). A duplicate timestamp (exactly equal to the previous
  /// point's) is always an OutOfOrder error whose message names it a
  /// duplicate — the filter never silently keeps either value; callers
  /// wanting first- or last-write-wins resolve duplicates in front of the
  /// filter (see stream/ingest_guard.h). On error the filter state is
  /// unchanged and the stream may continue with a corrected point.
  Status Append(const DataPoint& point);

  /// Consumes a batch of data points in order — the entry for bulk
  /// ingest. Semantically identical to calling Append per point (same
  /// validation, same segments); stops at the first error, leaving
  /// earlier points of the batch applied, exactly like a per-point loop.
  /// Both AppendBatch overloads loop over Append, so every entry point
  /// runs a family's one AppendValidated. They stay virtual for
  /// decorators that wrap a whole batch (e.g. timing); a decorator that
  /// bypasses Append calls NoteAppended per applied point.
  virtual Status AppendBatch(std::span<const DataPoint> points);

  /// Columnar batch append: the zero-copy entry for CSV/Arrow-style
  /// sources that hold timestamps and values in column arrays. `ts` holds
  /// the batch's timestamps in order; `vals` holds the values in
  /// dimension-major order — `vals[dim * ts.size() + j]` is dimension
  /// `dim` of point j — and must have exactly ts.size() * dimensions()
  /// entries, else the whole batch is rejected with InvalidArgument
  /// (message prefix "columnar batch") and nothing is applied. An empty
  /// batch is a no-op. Otherwise semantically identical to gathering each
  /// point and calling Append: same per-point validation, same errors,
  /// same stop-at-first-error partial application, byte-identical
  /// segments.
  virtual Status AppendBatch(std::span<const double> ts,
                             std::span<const double> vals);

  /// Flushes the open interval and finalizes the approximation.
  /// Idempotent; appending afterwards is an error.
  Status Finish();

  /// Cuts the segment chain at the current position: the open filtering
  /// interval is flushed exactly as Finish() would flush it, but the
  /// filter stays open and the next appended point starts a fresh,
  /// disconnected chain. This is the discontinuity primitive behind the
  /// ingest guard's gap and NaN policies (stream/ingest_guard.h): a
  /// sampling gap or a data hole becomes a chain break instead of one
  /// long interpolated segment. Time ordering is still enforced across
  /// the cut. A cut with no open interval is a no-op; cutting after
  /// Finish() is a FailedPrecondition error.
  Status Cut();

  /// Segments finalized so far (drained; repeated calls return only new
  /// segments). Only populated when the filter was constructed without a
  /// sink — a sink receives each segment instead (see the class comment).
  std::vector<Segment> TakeSegments();

  /// Human-readable filter family name ("swing", "slide", ...).
  virtual std::string_view name() const = 0;

  /// How this filter's recordings are counted.
  virtual RecordingCostModel cost_model() const {
    return RecordingCostModel::kPiecewiseLinear;
  }

  /// The configuration the filter was created with.
  const FilterOptions& options() const { return options_; }

  /// Stream dimensionality d (== options().epsilon.size()).
  size_t dimensions() const { return options_.epsilon.size(); }

  /// Number of points accepted so far.
  size_t points_seen() const { return points_seen_; }

  /// Number of segments emitted so far.
  size_t segments_emitted() const { return segments_emitted_; }

  /// Number of Cut() calls accepted so far.
  size_t cuts() const { return cuts_; }

  /// Recordings charged on top of the emitted segments (provisional
  /// max-lag line commits).
  size_t extra_recordings() const { return extra_recordings_; }

  /// True once Finish() has run.
  bool finished() const { return finished_; }

  /// Family-specific diagnostic counters ("connected_junctions",
  /// "max_hull_vertices", ...) beyond the universal accessors above, so
  /// callers holding only a Filter* — ablation benches, dashboards — can
  /// read them without downcasting. Base filters expose none.
  virtual std::vector<FilterCounter> Counters() const { return {}; }

  /// The value of the named counter, or nullopt when the family does not
  /// expose it.
  std::optional<double> Counter(std::string_view name) const;

 protected:
  /// Core per-point logic; input is already validated. Every Append and
  /// AppendBatch reaches the filter through here, so a built-in family
  /// implements its per-point check and update once, in this override.
  virtual Status AppendValidated(const DataPoint& point) = 0;

  /// Flush logic; runs exactly once.
  virtual Status FinishImpl() = 0;

  /// Cut logic: flush the open interval like FinishImpl and reset the
  /// open-segment state so the next point starts a disconnected chain.
  /// The base implementation returns Unimplemented — a family that does
  /// not override it simply cannot be cut (the ingest guard surfaces the
  /// error instead of corrupting state). All built-in families override
  /// it.
  virtual Status CutImpl();

  /// The bookkeeping Append performs after AppendValidated succeeds
  /// (ordering watermark and points_seen). A decorator whose AppendBatch
  /// bypasses Append must call this once per applied point, with the
  /// point's time.
  void NoteAppended(double t);

  /// Emits a finalized segment: handed to the sink when one exists (no
  /// second buffered copy), otherwise moved into the TakeSegments buffer.
  void Emit(Segment segment);

  /// Emits a provisional line commit and charges its recording cost.
  void EmitProvisional(ProvisionalLine line);

  /// ε_i accessor for subclasses.
  double epsilon(size_t dim) const { return options_.epsilon[dim]; }

 private:
  /// Validates `point` exactly as Append does — same checks, same status
  /// codes, same messages — without applying it.
  Status ValidateForAppend(const DataPoint& point) const;

  FilterOptions options_;
  SegmentSink* sink_ = nullptr;
  std::vector<Segment> pending_out_;
  size_t points_seen_ = 0;
  size_t segments_emitted_ = 0;
  size_t cuts_ = 0;
  size_t extra_recordings_ = 0;
  bool finished_ = false;
  bool has_last_time_ = false;
  double last_time_ = 0.0;
  // Reused gather target of the columnar AppendBatch (inline DimVec
  // storage for d <= 8, so the gather allocates nothing in steady state).
  DataPoint columnar_scratch_;
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_FILTER_H_
