// Copyright (c) 2026 The plastream Authors. MIT license.

#include "core/filter.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace plastream {

Status ValidateFilterOptions(const FilterOptions& options) {
  if (options.epsilon.empty()) {
    return Status::InvalidArgument(
        "FilterOptions.epsilon is empty: at least one dimension is required");
  }
  for (size_t i = 0; i < options.epsilon.size(); ++i) {
    const double eps = options.epsilon[i];
    if (!std::isfinite(eps) || eps < 0.0) {
      return Status::InvalidArgument(
          "FilterOptions.epsilon[" + std::to_string(i) +
          "] must be finite and non-negative");
    }
  }
  return Status::OK();
}

void MergeFilterCounters(std::vector<FilterCounter>& into,
                         const std::vector<FilterCounter>& from) {
  for (const FilterCounter& counter : from) {
    const auto at =
        std::lower_bound(into.begin(), into.end(), counter,
                         [](const FilterCounter& a, const FilterCounter& b) {
                           return a.name < b.name;
                         });
    if (at != into.end() && at->name == counter.name) {
      at->value += counter.value;
    } else {
      into.insert(at, counter);
    }
  }
}

Filter::Filter(FilterOptions options, SegmentSink* sink)
    : options_(std::move(options)), sink_(sink) {}

Status Filter::ValidateForAppend(const DataPoint& point) const {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  if (point.x.size() != dimensions()) {
    return Status::InvalidArgument(
        "point has " + std::to_string(point.x.size()) +
        " dimensions, filter expects " + std::to_string(dimensions()));
  }
  if (!std::isfinite(point.t)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  for (double v : point.x) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("non-finite value at t=" +
                                     std::to_string(point.t));
    }
  }
  if (has_last_time_ && point.t <= last_time_) {
    if (point.t == last_time_) {
      return Status::OutOfOrder("duplicate timestamp " +
                                std::to_string(point.t) +
                                " (equal to previous point)");
    }
    return Status::OutOfOrder("timestamp " + std::to_string(point.t) +
                              " not greater than previous " +
                              std::to_string(last_time_));
  }
  return Status::OK();
}

void Filter::NoteAppended(double t) {
  has_last_time_ = true;
  last_time_ = t;
  ++points_seen_;
}

Status Filter::Append(const DataPoint& point) {
  // Every check ValidateForAppend makes, as one branch-light test: only a
  // rejected point pays for its ordered walk and message.
  bool valid = !finished_ && point.x.size() == dimensions() &&
               std::isfinite(point.t) &&
               (!has_last_time_ || point.t > last_time_);
  for (double v : point.x) valid &= std::isfinite(v);
  if (!valid) PLASTREAM_RETURN_NOT_OK(ValidateForAppend(point));
  PLASTREAM_RETURN_NOT_OK(AppendValidated(point));
  NoteAppended(point.t);
  return Status::OK();
}

Status Filter::AppendBatch(std::span<const DataPoint> points) {
  for (const DataPoint& point : points) {
    PLASTREAM_RETURN_NOT_OK(Append(point));
  }
  return Status::OK();
}

Status Filter::AppendBatch(std::span<const double> ts,
                           std::span<const double> vals) {
  const size_t n = ts.size();
  const size_t d = dimensions();
  if (vals.size() != n * d) {
    return Status::InvalidArgument(
        "columnar batch has " + std::to_string(vals.size()) +
        " values for " + std::to_string(n) + " timestamps of a " +
        std::to_string(d) + "-dimensional stream (expected " +
        std::to_string(n * d) + ")");
  }
  columnar_scratch_.x.resize(d);
  for (size_t j = 0; j < n; ++j) {
    columnar_scratch_.t = ts[j];
    for (size_t i = 0; i < d; ++i) {
      columnar_scratch_.x[i] = vals[i * n + j];
    }
    PLASTREAM_RETURN_NOT_OK(Append(columnar_scratch_));
  }
  return Status::OK();
}

Status Filter::Finish() {
  if (finished_) return Status::OK();
  PLASTREAM_RETURN_NOT_OK(FinishImpl());
  finished_ = true;
  return Status::OK();
}

Status Filter::Cut() {
  if (finished_) {
    return Status::FailedPrecondition("Cut after Finish");
  }
  PLASTREAM_RETURN_NOT_OK(CutImpl());
  ++cuts_;
  return Status::OK();
}

Status Filter::CutImpl() {
  return Status::Unimplemented("filter family '" + std::string(name()) +
                               "' does not support Cut");
}

std::vector<Segment> Filter::TakeSegments() {
  std::vector<Segment> out = std::move(pending_out_);
  pending_out_.clear();
  return out;
}

void Filter::Emit(Segment segment) {
  ++segments_emitted_;
  // Exactly one consumer holds the segment: the sink when one exists
  // (transports encode straight from the reference, collecting sinks make
  // the single copy), else the TakeSegments buffer by move. Buffering on
  // top of a sink would both copy twice and grow without bound on
  // long-running sinked streams.
  if (sink_ != nullptr) {
    sink_->OnSegment(segment);
    return;
  }
  pending_out_.push_back(std::move(segment));
}

std::optional<double> Filter::Counter(std::string_view name) const {
  for (const FilterCounter& counter : Counters()) {
    if (counter.name == name) return counter.value;
  }
  return std::nullopt;
}

void Filter::EmitProvisional(ProvisionalLine line) {
  extra_recordings_ += line.recording_cost;
  if (sink_ != nullptr) sink_->OnProvisionalLine(line);
}

}  // namespace plastream
