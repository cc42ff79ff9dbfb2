// Copyright (c) 2026 The plastream Authors. MIT license.
//
// SegmentStore: a time-indexed archive of PLA segments with error-bounded
// analytics. This is the repository side of the paper's pipeline — once a
// stream has been filtered into segments, monitoring dashboards and
// offline analysis run range queries against the approximation instead of
// the raw points. Because every original sample is within ε_i of the
// stored function, each answer below carries a hard error bound:
//
//   point value          -> true sample within ±ε
//   time-weighted mean   -> true time-weighted mean within ±ε
//   min / max            -> true extremum within ±ε of the reported one
//   threshold crossings  -> exact for the approximation; true crossings of
//                           levels beyond ±ε cannot be missed
//
// Layout: columns of recordings, so a connected segment costs one
// recording in memory as it does on the wire (paper, Section 2.1). Every
// segment keeps its end time and its d end values (point-major). Only a
// disconnected segment keeps a start recording, in side columns; a bitmap
// with a rank per 64-segment block finds it in O(1). A connected
// segment's start is its predecessor's end. At d = 1 that is 16 B per
// connected and 32 B per disconnected segment, plus a quarter byte for
// the bitmap and ranks, against 200 B for a `Segment`. `segments()` is a
// view that builds `Segment` values from the columns on access.

#ifndef PLASTREAM_CORE_SEGMENT_STORE_H_
#define PLASTREAM_CORE_SEGMENT_STORE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/types.h"

namespace plastream {

/// Append-only archive of one stream's segment chain with range analytics.
/// Not thread-safe; one instance per stream.
class SegmentStore {
 public:
  /// Read-only random-access view of the stored chain, in time order. An
  /// element is a `Segment` built from the columns on access (a value, not
  /// a reference). Iterators are (store, index) pairs, so iterators taken
  /// from two `segments()` calls on one store delimit one range, and an
  /// Append does not invalidate them. Like `std::views::iota`, iterators
  /// are random access in concept and input in `iterator_category`.
  class SegmentView : public std::ranges::view_interface<SegmentView> {
   public:
    /// (store, index) iterator yielding `Segment` values.
    class Iterator {
     public:
      /// Random access, for C++20 algorithms and ranges.
      using iterator_concept = std::random_access_iterator_tag;
      /// Input, since dereferencing yields a value, not a reference.
      using iterator_category = std::input_iterator_tag;
      /// Element type.
      using value_type = Segment;
      /// Distance between two positions.
      using difference_type = std::ptrdiff_t;
      /// None: elements are built on access and have no address.
      using pointer = void;
      /// What dereferencing yields: a built `Segment`.
      using reference = Segment;

      /// A singular iterator; only assignable.
      Iterator() = default;
      /// Position `index` of `store`.
      Iterator(const SegmentStore* store, size_t index)
          : store_(store), index_(index) {}

      /// The segment at this position.
      Segment operator*() const { return store_->SegmentAt(index_); }
      /// The segment `n` positions on.
      Segment operator[](difference_type n) const { return *(*this + n); }

      /// Steps forward.
      Iterator& operator++() { return *this += 1; }
      /// Steps forward, returning the old position.
      Iterator operator++(int) { return Iterator(store_, index_++); }
      /// Steps back.
      Iterator& operator--() { return *this -= 1; }
      /// Steps back, returning the old position.
      Iterator operator--(int) { return Iterator(store_, index_--); }
      /// Moves `n` positions on.
      Iterator& operator+=(difference_type n) {
        index_ += static_cast<size_t>(n);
        return *this;
      }
      /// Moves `n` positions back.
      Iterator& operator-=(difference_type n) { return *this += -n; }
      /// `it` moved `n` positions on.
      friend Iterator operator+(Iterator it, difference_type n) {
        return it += n;
      }
      /// `it` moved `n` positions on.
      friend Iterator operator+(difference_type n, Iterator it) {
        return it += n;
      }
      /// `it` moved `n` positions back.
      friend Iterator operator-(Iterator it, difference_type n) {
        return it -= n;
      }
      /// Positions from `b` to `a`.
      friend difference_type operator-(const Iterator& a, const Iterator& b) {
        return static_cast<difference_type>(a.index_ - b.index_);
      }
      /// Same store and position.
      friend bool operator==(const Iterator&, const Iterator&) = default;
      /// Orders positions within one store.
      friend auto operator<=>(const Iterator&, const Iterator&) = default;

     private:
      const SegmentStore* store_ = nullptr;
      size_t index_ = 0;
    };

    /// A view of `store`'s chain.
    explicit SegmentView(const SegmentStore* store) : store_(store) {}

    /// The first segment's position.
    Iterator begin() const { return Iterator(store_, 0); }
    /// One past the last segment's position, as of this call.
    Iterator end() const { return Iterator(store_, store_->segment_count()); }

   private:
    const SegmentStore* store_;
  };

  /// Creates an empty store for d-dimensional segments.
  explicit SegmentStore(size_t dimensions);

  /// Appends the next segment of the chain. Enforces the same invariants
  /// as ValidateSegmentChain incrementally (monotone times, matching
  /// dimensionality, consistent junctions). A connected segment's start
  /// is not stored: it reads back as the previous end, which it equals.
  Status Append(const Segment& segment);

  /// Appends a whole batch in order.
  Status AppendAll(std::span<const Segment> segments);

  /// Number of stored segments.
  size_t segment_count() const { return t_end_.size(); }

  /// Dimensionality d.
  size_t dimensions() const { return dimensions_; }

  /// True when no segments are stored.
  bool empty() const { return t_end_.empty(); }

  /// Earliest / latest covered time. Requires a non-empty store. The
  /// first segment is never connected, so it keeps its own start.
  double t_min() const { return starts_.front(); }
  double t_max() const { return t_end_.back(); }

  /// The stored segments, in time order (see SegmentView).
  SegmentView segments() const { return SegmentView(this); }

  /// Value of dimension `dim` at time t; NotFound in coverage gaps and
  /// for a NaN t.
  Result<double> ValueAt(double t, size_t dim) const;

  /// Aggregates of the stored approximation over [t_begin, t_end].
  struct RangeAggregate {
    /// Smallest / largest approximation value on the covered part.
    double min = 0.0;
    double max = 0.0;
    /// Time-weighted mean over the covered part (integral / duration).
    double mean = 0.0;
    /// Integral of the approximation over the covered part.
    double integral = 0.0;
    /// Total covered time within the query range (gaps excluded).
    double covered_duration = 0.0;
    /// Segments that intersected the range.
    size_t segments_touched = 0;
  };

  /// Computes RangeAggregate for dimension `dim` over [t_begin, t_end].
  /// Errors: InvalidArgument for a reversed range or bad dimension,
  /// NotFound when the range touches no segment.
  Result<RangeAggregate> Aggregate(double t_begin, double t_end,
                                   size_t dim) const;

  /// Maximal time intervals within [t_begin, t_end] where the stored
  /// approximation of dimension `dim` is strictly above `threshold`.
  /// Coverage gaps always terminate an interval.
  std::vector<std::pair<double, double>> IntervalsAbove(double threshold,
                                                        double t_begin,
                                                        double t_end,
                                                        size_t dim) const;

 private:
  // One recording: a time and its d values, pointing into a column.
  struct Recording {
    double t = 0.0;
    const double* x = nullptr;
  };

  // 64 segments' "keeps its own start" bits, and how many segments before
  // the block keep one: the rank that indexes the side columns.
  struct Block {
    uint64_t disconnected = 0;
    uint64_t rank = 0;
  };

  // True when segment k is disconnected and so keeps its own start.
  bool KeepsStart(size_t k) const;

  // Segment k's start and end recordings.
  Recording Start(size_t k) const;
  Recording End(size_t k) const;

  // Segment k, built from the columns.
  Segment SegmentAt(size_t k) const;

  // Index of the first segment with t_end >= t.
  size_t LowerBound(double t) const;

  size_t dimensions_;
  std::vector<double> t_end_;   // per segment
  std::vector<double> x_end_;   // per segment, d values
  std::vector<Block> blocks_;   // per 64 segments
  std::vector<double> starts_;  // per disconnected segment: t, then d values
};

}  // namespace plastream

#endif  // PLASTREAM_CORE_SEGMENT_STORE_H_
