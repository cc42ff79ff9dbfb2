// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/filter_bank.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace plastream {

namespace {

// The index starts at 16 slots and doubles when an insert would take it
// past half full.
constexpr size_t kInitialSlots = 16;

}  // namespace

FilterBank::FilterBank(FilterFactory factory, IngestPolicy ingest,
                       PostAppendHook post_append)
    : factory_(std::move(factory)),
      ingest_(ingest),
      post_append_(std::move(post_append)),
      slots_(kInitialSlots),
      shift_(64 - std::countr_zero(kInitialSlots)) {}

FilterBank::Entry* FilterBank::Find(StreamKey key) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = key.hash >> shift_;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.entry == nullptr) return nullptr;
    if (slot.hash == key.hash && slot.entry->key == key.text) {
      return slot.entry;
    }
  }
}

Result<FilterBank::Entry*> FilterBank::FindOrCreate(StreamKey key) {
  if (finished_) {
    return Status::FailedPrecondition("Append after FinishAll");
  }
  if (Entry* const entry = Find(key); entry != nullptr) return entry;
  PLASTREAM_ASSIGN_OR_RETURN(NewStream made, factory_(key.text));
  if (made.filter == nullptr) {
    return Status::Internal("filter factory returned null for key '" +
                            std::string(key.text) + "'");
  }
  Entry& entry = entries_.emplace_back();
  entry.key = key.text;
  entry.context = std::move(made.context);
  entry.filter = std::move(made.filter);
  if (!ingest_.pass_through()) {
    entry.guard = std::make_unique<IngestGuard>(ingest_, entry.filter.get());
  }
  if (2 * entries_.size() > slots_.size()) {
    // Double the table and re-place every slot by its stored hash.
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.entry != nullptr) Place(slot);
    }
  }
  Place({key.hash, &entry});
  return &entry;
}

void FilterBank::Place(Slot slot) {
  const size_t mask = slots_.size() - 1;
  size_t i = slot.hash >> shift_;
  while (slots_[i].entry != nullptr) i = (i + 1) & mask;
  slots_[i] = slot;
}

Status FilterBank::AfterAppend(Entry& entry, Status appended) {
  if (post_append_ == nullptr) return appended;
  Status hook = post_append_(entry.context.get());
  if (!appended.ok()) return appended;
  return hook;
}

Status FilterBank::Append(StreamKey key, const DataPoint& point) {
  PLASTREAM_ASSIGN_OR_RETURN(Entry* const entry, FindOrCreate(key));
  return AfterAppend(*entry, entry->guard ? entry->guard->Admit(point)
                                          : entry->filter->Append(point));
}

Status FilterBank::AppendBatch(StreamKey key,
                               std::span<const DataPoint> points) {
  if (points.empty()) return Status::OK();
  PLASTREAM_ASSIGN_OR_RETURN(Entry* const entry, FindOrCreate(key));
  return AfterAppend(*entry, entry->guard
                                 ? entry->guard->AdmitBatch(points)
                                 : entry->filter->AppendBatch(points));
}

Status FilterBank::AppendBatch(StreamKey key,
                               std::span<const double> ts,
                               std::span<const double> vals) {
  if (ts.empty() && vals.empty()) return Status::OK();
  PLASTREAM_ASSIGN_OR_RETURN(Entry* const entry, FindOrCreate(key));
  return AfterAppend(*entry, entry->guard
                                 ? entry->guard->AdmitBatch(ts, vals)
                                 : entry->filter->AppendBatch(ts, vals));
}

Status FilterBank::FinishAll() {
  if (finished_) return Status::OK();
  for (Entry& entry : entries_) {
    if (entry.guard) PLASTREAM_RETURN_NOT_OK(entry.guard->Flush());
    PLASTREAM_RETURN_NOT_OK(entry.filter->Finish());
  }
  finished_ = true;
  return Status::OK();
}

Result<std::vector<Segment>> FilterBank::TakeSegments(StreamKey key) {
  Entry* const entry = Find(key);
  if (entry == nullptr) {
    return Status::NotFound("unknown stream '" + std::string(key.text) + "'");
  }
  return entry->filter->TakeSegments();
}

std::vector<std::string> FilterBank::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) keys.push_back(entry.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool FilterBank::Contains(StreamKey key) const {
  return Find(key) != nullptr;
}

const Filter* FilterBank::GetFilter(StreamKey key) const {
  const Entry* const entry = Find(key);
  return entry == nullptr ? nullptr : entry->filter.get();
}

const StreamContext* FilterBank::Context(StreamKey key) const {
  const Entry* const entry = Find(key);
  return entry == nullptr ? nullptr : entry->context.get();
}

Status FilterBank::ForEachContext(
    const std::function<Status(StreamContext&)>& visit) {
  for (Entry& entry : entries_) {
    if (entry.context) PLASTREAM_RETURN_NOT_OK(visit(*entry.context));
  }
  return Status::OK();
}

FilterBank::BankStats FilterBank::Stats() const {
  BankStats stats;
  stats.streams = entries_.size();
  for (const Entry& entry : entries_) {
    stats.points += entry.filter->points_seen();
    stats.segments += entry.filter->segments_emitted();
    stats.extra_recordings += entry.filter->extra_recordings();
  }
  return stats;
}

IngestGuardStats FilterBank::IngestStats() const {
  IngestGuardStats stats;
  for (const Entry& entry : entries_) {
    if (entry.guard) stats += entry.guard->stats();
  }
  return stats;
}

}  // namespace plastream
