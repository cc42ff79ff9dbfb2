// Copyright (c) 2026 The plastream Authors. MIT license.

#include "stream/filter_bank.h"

#include <utility>

namespace plastream {

FilterBank::FilterBank(FilterFactory factory, IngestPolicy ingest,
                       PostAppendHook post_append)
    : factory_(std::move(factory)),
      ingest_(ingest),
      post_append_(std::move(post_append)) {}

Result<FilterBank::Entry*> FilterBank::FindOrCreate(std::string_view key) {
  if (finished_) {
    return Status::FailedPrecondition("Append after FinishAll");
  }
  auto it = filters_.find(key);
  if (it == filters_.end()) {
    PLASTREAM_ASSIGN_OR_RETURN(NewStream made, factory_(key));
    if (made.filter == nullptr) {
      return Status::Internal("filter factory returned null for key '" +
                              std::string(key) + "'");
    }
    Entry entry;
    entry.context = std::move(made.context);
    entry.filter = std::move(made.filter);
    if (!ingest_.pass_through()) {
      entry.guard = std::make_unique<IngestGuard>(ingest_, entry.filter.get());
    }
    it = filters_.emplace(std::string(key), std::move(entry)).first;
  }
  return &it->second;
}

Status FilterBank::AfterAppend(Entry& entry, Status appended) {
  if (post_append_ == nullptr) return appended;
  Status hook = post_append_(entry.context.get());
  if (!appended.ok()) return appended;
  return hook;
}

Status FilterBank::Append(std::string_view key, const DataPoint& point) {
  PLASTREAM_ASSIGN_OR_RETURN(Entry* const entry, FindOrCreate(key));
  return AfterAppend(*entry, entry->guard ? entry->guard->Admit(point)
                                          : entry->filter->Append(point));
}

Status FilterBank::AppendBatch(std::string_view key,
                               std::span<const DataPoint> points) {
  if (points.empty()) return Status::OK();
  PLASTREAM_ASSIGN_OR_RETURN(Entry* const entry, FindOrCreate(key));
  return AfterAppend(*entry, entry->guard
                                 ? entry->guard->AdmitBatch(points)
                                 : entry->filter->AppendBatch(points));
}

Status FilterBank::AppendBatch(std::string_view key,
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
  for (auto& [key, entry] : filters_) {
    if (entry.guard) PLASTREAM_RETURN_NOT_OK(entry.guard->Flush());
    PLASTREAM_RETURN_NOT_OK(entry.filter->Finish());
  }
  finished_ = true;
  return Status::OK();
}

Result<std::vector<Segment>> FilterBank::TakeSegments(std::string_view key) {
  const auto it = filters_.find(key);
  if (it == filters_.end()) {
    return Status::NotFound("unknown stream '" + std::string(key) + "'");
  }
  return it->second.filter->TakeSegments();
}

std::vector<std::string> FilterBank::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(filters_.size());
  for (const auto& [key, entry] : filters_) keys.push_back(key);
  return keys;
}

bool FilterBank::Contains(std::string_view key) const {
  return filters_.find(key) != filters_.end();
}

const Filter* FilterBank::GetFilter(std::string_view key) const {
  const auto it = filters_.find(key);
  return it == filters_.end() ? nullptr : it->second.filter.get();
}

const StreamContext* FilterBank::Context(std::string_view key) const {
  const auto it = filters_.find(key);
  return it == filters_.end() ? nullptr : it->second.context.get();
}

Status FilterBank::ForEachContext(
    const std::function<Status(StreamContext&)>& visit) {
  for (auto& [key, entry] : filters_) {
    if (entry.context) PLASTREAM_RETURN_NOT_OK(visit(*entry.context));
  }
  return Status::OK();
}

FilterBank::BankStats FilterBank::Stats() const {
  BankStats stats;
  stats.streams = filters_.size();
  for (const auto& [key, entry] : filters_) {
    stats.points += entry.filter->points_seen();
    stats.segments += entry.filter->segments_emitted();
    stats.extra_recordings += entry.filter->extra_recordings();
  }
  return stats;
}

IngestGuardStats FilterBank::IngestStats() const {
  IngestGuardStats stats;
  for (const auto& [key, entry] : filters_) {
    if (entry.guard) stats += entry.guard->stats();
  }
  return stats;
}

}  // namespace plastream
