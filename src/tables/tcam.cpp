#include "tables/tcam.h"

#include <algorithm>
#include <cassert>

namespace tango::tables {

std::string to_string(TcamMode mode) {
  switch (mode) {
    case TcamMode::kSingleWide: return "single-wide";
    case TcamMode::kDoubleWide: return "double-wide";
    case TcamMode::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<std::size_t> Tcam::slots_for(const of::Match& match) const {
  const of::MatchLayer layer = match.layer();
  switch (config_.mode) {
    case TcamMode::kSingleWide:
      if (layer == of::MatchLayer::kL2AndL3) return std::nullopt;
      return 1;
    case TcamMode::kDoubleWide:
      return 2;
    case TcamMode::kAdaptive:
      return layer == of::MatchLayer::kL2AndL3 ? 2 : 1;
  }
  return std::nullopt;
}

bool Tcam::can_fit(const of::Match& match) const {
  const auto slots = slots_for(match);
  return slots.has_value() && slots_used_ + *slots <= config_.capacity_slots;
}

TcamInsertOutcome Tcam::insert(FlowEntry entry) {
  TcamInsertOutcome out;
  const auto slots = slots_for(entry.match);
  if (!slots) {
    out.reject_reason = "entry shape unsupported in " + to_string(config_.mode) + " mode";
    return out;
  }
  if (slots_used_ + *slots > config_.capacity_slots) {
    out.reject_reason = "TCAM full";
    return out;
  }
  // Physical array is ascending by priority; insert after any equal-priority
  // entries so equal-priority appends cost zero shifts.
  const auto& entries = store_.entries();
  const auto it = std::upper_bound(
      entries.begin(), entries.end(), entry.priority,
      [](std::uint16_t p, const FlowEntry& e) { return p < e.priority; });
  const std::size_t pos = static_cast<std::size_t>(it - entries.begin());
  out.shifts = entries.size() - pos;
  heap_.push(store_.insert_at(pos, std::move(entry)));
  slots_used_ += *slots;
  compact_heap();
  out.accepted = true;
  return out;
}

TcamEraseOutcome Tcam::erase(FlowId id) {
  TcamEraseOutcome out;
  if (take(id, &out.shifts)) out.removed = 1;
  return out;
}

std::optional<FlowEntry> Tcam::take(FlowId id, std::size_t* shifts) {
  const auto pos = store_.position_of(id);
  if (!pos) return std::nullopt;
  if (shifts != nullptr) *shifts += store_.size() - *pos - 1;
  FlowEntry out = store_.remove_at(*pos);
  slots_used_ -= slots_for(out.match).value_or(0);
  return out;
}

std::vector<FlowEntry> Tcam::remove_batch(const std::vector<std::size_t>& desc,
                                          std::size_t* shifts_out) {
  // Removing position p_j as the j-th one-at-a-time erasure (descending
  // order, j entries already gone) moves (n - j) - p_j - 1 entries.
  const std::size_t n = store_.size();
  std::size_t shifts = 0;
  for (std::size_t j = 0; j < desc.size(); ++j) shifts += n - j - 1 - desc[j];
  if (shifts_out != nullptr) *shifts_out = shifts;
  auto removed = store_.remove_batch(desc);
  for (const auto& e : removed) slots_used_ -= slots_for(e.match).value_or(0);
  return removed;
}

std::vector<FlowEntry> Tcam::erase_matching(const of::Match& filter,
                                            std::size_t* shifts_out) {
  return remove_batch(store_.subsumed_positions(filter), shifts_out);
}

std::vector<FlowEntry> Tcam::take_expired(SimTime now) {
  return remove_batch(store_.expired_positions(now), nullptr);
}

FlowEntry* Tcam::lookup(const of::PacketHeader& pkt) {
  // Physical order is ascending (priority, insertion age), so the top-down
  // first match of a real TCAM is simply the matching entry with the
  // greatest position.
  return store_.best_match(
      pkt, [](const FlowEntry&, std::size_t pos, const FlowEntry&,
              std::size_t best_pos) { return pos > best_pos; });
}

bool Tcam::replace(FlowId id, FlowEntry entry) {
  const auto pos = store_.replace(id, std::move(entry));
  if (!pos) return false;
  heap_.push(store_.entries()[*pos]);
  compact_heap();
  return true;
}

void Tcam::compact_heap() {
  heap_.maybe_compact(store_.size(),
                      [this](FlowId id) { return store_.find_by_id(id); });
}

void Tcam::set_eviction_policy(const LexCachePolicy* policy) {
  heap_.set_policy(policy);
  if (policy != nullptr) {
    for (const auto& e : store_.entries()) heap_.push(e);
  }
}

std::optional<FlowId> Tcam::victim_id() {
  assert(heap_.policy() != nullptr);
  return heap_.victim([this](FlowId id) { return store_.find_by_id(id); });
}

void Tcam::note_attrs_changed(FlowId id) {
  if (heap_.policy() == nullptr) return;
  // Hits only mutate use time / traffic count; when the policy ranks by
  // neither, the entry's existing records are still fresh and re-pushing
  // would only accumulate duplicates.
  if (!heap_.rank_depends_on_hits()) return;
  if (const auto* e = store_.find_by_id(id)) {
    heap_.push(*e);
    compact_heap();
  }
}

void Tcam::clear() {
  store_.clear();
  slots_used_ = 0;
  heap_.clear();
}

}  // namespace tango::tables
