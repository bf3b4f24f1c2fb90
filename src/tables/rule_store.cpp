#include "tables/rule_store.h"

#include <cassert>
#include <functional>

namespace tango::tables {

const FlowEntry& RuleStore::insert_at(std::size_t pos, FlowEntry entry) {
  for (std::size_t i = pos; i < entries_.size(); ++i) ++pos_[entries_[i].id];
  const auto at = static_cast<long>(pos);
  entries_.insert(entries_.begin() + at, std::move(entry));
  serials_.insert(serials_.begin() + at, next_serial_++);
  const FlowEntry& e = entries_[pos];
  pos_[e.id] = pos;
  tuple_.insert(e.match, e.id);
  strict_.insert(e.match, e.priority, e.id);
  if (is_timed(e)) ++timed_;
  return e;
}

void RuleStore::unindex(const FlowEntry& e) {
  if (is_timed(e)) --timed_;
  tuple_.erase(e.match, e.id);
  strict_.erase(e.match, e.priority, e.id);
  pos_.erase(e.id);
}

FlowEntry RuleStore::remove_at(std::size_t pos) {
  FlowEntry out = std::move(entries_[pos]);
  unindex(out);
  for (std::size_t i = pos + 1; i < entries_.size(); ++i) --pos_[entries_[i].id];
  const auto at = static_cast<long>(pos);
  entries_.erase(entries_.begin() + at);
  serials_.erase(serials_.begin() + at);
  return out;
}

std::vector<FlowEntry> RuleStore::remove_batch(const std::vector<std::size_t>& desc) {
  if (desc.empty()) return {};
  std::vector<FlowEntry> removed;
  removed.reserve(desc.size());
  for (const std::size_t p : desc) {
    unindex(entries_[p]);
    removed.push_back(std::move(entries_[p]));
  }
  // One-pass compaction over the holes (desc is strictly descending, so its
  // reverse view is ascending).
  const std::size_t n = entries_.size();
  std::size_t write = desc.back();
  std::size_t next = desc.size();  // walks desc from the back (ascending)
  std::size_t next_hole = desc[next - 1];
  for (std::size_t read = write; read < n; ++read) {
    if (next > 0 && read == next_hole) {
      --next;
      next_hole = next > 0 ? desc[next - 1] : n;
      continue;
    }
    entries_[write] = std::move(entries_[read]);
    serials_[write] = serials_[read];
    pos_[entries_[write].id] = write;
    ++write;
  }
  entries_.resize(write);
  serials_.resize(write);
  return removed;
}

void RuleStore::collect_subsumed(const of::Match& filter) {
  scratch_.clear();
  tuple_.for_each_subsumable(filter, [&](FlowId id) {
    const std::size_t pos = pos_.find(id)->second;
    if (filter.subsumes(entries_[pos].match)) scratch_.push_back(pos);
  });
}

const std::vector<std::size_t>& RuleStore::subsumed_positions(const of::Match& filter) {
  collect_subsumed(filter);
  std::sort(scratch_.begin(), scratch_.end(), std::greater<>());
  return scratch_;
}

const std::vector<std::size_t>& RuleStore::expired_positions(SimTime now) {
  scratch_.clear();
  // Expiry is time-based, not match-based, so collect by scan; the timed_
  // count keeps the common (no timeouts resident) case O(1).
  if (timed_ == 0) return scratch_;
  for (std::size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i].expired(now)) scratch_.push_back(i);
  }
  return scratch_;
}

std::size_t RuleStore::modify_matching(const of::Match& filter,
                                       const of::ActionList& actions) {
  return for_each_matching(filter, [&](FlowEntry& e) { e.actions = actions; });
}

FlowEntry* RuleStore::find_strict(const of::Match& match, std::uint16_t priority) {
  const auto* ids = strict_.candidates(match, priority);
  if (ids == nullptr) return nullptr;
  // Bucket order is insertion order, and neither table reorders entries of
  // one (match, priority) key, so the first verified candidate is the
  // front-to-back scan's first hit.
  for (const FlowId id : *ids) {
    FlowEntry& e = entries_[pos_.find(id)->second];
    if (e.priority == priority && e.match == match) return &e;
  }
  return nullptr;
}

std::optional<std::size_t> RuleStore::replace(FlowId id, FlowEntry entry) {
  const auto it = pos_.find(id);
  if (it == pos_.end()) return std::nullopt;
  FlowEntry& old = entries_[it->second];
  assert(entry.id == id && entry.match == old.match &&
         entry.priority == old.priority);
  if (is_timed(old)) --timed_;
  if (is_timed(entry)) ++timed_;
  old = std::move(entry);
  return it->second;
}

void RuleStore::clear() {
  entries_.clear();
  serials_.clear();
  timed_ = 0;
  pos_.clear();
  tuple_.clear();
  strict_.clear();
}

}  // namespace tango::tables
