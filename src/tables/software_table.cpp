#include "tables/software_table.h"

#include <algorithm>

namespace tango::tables {

// Min-heap order on (insert time, insertion serial): the heap top is the
// oldest entry, ties resolved towards the earlier insertion — which is also
// the earlier table position, matching the original front-to-back scan.
bool SoftwareTable::age_after(const AgeRecord& a, const AgeRecord& b) {
  if (a.insert_ns != b.insert_ns) return a.insert_ns > b.insert_ns;
  return a.seq > b.seq;
}

// Pushes the entry at `pos` and, when stale records dominate, rebuilds the
// heap from the live ones.
void SoftwareTable::push_age(std::size_t pos) {
  const FlowEntry& e = store_.entries()[pos];
  age_heap_.push_back(AgeRecord{e.attrs.insert_time.ns(), store_.serial_at(pos), e.id});
  std::push_heap(age_heap_.begin(), age_heap_.end(), age_after);
  if (age_heap_.size() <= 2 * store_.size() + 64) return;
  std::vector<AgeRecord> kept;
  kept.reserve(store_.size());
  for (const auto& r : age_heap_) {
    const FlowEntry* live = store_.find_by_id(r.id);
    if (live != nullptr && live->attrs.insert_time.ns() == r.insert_ns) {
      kept.push_back(r);
    }
  }
  age_heap_ = std::move(kept);
  std::make_heap(age_heap_.begin(), age_heap_.end(), age_after);
}

bool SoftwareTable::insert(FlowEntry entry) {
  if (capacity_ != 0 && store_.size() >= capacity_) return false;
  const std::size_t pos = store_.size();
  store_.insert_at(pos, std::move(entry));
  push_age(pos);
  return true;
}

std::optional<FlowEntry> SoftwareTable::erase(FlowId id) {
  const auto pos = store_.position_of(id);
  if (!pos) return std::nullopt;
  return store_.remove_at(*pos);
}

std::vector<FlowEntry> SoftwareTable::erase_matching(const of::Match& filter) {
  // Removed entries come back in descending table order — the order the
  // original one-at-a-time reverse sweep produced.
  return store_.remove_batch(store_.subsumed_positions(filter));
}

std::vector<FlowEntry> SoftwareTable::take_expired(SimTime now) {
  return store_.remove_batch(store_.expired_positions(now));
}

std::optional<FlowEntry> SoftwareTable::pop_oldest() {
  while (!age_heap_.empty()) {
    const AgeRecord top = age_heap_.front();
    std::pop_heap(age_heap_.begin(), age_heap_.end(), age_after);
    age_heap_.pop_back();
    const auto pos = store_.position_of(top.id);
    if (!pos) continue;  // stale: entry left the table
    if (store_.entries()[*pos].attrs.insert_time.ns() != top.insert_ns) continue;
    return store_.remove_at(*pos);
  }
  return std::nullopt;
}

FlowEntry* SoftwareTable::lookup(const of::PacketHeader& pkt) {
  // Winner: highest priority; ties go to the earliest-inserted entry
  // (lowest position), matching the original front-to-back strict-> scan.
  return store_.best_match(
      pkt, [](const FlowEntry& e, std::size_t pos, const FlowEntry& best,
              std::size_t best_pos) {
        return e.priority > best.priority ||
               (e.priority == best.priority && pos < best_pos);
      });
}

bool SoftwareTable::replace(FlowId id, FlowEntry entry) {
  const auto pos = store_.replace(id, std::move(entry));
  if (!pos) return false;
  // The replacement restarts the entry's clock; record the new insertion
  // time under the original serial so age order still follows position.
  push_age(*pos);
  return true;
}

void SoftwareTable::clear() {
  store_.clear();
  age_heap_.clear();
}

void MicroflowCache::insert(const of::PacketHeader& key, FlowId source_rule,
                            const of::ActionList& actions, SimTime now) {
  const std::uint64_t rule_seq = next_seq_++;
  const auto it = map_.find(key);
  std::uint64_t fifo_seq;
  if (it == map_.end()) {
    // Evict in FIFO order until a slot opens. Stale pairs (key since
    // evicted, invalidated, or re-keyed) don't shrink the map, so the loop
    // skips past them and removes exactly the victims an eagerly-maintained
    // FIFO would have.
    while (capacity_ != 0 && map_.size() >= capacity_ && !fifo_.empty()) {
      const auto& [k, fseq] = fifo_.front();
      const auto vit = map_.find(k);
      if (vit != map_.end() && vit->second.fifo_seq == fseq) map_.erase(vit);
      fifo_.pop_front();
    }
    fifo_seq = rule_seq;
    fifo_.emplace_back(key, fifo_seq);
  } else {
    // Overwriting a resident key keeps its FIFO position.
    fifo_seq = it->second.fifo_seq;
  }
  map_[key] = Entry{source_rule, actions, now, fifo_seq, rule_seq};
  by_rule_[source_rule].emplace_back(key, rule_seq);
  ++by_rule_total_;
  maybe_compact();
}

std::optional<MicroflowCache::Hit> MicroflowCache::lookup(
    const of::PacketHeader& key, SimTime now) {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  it->second.last_use = now;
  return Hit{it->second.source_rule, &it->second.actions};
}

void MicroflowCache::invalidate_rule(FlowId source_rule) {
  const auto it = by_rule_.find(source_rule);
  if (it == by_rule_.end()) return;
  for (const auto& [key, rseq] : it->second) {
    const auto mit = map_.find(key);
    if (mit != map_.end() && mit->second.rule_seq == rseq) map_.erase(mit);
  }
  by_rule_total_ -= it->second.size();
  by_rule_.erase(it);
  // fifo_ may keep stale pairs; eviction and compaction skip them lazily.
}

void MicroflowCache::maybe_compact() {
  if (fifo_.size() > 2 * map_.size() + 64) {
    std::erase_if(fifo_, [this](const auto& pair) {
      const auto it = map_.find(pair.first);
      return it == map_.end() || it->second.fifo_seq != pair.second;
    });
  }
  if (by_rule_total_ > 4 * map_.size() + 64) {
    by_rule_total_ = 0;
    for (auto it = by_rule_.begin(); it != by_rule_.end();) {
      auto& vec = it->second;
      std::erase_if(vec, [this](const auto& pair) {
        const auto mit = map_.find(pair.first);
        return mit == map_.end() || mit->second.rule_seq != pair.second;
      });
      if (vec.empty()) {
        it = by_rule_.erase(it);
      } else {
        by_rule_total_ += vec.size();
        ++it;
      }
    }
  }
}

void MicroflowCache::clear() {
  map_.clear();
  fifo_.clear();
  by_rule_.clear();
  by_rule_total_ = 0;
}

}  // namespace tango::tables
