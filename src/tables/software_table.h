// Software flow tables: the user-space wildcard table (virtually unbounded;
// the *simulated* lookup stays slow via the path-delay model) and the kernel
// exact-match microflow cache that OVS populates from data-plane traffic
// (§3 "Diverse flow installation behaviors": one user-space entry can map to
// many kernel microflows).
//
// Both tables are index-backed so wall-clock cost per simulated operation
// stays near O(1): the wildcard table keeps its entries in the same
// RuleStore as the TCAM (tuple-space, strict and id indexes) and adds only
// its capacity, its lookup winner (highest priority, then lowest position)
// and a lazy min-heap over insertion times for pop_oldest; the microflow
// cache keeps a per-rule key index and a sequence-guarded FIFO so rule
// invalidation no longer walks the whole cache. Observable behaviour is
// bit-identical to the linear-scan implementations these replaced (see
// tests/test_table_diff.cpp).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tables/flow_entry.h"
#include "tables/rule_store.h"

namespace tango::tables {

/// Priority-ordered wildcard table; capacity 0 means unbounded. Entries are
/// kept in insertion order (the observable order of entries() and stats).
class SoftwareTable {
 public:
  explicit SoftwareTable(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Insert; fails only when a finite capacity is exhausted.
  bool insert(FlowEntry entry);

  /// Remove by id; returns the removed entry if present.
  std::optional<FlowEntry> erase(FlowId id);

  /// Remove all entries subsumed by `filter`.
  std::vector<FlowEntry> erase_matching(const of::Match& filter);

  /// Remove every entry whose idle/hard timeout elapsed by `now`. O(1) when
  /// no resident entry carries a timeout.
  std::vector<FlowEntry> take_expired(SimTime now);

  /// Pop the oldest-inserted entry (Switch #1's FIFO promotion source).
  /// Ties on insertion time break towards the earlier position.
  std::optional<FlowEntry> pop_oldest();

  FlowEntry* lookup(const of::PacketHeader& pkt);
  FlowEntry* find_strict(const of::Match& match, std::uint16_t priority) {
    return store_.find_strict(match, priority);
  }

  [[nodiscard]] const FlowEntry* find_by_id(FlowId id) const {
    return store_.find_by_id(id);
  }
  FlowEntry* find_by_id(FlowId id) { return store_.find_by_id(id); }

  /// Apply `fn` to every entry subsumed by `filter`, in table order. `fn`
  /// must not change an entry's match, priority, id, or insertion time.
  /// Returns the number of entries visited.
  template <typename Fn>
  std::size_t for_each_matching(const of::Match& filter, Fn&& fn) {
    return store_.for_each_matching(filter, std::forward<Fn>(fn));
  }

  std::size_t modify_matching(const of::Match& filter, const of::ActionList& actions) {
    return store_.modify_matching(filter, actions);
  }

  /// Overwrite the entry with this id in place (ADD-replaces-duplicate).
  /// Must carry the same id, match, and priority; false if absent.
  bool replace(FlowId id, FlowEntry entry);

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] bool unbounded() const { return capacity_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const { return store_.entries(); }
  void clear();

 private:
  struct AgeRecord {
    std::int64_t insert_ns = 0;
    std::uint64_t seq = 0;  ///< the store's insert serial; orders equal timestamps
    FlowId id = 0;
  };
  static bool age_after(const AgeRecord& a, const AgeRecord& b);
  void push_age(std::size_t pos);

  std::size_t capacity_;
  RuleStore store_;  // insertion order
  /// Lazy min-heap on (insert_ns, seq); stale records (id gone or
  /// insert time changed by replacement) are discarded on pop.
  std::vector<AgeRecord> age_heap_;
};

/// Exact-match cache keyed by full packet header. FIFO-evicting, like the
/// bounded kernel flow cache in OVS.
///
/// The FIFO and the per-rule index hold (key, sequence) pairs and are
/// cleaned lazily: a pair is live only while the mapped entry still carries
/// the same sequence, so eviction order and invalidation results are
/// identical to eagerly-maintained structures without the O(cache) sweeps.
class MicroflowCache {
 public:
  explicit MicroflowCache(std::size_t capacity = 200000) : capacity_(capacity) {}

  /// Cache the forwarding decision for this exact header. The entry
  /// remembers which wildcard rule produced it so stats can be attributed.
  void insert(const of::PacketHeader& key, FlowId source_rule,
              const of::ActionList& actions, SimTime now);

  struct Hit {
    FlowId source_rule;
    const of::ActionList* actions;
  };
  std::optional<Hit> lookup(const of::PacketHeader& key, SimTime now);

  /// Drop every microflow derived from the given wildcard rule (rule
  /// deletion/modification must invalidate its microflows). O(microflows
  /// of that rule), not O(cache).
  void invalidate_rule(FlowId source_rule);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool contains(const of::PacketHeader& key) const {
    return map_.find(key) != map_.end();
  }
  void clear();

 private:
  struct Entry {
    FlowId source_rule;
    of::ActionList actions;
    SimTime last_use;
    std::uint64_t fifo_seq = 0;  ///< constant while the key stays resident
    std::uint64_t rule_seq = 0;  ///< bumped on every (re)insert
  };
  void maybe_compact();

  std::size_t capacity_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<of::PacketHeader, Entry, of::PacketHeaderHash> map_;
  std::deque<std::pair<of::PacketHeader, std::uint64_t>> fifo_;
  std::unordered_map<FlowId,
                     std::vector<std::pair<of::PacketHeader, std::uint64_t>>>
      by_rule_;
  std::size_t by_rule_total_ = 0;
};

}  // namespace tango::tables
