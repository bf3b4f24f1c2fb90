// The indexed entry store under both bounded and software flow tables.
//
// A RuleStore holds flow entries in table order (the order entries()
// exposes) together with the side indexes that keep every point operation
// off a linear scan: an id -> position map, a tuple-space index for
// lookup/subsumption, and a strict (match, priority) hash for OpenFlow
// strict ops. It also counts resident entries carrying a timeout, so an
// expiry sweep is O(1) when none do, and stamps every insert with a serial
// number that moves with its entry.
//
// The store decides nothing a table models: where an entry goes, which of
// several matches wins a lookup, and what a move costs stay with the owner
// (tables::Tcam places by priority and charges shifts; tables::SoftwareTable
// appends and ages by serial). The indexes are accelerators only — results
// are bit-identical to the linear scans in tests/reference_table.h (see
// tests/test_table_diff.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tables/flow_entry.h"
#include "tables/tuple_index.h"

namespace tango::tables {

class RuleStore {
 public:
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const std::vector<FlowEntry>& entries() const { return entries_; }
  /// Insert serial of the entry at `pos` (unique, increasing per insert).
  [[nodiscard]] std::uint64_t serial_at(std::size_t pos) const { return serials_[pos]; }
  [[nodiscard]] std::optional<std::size_t> position_of(FlowId id) const {
    const auto it = pos_.find(id);
    if (it == pos_.end()) return std::nullopt;
    return it->second;
  }

  /// Insert at `pos`, moving the entries at and after it up one position.
  const FlowEntry& insert_at(std::size_t pos, FlowEntry entry);

  /// Remove and return the entry at `pos`; later entries move down one.
  FlowEntry remove_at(std::size_t pos);

  /// Remove the entries at `desc` (positions, strictly descending) with one
  /// compaction pass. Returns them in `desc` order; empty `desc` is a no-op.
  std::vector<FlowEntry> remove_batch(const std::vector<std::size_t>& desc);

  /// Positions, strictly descending, of the entries `filter` subsumes. The
  /// result lives in a reused buffer valid until the next store call.
  const std::vector<std::size_t>& subsumed_positions(const of::Match& filter);

  /// Positions, strictly descending, of the entries whose idle or hard
  /// timeout elapsed by `now`. Same buffer as subsumed_positions().
  const std::vector<std::size_t>& expired_positions(SimTime now);

  /// The matching entry `beats` ranks best: `beats(e, pos, best, best_pos)`
  /// is true when candidate `e` at `pos` displaces the current best.
  template <typename Beats>
  FlowEntry* best_match(const of::PacketHeader& pkt, Beats&& beats) {
    FlowEntry* best = nullptr;
    std::size_t best_pos = 0;
    tuple_.for_each_candidate(pkt, [&](FlowId id) {
      const std::size_t pos = pos_.find(id)->second;
      FlowEntry& e = entries_[pos];
      if (!e.match.matches(pkt)) return;
      if (best == nullptr || beats(e, pos, *best, best_pos)) {
        best = &e;
        best_pos = pos;
      }
    });
    return best;
  }

  /// Apply `fn` to every entry subsumed by `filter`, in table order. `fn`
  /// must not change an entry's match, priority or id. Returns the number
  /// of entries visited.
  template <typename Fn>
  std::size_t for_each_matching(const of::Match& filter, Fn&& fn) {
    collect_subsumed(filter);
    std::sort(scratch_.begin(), scratch_.end());
    for (const std::size_t pos : scratch_) fn(entries_[pos]);
    return scratch_.size();
  }

  /// Set the actions of every entry subsumed by `filter` (OpenFlow
  /// MODIFY). Returns the number updated.
  std::size_t modify_matching(const of::Match& filter, const of::ActionList& actions);

  /// The earliest-inserted entry with exactly this (match, priority).
  FlowEntry* find_strict(const of::Match& match, std::uint16_t priority);

  [[nodiscard]] const FlowEntry* find_by_id(FlowId id) const {
    const auto it = pos_.find(id);
    return it == pos_.end() ? nullptr : &entries_[it->second];
  }
  FlowEntry* find_by_id(FlowId id) {
    return const_cast<FlowEntry*>(std::as_const(*this).find_by_id(id));
  }

  /// Overwrite the entry with this id in place. The replacement must carry
  /// the same id, match and priority. Returns its position, or nullopt if
  /// the id is absent.
  std::optional<std::size_t> replace(FlowId id, FlowEntry entry);

  void clear();

 private:
  static bool is_timed(const FlowEntry& e) {
    return e.idle_timeout != 0 || e.hard_timeout != 0;
  }
  void unindex(const FlowEntry& e);
  void collect_subsumed(const of::Match& filter);

  std::vector<FlowEntry> entries_;
  std::vector<std::uint64_t> serials_;  // parallel to entries_
  std::uint64_t next_serial_ = 0;
  std::size_t timed_ = 0;               // resident entries with a timeout set
  std::unordered_map<FlowId, std::size_t> pos_;
  TupleSpaceIndex tuple_;
  StrictIndex strict_;
  std::vector<std::size_t> scratch_;    // candidate positions, reused
};

}  // namespace tango::tables
