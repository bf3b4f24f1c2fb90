// TCAM model with physical-ordering (shift) accounting.
//
// Hardware TCAMs resolve priority by physical position: the entry array is
// kept sorted by rule priority, and inserting a rule "between" existing
// entries forces the switch software to shift entries to open a slot. That
// shifting is what makes descending-priority installation dramatically
// slower than ascending on real switches (paper §3, Fig 3(c)); this model
// counts the shifts so the latency model can charge for them.
//
// Capacity accounting follows §3's Table 1 discussion: a TCAM operates in
// single-wide mode (entries match only L2 *or* only L3 headers, 1 slot
// each), double-wide mode (every entry occupies 2 slots, any layer mix), or
// adaptive mode (L2-only/L3-only cost 1 slot, L2+L3 cost 2 — Switch #3).
//
// The physical array is the source of truth (entries() order is the
// observable physical order and the shift counts derive from it). It lives
// in a RuleStore, whose indexes keep point operations off linear scans; the
// Tcam adds only what is TCAM-specific: slot accounting per width mode,
// priority placement, shift arithmetic, the top-down lookup winner (the
// highest matching position), and a lazy eviction heap when a cache policy
// is attached. Results are bit-identical to the linear scans the indexes
// replaced (see the ReferenceTcam differential suite in
// tests/test_table_diff.cpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tables/eviction_heap.h"
#include "tables/flow_entry.h"
#include "tables/rule_store.h"

namespace tango::tables {

enum class TcamMode { kSingleWide, kDoubleWide, kAdaptive };

std::string to_string(TcamMode mode);

struct TcamConfig {
  std::size_t capacity_slots = 4096;
  TcamMode mode = TcamMode::kSingleWide;
};

struct TcamInsertOutcome {
  bool accepted = false;
  std::size_t shifts = 0;        ///< entries physically moved to open the slot
  std::string reject_reason;     ///< set when !accepted
};

struct TcamEraseOutcome {
  std::size_t removed = 0;
  std::size_t shifts = 0;        ///< compaction moves
};

class Tcam {
 public:
  explicit Tcam(TcamConfig config) : config_(config) {}

  /// Slots an entry of this shape occupies, or nullopt if the mode cannot
  /// hold it at all (e.g. L2+L3 in single-wide mode).
  [[nodiscard]] std::optional<std::size_t> slots_for(const of::Match& match) const;

  [[nodiscard]] bool can_fit(const of::Match& match) const;

  /// Insert keeping priority order. Rejects when slots are exhausted or the
  /// entry shape is unsupported; never evicts (eviction is the owning
  /// switch's cache-policy decision).
  TcamInsertOutcome insert(FlowEntry entry);

  /// Remove by flow id. Counts compaction shifts.
  TcamEraseOutcome erase(FlowId id);

  /// Remove by flow id, returning the entry. Compaction shifts are *added*
  /// to `*shifts` when non-null (callers accumulate across levels).
  std::optional<FlowEntry> take(FlowId id, std::size_t* shifts = nullptr);

  /// Remove all entries whose match is subsumed by `filter` (non-strict
  /// OpenFlow delete). Returns removed entries.
  std::vector<FlowEntry> erase_matching(const of::Match& filter,
                                        std::size_t* shifts_out = nullptr);

  /// Remove every entry whose idle/hard timeout elapsed by `now`. O(1) when
  /// no resident entry carries a timeout.
  std::vector<FlowEntry> take_expired(SimTime now);

  /// Highest-priority entry matching the packet (ties: most recent insert).
  FlowEntry* lookup(const of::PacketHeader& pkt);

  /// Exact (match, priority) find, nullptr if absent.
  FlowEntry* find_strict(const of::Match& match, std::uint16_t priority) {
    return store_.find_strict(match, priority);
  }

  [[nodiscard]] const FlowEntry* find_by_id(FlowId id) const {
    return store_.find_by_id(id);
  }
  FlowEntry* find_by_id(FlowId id) { return store_.find_by_id(id); }

  /// Apply `fn` to every entry subsumed by `filter`, in physical order.
  /// `fn` must not change an entry's match, priority, or id (use
  /// note_attrs_changed() after mutating policy attributes). Returns the
  /// number of entries visited.
  template <typename Fn>
  std::size_t for_each_matching(const of::Match& filter, Fn&& fn) {
    return store_.for_each_matching(filter, std::forward<Fn>(fn));
  }

  /// In-place modification of actions for all entries subsumed by `filter`
  /// (OpenFlow MODIFY). Returns number updated; no shifts are incurred.
  std::size_t modify_matching(const of::Match& filter, const of::ActionList& actions) {
    return store_.modify_matching(filter, actions);
  }

  /// Overwrite the entry with this id in place (the OpenFlow ADD-replaces-
  /// duplicate path). The replacement must carry the same id, match, and
  /// priority; position and shift state are untouched. False if absent.
  bool replace(FlowId id, FlowEntry entry);

  // --- cache-policy eviction (kPolicyCache levels) -------------------------
  /// Attach the owning switch's policy (non-owning; nullptr detaches).
  /// Enables victim_id(); resident entries are re-indexed into the heap.
  void set_eviction_policy(const LexCachePolicy* policy);

  /// The policy's eviction victim among resident entries — identical to
  /// LexCachePolicy::victim_index over entries() — or nullopt when empty.
  /// Requires an attached policy.
  std::optional<FlowId> victim_id();

  /// Re-rank `id` after an external mutation of its policy attributes
  /// (e.g. record_hit). No-op when no policy is attached.
  void note_attrs_changed(FlowId id);

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] std::size_t slots_used() const { return slots_used_; }
  [[nodiscard]] std::size_t slots_total() const { return config_.capacity_slots; }
  [[nodiscard]] const TcamConfig& config() const { return config_; }

  /// Shrink (or grow) raw slot capacity in place — models a partial
  /// hardware failure or firmware change. The caller must first evict
  /// entries until slots_used() fits the new capacity (asserted).
  void set_capacity_slots(std::size_t n) {
    assert(slots_used_ <= n);
    config_.capacity_slots = n;
  }

  /// Entries in physical (ascending-priority) order.
  [[nodiscard]] const std::vector<FlowEntry>& entries() const { return store_.entries(); }

  void clear();

 private:
  /// Remove the entries at `desc` (positions, strictly descending), in that
  /// order, mirroring the shift accounting of one-at-a-time erasure.
  std::vector<FlowEntry> remove_batch(const std::vector<std::size_t>& desc,
                                      std::size_t* shifts_out);
  void compact_heap();

  TcamConfig config_;
  RuleStore store_;  // ascending priority; equal-priority FIFO
  std::size_t slots_used_ = 0;
  EvictionHeap heap_;
};

}  // namespace tango::tables
