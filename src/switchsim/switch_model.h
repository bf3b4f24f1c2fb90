// Behavioural model of an OpenFlow switch with vendor-diverse internals.
//
// Four architectures cover the diversity observed in the paper's Section 3:
//
//  * kOvsMicroflow — OVS: unbounded user-space wildcard table + exact-match
//    kernel cache populated by data traffic (1-to-N mapping). Three-tier
//    delay (Fig 2a), priority-independent installation (Fig 3c).
//  * kFifoTwoLevel — Switch #1: TCAM + user-space virtual tables where the
//    software table acts as a FIFO buffer feeding the TCAM: placement is
//    traffic-independent; the oldest software entry is promoted whenever a
//    TCAM slot frees (Fig 2b).
//  * kTcamOnly — Switch #2/#3: TCAM is the only table; inserts beyond
//    capacity are rejected with OFPET_FLOW_MOD_FAILED (Fig 2c).
//  * kPolicyCache — the general multi-level model of §5.1: bounded levels
//    ordered fastest-first, managed by a lexicographic cache policy that
//    evicts downward and promotes on data-plane hits. This is the target
//    the inference algorithms are tested against.
//
// The switch charges control-plane time per flow_mod via LatencyModel
// (including TCAM shift costs) and data-plane delay per lookup level.
#pragma once

#include <map>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "openflow/messages.h"
#include "openflow/packet.h"
#include "switchsim/latency_model.h"
#include "switchsim/misbehavior.h"
#include "tables/cache_policy.h"
#include "tables/software_table.h"
#include "tables/tcam.h"

namespace tango::switchsim {

enum class Architecture { kOvsMicroflow, kFifoTwoLevel, kTcamOnly, kPolicyCache };

std::string to_string(Architecture arch);

struct SwitchProfile {
  std::string name = "switch";
  std::string vendor = "unknown";
  Architecture arch = Architecture::kTcamOnly;
  /// Bounded cache levels, fastest first. Generic bounded levels use
  /// single-wide configs whose slot count equals the entry capacity.
  std::vector<tables::TcamConfig> cache_levels;
  /// Whether an unbounded software table backs the bounded levels.
  bool software_backing = false;
  /// Cache policy for kPolicyCache architectures.
  tables::LexCachePolicy policy = tables::LexCachePolicy::fifo();
  OpCostModel costs;
  PathDelayModel paths;
  /// Hard cap on total rules (0 = unbounded). Models virtual-table limits.
  std::size_t max_total_rules = 0;
  /// Install a lowest-priority default route on reset (the paper notes the
  /// hardware switches arrive with one preinstalled, hence 2047 usable
  /// TCAM entries out of 2048 in Fig 2b).
  bool install_default_route = false;
  std::size_t microflow_capacity = 1 << 18;
  std::size_t n_ports = 8;
};

struct ForwardOutcome {
  enum class Kind { kForwarded, kToController, kDropped };
  Kind kind = Kind::kDropped;
  /// Flow-table level that matched (see SwitchProfile::paths.level_delay
  /// for the per-level latency; only valid for kForwarded).
  std::size_t level = 0;
  SimDuration delay{};
  std::uint16_t out_port = of::kPortNone;
};

struct FlowModOutcome {
  bool accepted = true;
  SimDuration processing_time{};
  std::optional<of::ErrorMsg> error;
  /// Diagnostics for white-box tests: TCAM entries physically moved.
  std::size_t shifts = 0;
};

class SimulatedSwitch {
 public:
  SimulatedSwitch(SwitchId id, SwitchProfile profile, std::uint64_t seed = 1);

  [[nodiscard]] SwitchId id() const { return id_; }
  [[nodiscard]] const SwitchProfile& profile() const { return profile_; }

  /// Apply one flow_mod at simulated time `now`; mutates tables and returns
  /// the charged control-plane processing time (or a rejection).
  FlowModOutcome apply_flow_mod(const of::FlowMod& fm, SimTime now);

  /// Forward one data-plane packet at `now`, updating per-flow counters and
  /// performing any traffic-triggered placement (microflow install,
  /// policy-cache promotion).
  ForwardOutcome forward(const of::Packet& pkt, SimTime now);

  [[nodiscard]] of::FeaturesReply features() const;
  [[nodiscard]] of::TableStatsReply table_stats() const;
  [[nodiscard]] of::FlowStatsReply flow_stats(const of::Match& filter) const;

  /// Aggregate counters over all rules subsumed by `filter`.
  [[nodiscard]] of::AggregateStatsReply aggregate_stats(const of::Match& filter) const;

  /// Switch description (vendor/model strings from the profile).
  [[nodiscard]] of::DescStatsReply description() const;

  /// Per-port rx/tx counters; `port_no` = kPortNone for all ports.
  [[nodiscard]] of::PortStatsReply port_stats(std::uint16_t port_no) const;

  // --- switch configuration & ports ----------------------------------------
  [[nodiscard]] of::GetConfigReply config() const;
  void set_config(const of::SetConfig& cfg);

  /// Administratively configure a port (OFPT_PORT_MOD): masked config bits.
  void apply_port_mod(const of::PortMod& pm);

  /// Simulate a physical link transition on a port; queues a PORT_STATUS
  /// notification for the controller and drops traffic on downed ports.
  void set_port_link(std::uint16_t port_no, bool up);

  [[nodiscard]] bool port_forwarding(std::uint16_t port_no) const;

  /// Take queued PORT_STATUS notifications.
  std::vector<of::PortStatus> drain_port_status();

  /// Expire flows whose idle/hard timeout elapsed by `now`. Expired entries
  /// with OFPFF_SEND_FLOW_REM queue a FLOW_REMOVED notice; the channel
  /// drains the queue. Invoked lazily by the channel before each message
  /// and by forward(), so expiry is observed no later than the next
  /// interaction with the switch.
  void sweep_timeouts(SimTime now);

  /// Take the queued FLOW_REMOVED notifications.
  std::vector<of::FlowRemoved> drain_removals();

  /// Remove all rules and reinstall the default route; clears counters.
  void reset();

  // --- white-box introspection (tests, benches, ground truth) -------------
  [[nodiscard]] std::size_t total_rules() const;
  [[nodiscard]] std::size_t bounded_levels() const { return levels_.size(); }
  [[nodiscard]] std::size_t level_size(std::size_t level) const;
  [[nodiscard]] std::size_t software_size() const { return software_.size(); }
  [[nodiscard]] std::size_t microflow_size() const { return microflow_.size(); }
  /// Entries currently resident at a bounded level.
  [[nodiscard]] std::vector<const tables::FlowEntry*> level_entries(std::size_t level) const;
  /// True if a rule with this match+priority currently sits at `level`.
  [[nodiscard]] bool resident_at_level(const of::Match& match, std::uint16_t priority,
                                       std::size_t level) const;
  /// Ground-truth capacity (entries) of a bounded level for the default
  /// single-wide shapes used by the probing patterns.
  [[nodiscard]] std::size_t level_capacity(std::size_t level) const;

  LatencyModel& latency() { return latency_; }

  // --- semantic misbehavior (see misbehavior.h) ----------------------------
  /// Arm a misbehavior profile. Events activate lazily in sweep_timeouts()
  /// once virtual time passes their scheduled instant; lie budgets are then
  /// consumed by subsequent operations, drift applies immediately. Replaces
  /// any previous profile but keeps accumulated stats.
  void set_misbehavior(MisbehaviorProfile profile);

  /// Drop pending events and unconsumed lie budgets (drift that already
  /// applied persists — the hardware really changed). Stats are kept.
  void clear_misbehavior();

  [[nodiscard]] const MisbehaviorStats& misbehavior_stats() const;

  /// Events not yet activated + lie occurrences still armed.
  [[nodiscard]] std::size_t misbehavior_pending() const;

  /// Truncate bounded level `level` to `new_capacity_slots`, displacing
  /// highest-physical-position entries into the software table when the
  /// profile has one (else they are lost). Returns entries displaced.
  std::size_t shrink_level(std::size_t level, std::size_t new_capacity_slots);

  // --- controller-epoch fencing (HA failover; see openflow/epoch.h) --------
  struct EpochClaim {
    bool accepted = false;
    std::uint32_t current_epoch = 0;
  };
  /// Explicit mastership claim (the vendor epoch-claim message lands here).
  /// Monotonic: a claim below the highest epoch this switch has seen is
  /// refused, so a deposed primary cannot re-fence the switch. Any accepted
  /// claim also re-synchronizes a rebooted switch (see epoch_synced()).
  EpochClaim claim_epoch(std::uint32_t epoch);

  /// Highest controller epoch that has claimed this switch (0 = never
  /// fenced). Fenced flow_mods carrying a *higher* epoch adopt it silently
  /// on first contact — so bringing up HA adds no extra wire traffic.
  [[nodiscard]] std::uint32_t controller_epoch() const {
    return controller_epoch_;
  }

  /// False between a reboot and the next successful claim_epoch(): a switch
  /// that was fenced before crashing lost its epoch memory with its tables,
  /// so it refuses *all* fenced flow_mods (pre-reboot frames still buffered
  /// in flight included) until the current primary re-handshakes.
  [[nodiscard]] bool epoch_synced() const { return epoch_synced_; }

  /// Fenced flow_mods refused for carrying a stale epoch or arriving before
  /// post-reboot re-sync. Survives reset(): it is a controller-visible
  /// diagnostic of split-brain pressure, not table state.
  [[nodiscard]] std::uint64_t stale_epoch_rejections() const {
    return stale_epoch_rejections_;
  }

  /// Invariant counter: fenced mutations *applied* while stale. Any nonzero
  /// value is a fencing bug; the chaos oracles assert it stays zero.
  [[nodiscard]] std::uint64_t stale_epoch_applied() const {
    return stale_epoch_applied_;
  }

 private:
  FlowModOutcome do_add(tables::FlowEntry entry, SimTime now);
  FlowModOutcome do_modify(const of::FlowMod& fm, SimTime now, bool strict);
  FlowModOutcome do_delete(const of::FlowMod& fm, SimTime now, bool strict);
  FlowModOutcome reject(const std::string& reason, of::FlowModFailedCode code);

  /// Insert into the bounded-level cascade (kPolicyCache). Returns shifts.
  bool cascade_insert(tables::FlowEntry entry, std::size_t* shifts,
                      bool* landed_software);

  /// Promote the policy-best software/lower-level entries into freed slots.
  void rebalance();

  tables::FlowEntry* find_strict_anywhere(const of::Match& match,
                                          std::uint16_t priority,
                                          std::size_t* level_out);

  // Per-level entry moves. Level levels_.size() is the software table.
  /// Remove `id` from `level`; TCAM compaction shifts are added to
  /// `*shifts` when non-null.
  std::optional<tables::FlowEntry> take_at_level(std::size_t level, FlowId id,
                                                 std::size_t* shifts = nullptr);
  void insert_at_level(std::size_t level, tables::FlowEntry entry);
  void replace_at_level(std::size_t level, FlowId id, tables::FlowEntry entry);

  void install_default_route();

  /// Lazily allocated misbehavior engine state (absent on the honest fast
  /// path so fault-free runs stay bit-identical and zero-cost).
  struct Misbehavior {
    std::vector<MisbehaviorEvent> events;  ///< sorted by `at`, ascending
    std::size_t next_event = 0;
    std::size_t silent_drop_budget = 0;
    std::size_t inversion_budget = 0;
    std::size_t stale_budget = 0;
    of::FlowStatsReply stale_snapshot;  ///< honest state at activation time
    MisbehaviorStats stats;
  };
  /// Activate events whose time has come; called from sweep_timeouts().
  void activate_misbehavior(SimTime now);
  void fabricate_removals(std::size_t count);

  SwitchId id_;
  SwitchProfile profile_;
  LatencyModel latency_;
  std::vector<tables::Tcam> levels_;
  tables::SoftwareTable software_;
  tables::MicroflowCache microflow_;
  struct PortState {
    std::uint32_t config = 0;  // ofp_port_config bits
    std::uint32_t state = 0;   // ofp_port_state bits
    of::PortStatsEntry counters;
  };
  PortState& port(std::uint16_t port_no);
  [[nodiscard]] of::PhyPort phy_port(std::uint16_t port_no) const;

  FlowId next_flow_id_ = 1;
  std::uint32_t controller_epoch_ = 0;
  bool epoch_synced_ = true;
  std::uint64_t stale_epoch_rejections_ = 0;
  std::uint64_t stale_epoch_applied_ = 0;
  std::unique_ptr<Misbehavior> mis_;
  std::vector<of::FlowRemoved> pending_removals_;
  std::vector<of::PortStatus> pending_port_status_;
  std::map<std::uint16_t, PortState> ports_;
  std::uint16_t miss_send_len_ = 128;
  std::uint16_t config_flags_ = 0;
  std::uint64_t lookup_count_ = 0;
  std::uint64_t matched_count_ = 0;
  SimTime last_now_{};
};

}  // namespace tango::switchsim
