// Standby controller shadow (HA tentpole, part 2 of 3).
//
// The standby consumes the replication stream and maintains a bounded-lag
// shadow of the primary: the knowledge base and trust snapshots from the
// last checkpoint, plus one TxnShadow per journaled transaction — the full
// shipped intent list, which entries were acked on the wire, and whether
// the primary reported the commit finished. At takeover, the unfinished
// shadows are exactly the transactions in flight at the crash; the shipped
// journal is everything the new primary needs to roll each one forward or
// back.
//
// Failover detection is a heartbeat watchdog: the threshold is
// missed_heartbeats * expected-interval, where the expected interval is
// learned from observed inter-arrival times via a net::RttEstimator, with
// the configured interval as the fallback/ceiling.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "ha/replication.h"
#include "net/rtt.h"
#include "tango/tango.h"

namespace tango::ha {

/// One journaled transaction as mirrored by the standby.
struct TxnShadow {
  ShippedTxn txn;
  /// dag_id -> accepted, for entries whose ack record arrived.
  std::map<std::size_t, bool> acked;
  bool finished = false;
  bool committed = false;
  bool rolled_back = false;
};

struct StandbyStats {
  std::uint64_t records_received = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t checkpoints_applied = 0;
  std::uint64_t txns_shadowed = 0;
  /// Upstream losses detected from seq jumps (loss windows, partitions).
  std::uint64_t seq_gaps = 0;
  SimTime last_heartbeat_at{};
  SimTime last_checkpoint_at{};
  /// Worst delivery delay observed (delivered_at - sent_at).
  SimDuration max_replication_lag{};
};

struct StandbyOptions {
  /// Expected heartbeat interval (fallback for the adaptive watchdog).
  SimDuration heartbeat_interval = millis(10);
  /// Heartbeats that must go missing before the primary is suspected.
  std::size_t missed_heartbeats = 3;
  /// Learn the interval from observed arrivals (off = fixed threshold).
  bool adaptive = true;
};

class StandbyController {
 public:
  explicit StandbyController(StandbyOptions options) : options_(options) {}

  /// Consume one delivered record at virtual time `now`.
  void receive(const ReplicationRecord& rec, SimTime now);

  /// Failover verdict: no heartbeat for longer than threshold(). Requires
  /// at least one received heartbeat (arm() seeds the clock at start).
  [[nodiscard]] bool primary_suspect(SimTime now) const;

  /// Current miss threshold: missed_heartbeats * learned interval, capped
  /// at missed_heartbeats * configured interval.
  [[nodiscard]] SimDuration threshold() const;

  /// Seed the watchdog clock (HA start / post-takeover re-arm): heartbeats
  /// are considered current as of `now`.
  void arm(SimTime now) { stats_.last_heartbeat_at = now; armed_ = true; }

  /// Shadow knowledge from the last checkpoint, keyed by switch.
  [[nodiscard]] const std::map<SwitchId, core::SwitchKnowledge>& knowledge() const {
    return knowledge_;
  }
  [[nodiscard]] const std::map<SwitchId, HealthSnapshot>& health() const {
    return health_;
  }

  /// Age of the shadow knowledge (time since the last applied checkpoint).
  [[nodiscard]] SimDuration knowledge_age(SimTime now) const {
    return now - stats_.last_checkpoint_at;
  }

  [[nodiscard]] const std::map<std::uint32_t, TxnShadow>& txns() const {
    return txns_;
  }

  /// Unfinished shadows — the transactions in flight at the crash.
  [[nodiscard]] std::map<std::uint32_t, TxnShadow> inflight() const;

  /// Finished shadows whose primary reported committed=true — takeover must
  /// not lose these (the "no committed transaction lost" oracle's input).
  [[nodiscard]] std::map<std::uint32_t, TxnShadow> committed() const;

  /// Drop all shadow transaction state (a fresh epoch's stream begins; the
  /// new primary re-journals whatever is still in flight).
  void reset_shadow() { txns_.clear(); }

  [[nodiscard]] const StandbyStats& stats() const { return stats_; }

 private:
  StandbyOptions options_;
  bool armed_ = false;
  std::uint64_t last_seq_ = 0;
  net::RttEstimator interval_estimator_;
  std::map<SwitchId, core::SwitchKnowledge> knowledge_;
  std::map<SwitchId, HealthSnapshot> health_;
  std::map<std::uint32_t, TxnShadow> txns_;
  StandbyStats stats_;
};

}  // namespace tango::ha
