// The chaos harness: run one workload under one fault schedule and judge
// the outcome.
//
// run_chaos() builds a fresh three-switch network, preinstalls the
// workload's pre-state, wraps the update in an UpdateTransaction, lowers
// the schedule onto per-switch FaultInjector scheduled-event lists
// (absolute times = commit start + event offset), commits through the
// Dionysus scheduler, drains the event queue to a quiescent point, and
// runs every invariant oracle (oracles.h) over the result.
//
// Everything is deterministic: the same ChaosSchedule always produces the
// same virtual-time trace, byte for byte. The 64-bit `fingerprint` folds
// the executor/transaction counters, per-switch fault stats, final table
// images, and the final virtual clock into one value so "bit-identical
// replay" is a single integer comparison.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/oracles.h"
#include "chaos/schedule.h"
#include "net/fault_injector.h"
#include "scheduler/transaction.h"
#include "switchsim/misbehavior.h"
#include "tango/tango.h"
#include "workload/scenarios.h"

namespace tango::chaos {

// --- building blocks shared with the HA harness (ha_harness.h) --------------

/// Zero the profile's latency jitter: chaos runs vary the *fault* schedule,
/// not the switch timing, so every divergence is attributable to faults.
switchsim::SwitchProfile quiet_profile(switchsim::SwitchProfile profile);

/// The recovery settings every chaos harness commits under: 200 ms request
/// timeout, 6 retries from a 5 ms backoff, 200 ms readbacks with 6 retries,
/// and up to 6 reconcile rounds.
sched::TransactionOptions recovery_preset();

/// Build the spec's workload DAG and lay down its pre-state on the testbed.
/// Returns whether the verifier oracle may assert per-rule cookies (false
/// for ACLs, whose first-match-wins overlap makes shadowing legitimate).
bool build_workload(const ChaosSpec& spec, net::Network& net,
                    const workload::TestbedIds& tb, sched::RequestDag& dag);

/// Ground-truth knowledge synthesized from the switch profile — what a
/// completed learn() would have produced, minus the probing cost.
core::SwitchKnowledge synthetic_knowledge(net::Network& net, SwitchId id);

/// FNV-1a fold primitives used by every chaos fingerprint.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
void fnv_fold(std::uint64_t& h, std::uint64_t v);
void fnv_fold_str(std::uint64_t& h, const std::string& s);

/// End tables of a run, keyed by switch.
using TableImages = std::map<SwitchId, sched::TableImage>;

/// Each switch's table read straight from the simulator, bypassing the
/// control channel.
TableImages snapshot_tables(net::Network& net, const std::vector<SwitchId>& ids);

/// Fold end tables into a fingerprint: per switch its id, then per rule its
/// key, cookie, priority, action count and output port.
void fnv_fold_tables(std::uint64_t& h, const TableImages& tables);

struct ChaosResult {
  ChaosSchedule schedule;
  sched::TransactionReport report;
  std::vector<OracleViolation> violations;
  /// FNV-1a over counters, fault stats, final tables, and the final clock
  /// (plus misbehavior stats, health counters, and sentinel outcomes when
  /// the spec enables misbehavior).
  std::uint64_t fingerprint = 0;
  /// Virtual time when the run quiesced.
  SimTime end_time{};
  /// Real (wall-clock) nanoseconds the run's network spent advancing its
  /// event loop. Diagnostics only — never folded into the fingerprint, so
  /// two runs with equal fingerprints may carry different wall times.
  std::uint64_t wall_ns = 0;
  /// Per-switch injector stats captured before the oracle phase.
  std::map<SwitchId, net::FaultStats> fault_stats;
  /// Per-switch semantic-fault stats (misbehavior specs only).
  std::map<SwitchId, switchsim::MisbehaviorStats> misbehavior_stats;
  /// Post-oracle forced sentinel sweep (misbehavior specs only).
  std::vector<core::SentinelAction> sentinel;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Execute one chaos run. Pure function of the schedule.
ChaosResult run_chaos(const ChaosSchedule& schedule);

}  // namespace tango::chaos
