// Invariant oracles checked at every quiescent point of a chaos run.
//
// Each oracle is a named predicate over the network's final state and the
// transaction's report; a violation carries the oracle name plus enough
// detail to debug the run. The oracles are deliberately conservative: they
// only flag conditions that are bugs under ANY legal fault schedule the
// generator emits (bounded fault windows, recovery budgets that outlive
// them), so a flagged seed is always worth shrinking.
//
//  * committed       — the transaction reached its policy's end state:
//                      committed, no unreconciled switches, no requests
//                      silently lost (eventual delivery of all intents).
//  * image-agreement — every affected switch's actual table equals the
//                      policy's desired image (post-update for a committed
//                      roll-forward / clean commit, pre-update snapshot for
//                      an executed rollback).
//  * readback        — a reconciler dry-run readback over the (now clean)
//                      control channel agrees with the in-simulator table:
//                      journal, switch, and wire views coincide.
//  * verifier        — ConsistencyVerifier walk over the desired rules: no
//                      black holes, loops, shadowing, or wrong egress. Rule
//                      cookies are asserted only when `cookie_checks` is on
//                      (ACL first-match-wins sets legitimately overlap).
//  * counters        — telemetry counter sanity: retries never exceed
//                      timeouts, a fault-free schedule produces no
//                      timeouts, and per-fault-type counts match the
//                      schedule (crashes fired == crashes scheduled,
//                      partition windows opened == partitions scheduled).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "scheduler/transaction.h"

namespace tango::chaos {

struct OracleViolation {
  /// Oracle name: "committed", "image-agreement", "readback", "verifier",
  /// "counters".
  std::string oracle;
  std::string detail;
};

std::string to_string(const OracleViolation& v);

/// Oracle names of `violations`, deduplicated in first-seen order.
std::vector<std::string> violation_names(
    const std::vector<OracleViolation>& violations);

struct OracleInput {
  net::Network* net = nullptr;
  sched::UpdateTransaction* txn = nullptr;
  const ChaosSchedule* schedule = nullptr;
  /// Fault-injector stats captured post-commit, keyed by switch.
  std::map<SwitchId, net::FaultStats> fault_stats;
  /// Per-rule cookie expectations feed the verifier oracle; off for ACL
  /// workloads where first-match-wins overlap makes shadowing legitimate.
  bool cookie_checks = true;
};

/// Run every oracle; returns the (possibly empty) violation list.
/// Performs readback traffic on the network's event queue — call only at a
/// quiescent point, with clean injectors attached.
std::vector<OracleViolation> check_invariants(const OracleInput& in);

/// The table each affected switch must end at under the policy: the
/// post-update image, except for a rollback that actually reconciled —
/// that one restores the pre-update snapshot. (Shared with the harness's
/// post-commit crash recovery.)
const sched::TableImage& desired_image(const sched::UpdateTransaction& txn,
                                       SwitchId id);

}  // namespace tango::chaos
