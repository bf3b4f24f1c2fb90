// Multi-tenant chaos: seeded IntentService runs under faults, judged by
// isolation oracles.
//
// run_tenant_chaos() builds a fabric with one shared switch plus one
// private switch per tenant, scripts a deterministic submission schedule
// (interleaved intents over disjoint rule spaces, a coalesce pair per
// tenant, one intentional queue overflow), crashes the victim tenant's
// private switch mid-run so its kRollBack transactions reconcile while
// other tenants' commits are in flight on the shared switch, and then
// checks the invariants the service is sold on:
//
//  * isolation      — every rule of every committed non-victim intent is
//                     present in the final tables with the right cookie
//                     and actions. The victim's rollback (which restores
//                     its scoped pre image on the SHARED switch) must not
//                     have perturbed a disjoint tenant's committed rules.
//  * rollback-scope — a victim intent that rolled back left none of its
//                     own rules on the shared switch.
//  * no-strays      — every service-cookie-bearing rule on any switch
//                     belongs to a dispatched intent that committed
//                     forward; superseded (coalesced-away) payloads and
//                     rolled-back intents leave nothing behind.
//  * accounting     — ServiceReport conservation: the scripted submission
//                     schedule has known admit/reject/coalesce totals, the
//                     per-tenant tallies sum to them, and run() drained
//                     every queue.
//  * fairness-range — fairness index in (0, 1], concurrency tallies within
//                     the configured bounds.
//
// Deterministic: equal specs produce equal runs; `fingerprint` folds the
// service tallies, per-intent outcomes, fault stats, final tables, and the
// final clock so bit-identical replay is one integer comparison (the same
// contract as chaos/harness.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/oracles.h"
#include "net/fault_injector.h"
#include "service/service.h"

namespace tango::chaos {

/// Deterministic identity of one multi-tenant chaos run.
struct TenantChaosSpec {
  std::uint64_t seed = 1;
  /// Tenant 0 is the victim (kRollBack + faulted private switch); at least
  /// one non-victim is required for isolation to mean anything. Clamped to
  /// [2, 16].
  std::uint32_t n_tenants = 3;
  /// Base intents per tenant (the coalesce pair and the overflow probe ride
  /// on top). Clamped to [1, 16].
  std::uint32_t intents_per_tenant = 3;
  /// Crash the victim's private switch mid-run (plus light loss on its
  /// channel). False = fault-free control run.
  bool faults = true;

  bool operator==(const TenantChaosSpec&) const = default;
};

struct TenantChaosResult {
  TenantChaosSpec spec;
  service::ServiceReport report;
  std::vector<OracleViolation> violations;
  /// FNV-1a over service tallies, per-intent outcomes, fault stats, final
  /// tables, and the final clock.
  std::uint64_t fingerprint = 0;
  /// Virtual time when the run quiesced.
  SimTime end_time{};
  /// Real (wall-clock) event-loop nanoseconds; excluded from fingerprint.
  std::uint64_t wall_ns = 0;
  /// Victim-switch injector stats (the only faulted channel).
  std::map<SwitchId, net::FaultStats> fault_stats;
  /// Victim intents that actually rolled back (0 under many seeds where the
  /// crash lands between victim commits — the soak sweeps seeds until the
  /// overlap is exercised).
  std::size_t rollbacks = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Execute one multi-tenant chaos run. Pure function of the spec.
TenantChaosResult run_tenant_chaos(const TenantChaosSpec& spec);

}  // namespace tango::chaos
