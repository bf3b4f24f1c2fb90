#include "chaos/harness.h"

#include <optional>
#include <set>

#include "apps/acl_compiler.h"
#include "common/logging.h"
#include "net/network.h"
#include "scheduler/reconciler.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"
#include "workload/classbench.h"
#include "workload/scenarios.h"

namespace tango::chaos {

switchsim::SwitchProfile quiet_profile(switchsim::SwitchProfile profile) {
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  return profile;
}

sched::TransactionOptions recovery_preset() {
  sched::TransactionOptions topts;
  topts.exec.request_timeout = millis(200);
  topts.exec.max_retries = 6;
  topts.exec.backoff_base = millis(5);
  topts.readback_timeout = millis(200);
  topts.max_readback_retries = 6;
  topts.max_reconcile_rounds = 6;
  return topts;
}

namespace {

namespace profiles = switchsim::profiles;

void preinstall(net::Network& net, SwitchId id, std::uint32_t count) {
  core::ProbeEngine probe(net, id);
  for (std::uint32_t i = 0; i < count; ++i) {
    probe.install(i, static_cast<std::uint16_t>(100 + (i * 7) % 900));
  }
  net.barrier_sync(id);
}

}  // namespace

bool build_workload(const ChaosSpec& spec, net::Network& net,
                    const workload::TestbedIds& tb, sched::RequestDag& dag) {
  const auto params = params_of(spec.horizon);
  const auto n = static_cast<std::uint32_t>(params.workload_size);
  Rng rng(spec.seed * 7919 + 17);
  switch (spec.workload) {
    case Workload::kFig10:
      preinstall(net, tb.s1, n);
      dag = workload::link_failure_scenario(tb, n, rng, 0);
      return true;
    case Workload::kTrafficEngineering:
      preinstall(net, tb.s1, n);
      preinstall(net, tb.s2, n);
      preinstall(net, tb.s3, n);
      // existing_flows == n_requests, so every MOD/DEL hits a distinct
      // preinstalled index — the journal's no-rule-races assumption holds.
      dag = workload::traffic_engineering_scenario(tb, n, 2, 1, 1, rng,
                                                   /*first_index=*/1000, n);
      return true;
    case Workload::kAcl: {
      workload::ClassbenchProfile profile;
      profile.name = "chaos";
      profile.n_rules = params.workload_size;
      profile.seed = spec.seed;
      apps::AclCompileOptions opts;
      opts.target = tb.s1;
      opts.consistent = true;
      dag = apps::compile_acl(workload::generate_classbench(profile), opts).dag;
      return false;
    }
  }
  return true;
}

namespace {

/// True for semantic (switch-model) faults, false for wire faults.
bool is_misbehavior(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSilentInstallDrop:
    case FaultKind::kStaleFlowStats:
    case FaultKind::kSpuriousFlowRemoved:
    case FaultKind::kPriorityInversion:
    case FaultKind::kLatencyDrift:
    case FaultKind::kCapacityShrink:
      return true;
    case FaultKind::kCrash:
    case FaultKind::kStall:
    case FaultKind::kPartition:
    case FaultKind::kLossBurst:
      return false;
  }
  return false;
}

switchsim::MisbehaviorKind misbehavior_kind_of(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSilentInstallDrop:
      return switchsim::MisbehaviorKind::kSilentInstallDrop;
    case FaultKind::kStaleFlowStats:
      return switchsim::MisbehaviorKind::kStaleFlowStats;
    case FaultKind::kSpuriousFlowRemoved:
      return switchsim::MisbehaviorKind::kSpuriousFlowRemoved;
    case FaultKind::kPriorityInversion:
      return switchsim::MisbehaviorKind::kPriorityInversion;
    case FaultKind::kLatencyDrift:
      return switchsim::MisbehaviorKind::kLatencyDrift;
    default:
      return switchsim::MisbehaviorKind::kCapacityShrink;
  }
}

/// Lower the schedule onto per-switch injector configs, offsets rebased to
/// absolute times at `t0` (commit start). Misbehavior events are not wire
/// faults; they are lowered separately onto switchsim::MisbehaviorProfile.
net::FaultConfig config_for(const ChaosSchedule& schedule, SwitchId id,
                            SimTime t0) {
  net::FaultConfig cfg;
  cfg.drop_to_switch = schedule.base_loss;
  cfg.drop_to_controller = schedule.base_loss;
  cfg.seed = schedule.spec.seed * 1000003 + id;
  for (const auto& ev : schedule.events) {
    if (ev.target != id || is_misbehavior(ev.kind)) continue;
    switch (ev.kind) {
      case FaultKind::kCrash:
        cfg.crashes.push_back({t0 + ev.at, ev.duration});
        break;
      case FaultKind::kStall:
        cfg.stalls.push_back({t0 + ev.at, ev.duration});
        break;
      case FaultKind::kPartition:
        cfg.partitions.push_back({t0 + ev.at, ev.duration});
        break;
      case FaultKind::kLossBurst:
        cfg.loss_bursts.push_back({t0 + ev.at, ev.duration, ev.drop, ev.drop});
        break;
      default:
        break;
    }
  }
  return cfg;
}

}  // namespace

/// Chaos runs adopt synthetic knowledge so the knowledge-health loop starts
/// from accurate priors and every post-drift divergence is attributable to
/// the schedule.
core::SwitchKnowledge synthetic_knowledge(net::Network& net, SwitchId id) {
  const auto& profile = net.sw(id).profile();
  core::SwitchKnowledge know;
  know.switch_id = id;
  know.name = profile.name;
  std::size_t total = 0;
  for (const auto& lvl : profile.cache_levels) total += lvl.capacity_slots;
  know.sizes.installed = total;
  know.sizes.hit_rule_cap = false;
  if (!profile.cache_levels.empty()) {
    know.sizes.layer_sizes.push_back(
        static_cast<double>(profile.cache_levels.front().capacity_slots));
  }
  // Per-rule batched costs: base + the amortized message overhead a
  // same-type run pays (LatencyModel::flow_mod_cost with batching active).
  const auto& c = profile.costs;
  const double overhead_ms = c.batch_factor * c.msg_overhead.ms();
  know.costs.add_ascending_ms = c.add_base.ms() + overhead_ms;
  know.costs.add_descending_ms = c.add_base.ms() + overhead_ms;
  know.costs.add_same_priority_ms = c.add_same_priority.ms() + overhead_ms;
  know.costs.add_random_ms = c.add_base.ms() + overhead_ms;
  know.costs.mod_ms = c.mod_base.ms() + overhead_ms;
  know.costs.del_ms = c.del_base.ms() + overhead_ms;
  return know;
}

// --- fingerprint ------------------------------------------------------------

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

void fnv_fold_str(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  fnv_fold(h, s.size());
}

TableImages snapshot_tables(net::Network& net, const std::vector<SwitchId>& ids) {
  TableImages out;
  for (const auto id : ids) {
    out.emplace(id, sched::image_of(net.sw(id).flow_stats(of::Match::any())));
  }
  return out;
}

void fnv_fold_tables(std::uint64_t& h, const TableImages& tables) {
  for (const auto& [id, image] : tables) {
    fnv_fold(h, id);
    for (const auto& [key, rule] : image) {
      fnv_fold_str(h, key);
      fnv_fold(h, rule.cookie);
      fnv_fold(h, rule.priority);
      fnv_fold(h, rule.actions.size());
      fnv_fold(h, of::output_port(rule.actions));
    }
  }
}

namespace {

// A local alias keeps the (frozen) fingerprint definition readable.
constexpr auto& fold = fnv_fold;

std::uint64_t fingerprint_of(const ChaosResult& r, const TableImages& tables) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto& exec = r.report.exec;
  fold(h, static_cast<std::uint64_t>(exec.makespan.ns()));
  fold(h, exec.issued);
  fold(h, exec.rejected);
  fold(h, exec.timeouts);
  fold(h, exec.retries);
  fold(h, exec.echo_probes);
  fold(h, exec.failed_requests);
  fold(h, exec.lost_requests);
  fold(h, r.report.committed ? 1 : 0);
  fold(h, r.report.reconciled ? 1 : 0);
  fold(h, r.report.reconcile_rounds);
  fold(h, r.report.repairs_issued);
  fold(h, r.report.stale_rules_removed);
  fold(h, r.report.readback_requests);
  fold(h, r.report.readback_lost);
  for (const auto& [id, stats] : r.fault_stats) {
    fold(h, id);
    fold(h, stats.dropped_to_switch);
    fold(h, stats.dropped_to_controller);
    fold(h, stats.duplicated);
    fold(h, stats.reordered);
    fold(h, stats.corrupted);
    fold(h, stats.undecodable);
    fold(h, stats.notifications_dropped);
    fold(h, stats.lost_to_crash);
    fold(h, stats.lost_to_down);
    fold(h, stats.stalls);
    fold(h, stats.crashes);
    fold(h, stats.partitions);
    fold(h, stats.lost_to_partition);
  }
  fnv_fold_tables(h, tables);
  // Misbehavior-mode folds — all empty for wire-fault-only specs, so their
  // frozen v1 fingerprints are unchanged.
  for (const auto& [id, n] : r.report.readback_mismatches) {
    fold(h, id);
    fold(h, n);
  }
  for (const auto& [id, m] : r.misbehavior_stats) {
    fold(h, id);
    fold(h, m.events_activated);
    fold(h, m.silent_drops);
    fold(h, m.stale_stats_replies);
    fold(h, m.spurious_removals);
    fold(h, m.priority_inversions);
    fold(h, m.latency_drifts);
    fold(h, m.capacity_shrinks);
    fold(h, m.entries_evicted);
  }
  for (const auto& act : r.sentinel) {
    fold(h, act.switch_id);
    fold(h, (act.probed ? 1u : 0u) | (act.confirmed ? 2u : 0u) |
                (act.reinferred ? 4u : 0u) | (act.quarantined ? 8u : 0u));
  }
  fold(h, static_cast<std::uint64_t>(r.end_time.ns()));
  return h;
}

}  // namespace

ChaosResult run_chaos(const ChaosSchedule& schedule) {
  ChaosResult out;
  out.schedule = schedule;
  const auto& spec = schedule.spec;

  net::Network net;
  workload::TestbedIds tb;
  tb.s1 = net.add_switch(quiet_profile(profiles::switch1()));
  tb.s2 = net.add_switch(quiet_profile(profiles::switch1()));
  tb.s3 = net.add_switch(quiet_profile(profiles::switch3()));
  const std::vector<SwitchId> all = {tb.s1, tb.s2, tb.s3};

  sched::RequestDag dag;
  const bool cookie_checks = build_workload(spec, net, tb, dag);

  // Baseline images of every switch before the transaction: the re-sync
  // target for a late crash on a switch the transaction never touched.
  const auto baseline = snapshot_tables(net, all);

  sched::TransactionOptions topts = recovery_preset();
  topts.policy = spec.policy;
  // Pinned so cookies replay identically; never 0 (0 draws a fresh id).
  topts.txn_id = static_cast<std::uint32_t>(spec.seed % 0xfffff) + 1;

  // Misbehavior mode routes the transaction through the TangoController so
  // the knowledge-health wiring is exercised end-to-end: every switch
  // starts suspected (operator distrust), so its commit runs with
  // conservative cost hints and readback verification — the only defense
  // against a switch that acknowledges installs it never performed.
  std::optional<core::TangoController> ctl;
  if (spec.misbehavior) {
    ctl.emplace(net);
    for (const auto id : all) {
      ctl->adopt(synthetic_knowledge(net, id));
      ctl->health().suspect(id);
    }
  }

  // Construct (snapshot + journal) over the still-clean channel, then arm
  // the schedule relative to commit start.
  sched::UpdateTransaction txn =
      spec.misbehavior ? ctl->begin_update(std::move(dag), topts)
                       : sched::UpdateTransaction(net, std::move(dag), topts);
  const SimTime t0 = net.now();
  for (const auto id : all) {
    net.enable_faults(id, config_for(schedule, id, t0));
  }
  std::map<SwitchId, switchsim::MisbehaviorProfile> mis;
  for (const auto& ev : schedule.events) {
    if (!is_misbehavior(ev.kind)) continue;
    switchsim::MisbehaviorEvent me;
    me.kind = misbehavior_kind_of(ev.kind);
    me.at = t0 + ev.at;
    if (ev.kind == FaultKind::kLatencyDrift ||
        ev.kind == FaultKind::kCapacityShrink) {
      me.magnitude = ev.magnitude;
    } else {
      me.count = static_cast<std::size_t>(ev.magnitude);
    }
    mis[ev.target].events.push_back(me);
  }
  for (auto& [id, profile] : mis) net.set_misbehavior(id, std::move(profile));

  sched::DionysusScheduler scheduler;
  out.report = txn.commit(scheduler);

  // Drain to quiescence: late scheduled faults (a crash landing after the
  // commit finished) still fire here. Crashes past this point are the
  // controller's standing re-sync duty, not the transaction's — record
  // them and repair below, as a crash listener would.
  std::set<SwitchId> late_crashes;
  const std::uint64_t late_watch = net.add_crash_listener(
      [&late_crashes](SwitchId id) { late_crashes.insert(id); });
  net.run_all();
  net.remove_crash_listener(late_watch);

  for (const auto id : all) {
    if (const auto* inj = net.fault_injector(id)) {
      out.fault_stats[id] = inj->stats();
    }
  }

  // Quiescent point: swap in clean injectors (no loss, no windows) and
  // disarm any leftover misbehavior budgets so the oracle phase's readback
  // traffic cannot itself be faulted or lied to. A final explicit sweep
  // first activates any still-pending events (their activation echo-poke
  // may have been dropped by the wire faults) so drift lands before the
  // sentinel and the activation counters reconcile with the schedule.
  for (const auto id : all) {
    net::FaultConfig clean;
    clean.seed = 1;
    net.enable_faults(id, clean);
    if (spec.misbehavior) {
      net.sw(id).sweep_timeouts(net.now());
      out.misbehavior_stats[id] = net.sw(id).misbehavior_stats();
      net.sw(id).clear_misbehavior();
    }
  }

  if (!late_crashes.empty()) {
    std::set<SwitchId> in_txn;
    for (const auto& entry : txn.journal()) in_txn.insert(entry.location);
    std::map<SwitchId, sched::TableImage> desired;
    for (const auto id : late_crashes) {
      desired.emplace(id, in_txn.count(id) != 0 ? desired_image(txn, id)
                                                : baseline.at(id));
    }
    sched::Reconciler reconciler(net, {});
    const auto stats = reconciler.run(desired);
    log::info("chaos: post-commit crash on " +
              std::to_string(late_crashes.size()) +
              " switch(es); re-sync issued " +
              std::to_string(stats.repairs_issued) + " repairs");
  }

  OracleInput in;
  in.net = &net;
  in.txn = &txn;
  in.schedule = &schedule;
  in.fault_stats = out.fault_stats;
  in.cookie_checks = cookie_checks;
  out.violations = check_invariants(in);

  // Final tables captured before any sentinel activity: re-inference
  // probing wipes and rewrites them.
  const auto tables = snapshot_tables(net, all);

  if (spec.misbehavior) {
    // Accounting: every scheduled semantic fault must have activated.
    std::map<SwitchId, std::uint64_t> scheduled_mis;
    for (const auto& ev : schedule.events) {
      if (is_misbehavior(ev.kind)) ++scheduled_mis[ev.target];
    }
    for (const auto& [id, m] : out.misbehavior_stats) {
      const auto it = scheduled_mis.find(id);
      const std::uint64_t want = it == scheduled_mis.end() ? 0 : it->second;
      if (m.events_activated != want) {
        out.violations.push_back(
            {"misbehavior-counters",
             "switch " + std::to_string(id) + ": " +
                 std::to_string(m.events_activated) +
                 " misbehavior events activated vs " + std::to_string(want) +
                 " scheduled"});
      }
    }

    // Knowledge reconvergence: a forced sentinel sweep must confirm and
    // re-infer every latency drift. A switch that only drifted (or was
    // never faulted semantically) must come out of quarantine — drift is
    // cured by re-inference, and honest switches recover trust through
    // their clean verified commits. A switch that *lied* (silent drops,
    // stale stats, spurious removals, inversions) may legitimately stay
    // quarantined: readback mismatches discredit trust, and re-inference
    // cannot restore faith in a switch that misreports its own state.
    out.sentinel = ctl->run_sentinel({}, /*force_probe=*/true);
    std::set<SwitchId> drifted;
    std::set<SwitchId> lied_to;
    for (const auto& ev : schedule.events) {
      switch (ev.kind) {
        case FaultKind::kLatencyDrift:
          drifted.insert(ev.target);
          break;
        case FaultKind::kSilentInstallDrop:
        case FaultKind::kStaleFlowStats:
        case FaultKind::kSpuriousFlowRemoved:
        case FaultKind::kPriorityInversion:
          lied_to.insert(ev.target);
          break;
        default:
          break;
      }
    }
    for (const auto& act : out.sentinel) {
      if (drifted.count(act.switch_id) != 0 &&
          !(act.confirmed && act.reinferred)) {
        out.violations.push_back(
            {"knowledge",
             "switch " + std::to_string(act.switch_id) +
                 ": latency drift not detected/re-inferred by the sentinel"});
      }
      if (act.quarantined && lied_to.count(act.switch_id) == 0) {
        out.violations.push_back(
            {"knowledge", "switch " + std::to_string(act.switch_id) +
                              " still quarantined after the sentinel sweep"});
      }
    }
  }

  out.end_time = net.now();
  out.wall_ns = net.wall_ns();
  out.fingerprint = fingerprint_of(out, tables);
  return out;
}

}  // namespace tango::chaos
