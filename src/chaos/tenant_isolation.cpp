#include "chaos/tenant_isolation.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "chaos/harness.h"
#include "common/rng.h"
#include "net/network.h"
#include "scheduler/reconciler.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"

namespace tango::chaos {

namespace {

namespace profiles = switchsim::profiles;

/// One rule the run is expected to leave installed (or not).
struct ExpectedRule {
  SwitchId sw = 0;
  of::Match match;
  std::uint16_t priority = 0;
  std::uint16_t out_port = 0;
};

/// Everything the oracles need to know about one submitted intent.
struct IntentExpect {
  service::TenantId tenant = 0;
  std::vector<ExpectedRule> rules;
  bool dispatched = false;
  sched::TransactionReport report;
};

/// Tenant t's rule space: disjoint /32s under 10.(t+1).0.0/16. `lane` keys
/// the intent within the tenant (base intents, coalesce payloads, overflow
/// probe all get distinct lanes); shared-switch rules shift the lane by 128
/// so private and shared spaces never collide either.
of::Match tenant_match(service::TenantId t, std::uint32_t lane,
                       std::uint32_t i, bool shared) {
  const std::uint32_t addr = (10u << 24) | ((t + 1) << 16) |
                             ((lane + (shared ? 128u : 0u)) << 8) | i;
  of::Match m;
  m.with_dl_type(0x0800);
  m.set_nw_dst_prefix(addr, 32);
  return m;
}

/// Build one intent's DAG: a sequential chain of ADDs over the tenant's
/// private switch then the shared switch (chained so the commit spans real
/// virtual time — the concurrency window the isolation oracle cares about).
sched::RequestDag make_dag(service::TenantId t, std::uint32_t lane,
                           SwitchId priv, SwitchId shared,
                           std::size_t n_priv, std::size_t n_shared,
                           std::vector<ExpectedRule>& rules_out) {
  sched::RequestDag dag;
  std::size_t prev = 0;
  bool have_prev = false;
  const auto add = [&](SwitchId sw, const of::Match& m, std::uint16_t prio) {
    sched::SwitchRequest req;
    req.location = sw;
    req.type = sched::RequestType::kAdd;
    req.priority = prio;
    req.match = m;
    req.actions = of::output_to(static_cast<std::uint16_t>(1 + t % 4));
    const std::size_t id = dag.add(std::move(req));
    if (have_prev) dag.add_dependency(prev, id);
    prev = id;
    have_prev = true;
    rules_out.push_back(
        {sw, m, prio, static_cast<std::uint16_t>(1 + t % 4)});
  };
  for (std::uint32_t i = 0; i < n_priv; ++i) {
    add(priv, tenant_match(t, lane, i, false),
        static_cast<std::uint16_t>(100 + i));
  }
  for (std::uint32_t i = 0; i < n_shared; ++i) {
    add(shared, tenant_match(t, lane, i, true),
        static_cast<std::uint16_t>(100 + i));
  }
  return dag;
}

// --- fingerprint ------------------------------------------------------------

constexpr auto& fold = fnv_fold;

std::uint64_t fingerprint_of(
    const TenantChaosResult& r,
    const std::map<std::uint64_t, IntentExpect>& intents,
    const TableImages& tables) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto& rep = r.report;
  fold(h, rep.submitted);
  fold(h, rep.admitted);
  fold(h, rep.rejected);
  fold(h, rep.coalesced);
  fold(h, rep.dispatched);
  fold(h, rep.completed);
  fold(h, rep.failed_commits);
  fold(h, rep.conflict_blocks);
  fold(h, rep.max_queue_depth);
  fold(h, rep.max_concurrency);
  fold(h, static_cast<std::uint64_t>(std::llround(rep.fairness_index * 1e9)));
  fold(h, static_cast<std::uint64_t>(rep.makespan.ns()));
  for (const auto& [t, ts] : rep.tenants) {
    fold(h, t);
    fold(h, ts.submitted);
    fold(h, ts.rejected);
    fold(h, ts.coalesced);
    fold(h, ts.dispatched);
    fold(h, ts.completed);
    fold(h, ts.failed_commits);
    fold(h, ts.requests_served);
  }
  for (const auto& [id, ie] : intents) {
    fold(h, id);
    fold(h, (ie.dispatched ? 1u : 0u) | (ie.report.committed ? 2u : 0u) |
                (ie.report.reconciled ? 4u : 0u) |
                (ie.report.rolled_back ? 8u : 0u));
  }
  for (const auto& [id, stats] : r.fault_stats) {
    fold(h, id);
    fold(h, stats.dropped_to_switch);
    fold(h, stats.dropped_to_controller);
    fold(h, stats.lost_to_crash);
    fold(h, stats.lost_to_down);
    fold(h, stats.crashes);
  }
  fnv_fold_tables(h, tables);
  fold(h, static_cast<std::uint64_t>(r.end_time.ns()));
  return h;
}

std::string describe(service::TenantId t, std::uint64_t intent_id,
                     const ExpectedRule& rule) {
  std::ostringstream os;
  os << "tenant " << t << " intent " << intent_id << " sw " << rule.sw << " "
     << rule.match.to_string() << " prio " << rule.priority;
  return os.str();
}

}  // namespace

TenantChaosResult run_tenant_chaos(const TenantChaosSpec& raw) {
  TenantChaosResult out;
  out.spec = raw;
  out.spec.n_tenants = std::clamp<std::uint32_t>(raw.n_tenants, 2, 16);
  out.spec.intents_per_tenant =
      std::clamp<std::uint32_t>(raw.intents_per_tenant, 1, 16);
  const auto& spec = out.spec;
  const service::TenantId victim = 0;
  Rng rng(spec.seed * 6271 + 11);

  net::Network net;
  const SwitchId shared_sw = net.add_switch(quiet_profile(profiles::switch1()));
  std::vector<SwitchId> priv(spec.n_tenants);
  for (auto& id : priv) id = net.add_switch(quiet_profile(profiles::switch1()));
  std::vector<SwitchId> all = {shared_sw};
  all.insert(all.end(), priv.begin(), priv.end());

  core::TangoController ctl(net);
  service::ServiceOptions sopts;
  sopts.per_tenant_queue_cap = spec.intents_per_tenant + 1;
  sopts.max_concurrent = spec.n_tenants + 1;
  sopts.drr_quantum = 4;
  // Pinned so cookies replay identically; the service adds the intent id.
  sopts.txn_id_base = static_cast<std::uint32_t>(spec.seed % 0xfffff) + 0x100;
  sopts.txn = recovery_preset();

  std::map<std::uint64_t, IntentExpect> intents;
  sopts.on_commit = [&intents](service::TenantId, std::uint64_t id,
                               const sched::TransactionReport& rep) {
    auto it = intents.find(id);
    if (it == intents.end()) return;
    it->second.dispatched = true;
    it->second.report = rep;
  };
  service::IntentService svc(net, ctl, sopts);

  // --- scripted submission schedule -----------------------------------------
  // Every submit outcome below is deterministic given the spec; the
  // accounting oracle re-derives the expected totals from the same script.
  const auto submit = [&](service::TenantId t, std::uint32_t lane,
                          std::size_t n_priv, std::size_t n_shared,
                          std::uint64_t coalesce_key) {
    service::Intent intent;
    intent.tenant = t;
    intent.policy = t == victim ? sched::RecoveryPolicy::kRollBack
                                : sched::RecoveryPolicy::kRollForward;
    intent.coalesce_key = coalesce_key;
    IntentExpect ie;
    ie.tenant = t;
    intent.dag =
        make_dag(t, lane, priv[t], shared_sw, n_priv, n_shared, ie.rules);
    const service::SubmitResult res = svc.submit(std::move(intent));
    if (res.accepted()) intents[res.intent_id] = std::move(ie);
    return res;
  };

  // Base intents, interleaved across tenants so DRR fairness is exercised.
  // The victim's are longer: its commits must span enough virtual time for
  // the crash window to land inside one.
  for (std::uint32_t j = 0; j < spec.intents_per_tenant; ++j) {
    for (service::TenantId t = 0; t < spec.n_tenants; ++t) {
      const std::size_t n_priv =
          static_cast<std::size_t>(rng.uniform_int(2, 3)) +
          (t == victim ? 3 : 0);
      const std::size_t n_shared =
          static_cast<std::size_t>(rng.uniform_int(2, 3));
      submit(t, j, n_priv, n_shared, 0);
    }
  }
  // One coalesce pair per non-victim tenant: the base payload (lane ipt) is
  // superseded by the replacement (lane ipt+1) before dispatch, so only the
  // replacement's rules may ever appear.
  std::size_t expect_coalesced = 0;
  for (service::TenantId t = 1; t < spec.n_tenants; ++t) {
    const std::uint64_t key = 0xC0 + t;
    const auto base = submit(t, spec.intents_per_tenant, 2, 2, key);
    const auto repl = submit(t, spec.intents_per_tenant + 1, 2, 2, key);
    if (repl.coalesced) {
      intents.erase(base.intent_id);  // superseded: never dispatched
      ++expect_coalesced;
    }
  }
  // Overflow probe: tenant 1's queue now sits at the cap, so one more
  // non-coalescing submit must bounce with kQueueFull.
  const auto overflow =
      submit(1, spec.intents_per_tenant + 2, 2, 2, /*coalesce_key=*/0);
  const std::size_t expect_rejected =
      overflow.error == service::AdmitError::kQueueFull ? 1 : 0;

  // --- faults -----------------------------------------------------------------
  // Crash the victim's private switch inside the dispatch window, plus light
  // loss on its channel (retries). The shared switch stays clean: anything
  // that goes wrong there is the service's fault, not the schedule's.
  if (spec.faults) {
    net::FaultConfig cfg;
    cfg.seed = spec.seed * 1000003 + priv[victim];
    cfg.drop_to_switch = 0.03;
    cfg.drop_to_controller = 0.03;
    const SimDuration at = millis(rng.uniform_int(5, 25));
    const SimDuration down = millis(rng.uniform_int(2, 6));
    cfg.crashes.push_back({net.now() + at, down});
    net.enable_faults(priv[victim], cfg);
  }

  sched::DionysusScheduler scheduler;
  svc.run(scheduler);
  // Late scheduled faults (a crash landing after the last commit) still
  // drain here, before the readback oracles run.
  net.run_all();

  for (const auto id : all) {
    if (const auto* inj = net.fault_injector(id)) {
      out.fault_stats[id] = inj->stats();
    }
  }
  // Quiescent point: clean injectors so oracle readback can't be faulted.
  for (const auto id : all) {
    net::FaultConfig clean;
    clean.seed = 1;
    net.enable_faults(id, clean);
  }

  out.report = svc.report();

  const auto tables = snapshot_tables(net, all);

  // --- oracles ----------------------------------------------------------------
  const auto rule_of = [&tables](const ExpectedRule& want)
      -> const sched::RuleImage* {
    const auto& image = tables.at(want.sw);
    const auto it = image.find(sched::rule_key(want.match, want.priority));
    return it == image.end() ? nullptr : &it->second;
  };

  for (const auto& [id, ie] : intents) {
    if (ie.report.rolled_back) ++out.rollbacks;
    const std::uint32_t want_txn =
        sopts.txn_id_base + static_cast<std::uint32_t>(id);

    if (ie.tenant != victim) {
      // isolation: a committed non-victim intent's rules survive everything
      // the victim's rollback did on the shared switch.
      if (!ie.dispatched || !ie.report.committed) continue;
      for (const ExpectedRule& want : ie.rules) {
        const auto* got = rule_of(want);
        if (got == nullptr) {
          out.violations.push_back(
              {"isolation", describe(ie.tenant, id, want) + ": rule missing"});
          continue;
        }
        if (sched::UpdateTransaction::txn_of_cookie(got->cookie) != want_txn ||
            of::output_port(got->actions) != want.out_port) {
          out.violations.push_back(
              {"isolation",
               describe(ie.tenant, id, want) + ": rule perturbed (cookie " +
                   std::to_string(got->cookie) + ")"});
        }
      }
      continue;
    }
    // rollback-scope: a rolled-back victim intent left no trace on the
    // shared switch (its private switch was crash-wiped; not judged).
    if (ie.report.rolled_back && ie.report.committed) {
      for (const ExpectedRule& want : ie.rules) {
        if (want.sw != shared_sw) continue;
        if (rule_of(want) != nullptr) {
          out.violations.push_back(
              {"rollback-scope",
               describe(ie.tenant, id, want) + ": survived its rollback"});
        }
      }
    }
  }

  // no-strays: every service-cookie rule in the final tables maps to a
  // dispatched intent that ended committed-forward.
  for (const auto& [sw, image] : tables) {
    for (const auto& [key, rule] : image) {
      const std::uint32_t txn =
          sched::UpdateTransaction::txn_of_cookie(rule.cookie);
      if (txn < sopts.txn_id_base) continue;
      const std::uint64_t intent_id = txn - sopts.txn_id_base;
      const auto it = intents.find(intent_id);
      const bool legitimate = it != intents.end() && it->second.dispatched &&
                              it->second.report.committed &&
                              !it->second.report.rolled_back;
      if (!legitimate) {
        out.violations.push_back(
            {"no-strays", "sw " + std::to_string(sw) + " rule " + key +
                              " from intent " + std::to_string(intent_id) +
                              " which never committed forward"});
      }
    }
  }

  // accounting: the scripted schedule has known totals, and run() drains.
  const auto& rep = out.report;
  const std::size_t expect_admitted =
      std::size_t{spec.n_tenants} * spec.intents_per_tenant +
      (spec.n_tenants - 1);
  const auto account = [&out](const std::string& what, std::size_t got,
                              std::size_t want) {
    if (got != want) {
      out.violations.push_back(
          {"accounting", what + ": " + std::to_string(got) + " != expected " +
                             std::to_string(want)});
    }
  };
  account("admitted", rep.admitted, expect_admitted);
  account("coalesced", rep.coalesced, expect_coalesced);
  account("rejected", rep.rejected, expect_rejected);
  account("submitted", rep.submitted,
          rep.admitted + rep.rejected + rep.coalesced);
  account("dispatched", rep.dispatched, rep.admitted);
  account("completed", rep.completed, rep.dispatched);
  std::size_t tenant_completed = 0;
  for (const auto& [t, ts] : rep.tenants) tenant_completed += ts.completed;
  account("tenant-completed-sum", tenant_completed, rep.completed);
  for (service::TenantId t = 0; t < spec.n_tenants; ++t) {
    account("queue-depth[" + std::to_string(t) + "]", svc.queue_depth(t), 0);
  }

  // fairness-range: index in (0, 1], concurrency within configured bounds.
  if (!(rep.fairness_index > 0 && rep.fairness_index <= 1.0 + 1e-9)) {
    out.violations.push_back(
        {"fairness-range",
         "fairness index " + std::to_string(rep.fairness_index)});
  }
  if (rep.max_concurrency > sopts.max_concurrent) {
    out.violations.push_back(
        {"fairness-range",
         "max concurrency " + std::to_string(rep.max_concurrency) +
             " exceeds cap " + std::to_string(sopts.max_concurrent)});
  }
  if (rep.avg_concurrency >
      static_cast<double>(rep.max_concurrency) + 1e-9) {
    out.violations.push_back(
        {"fairness-range",
         "avg concurrency " + std::to_string(rep.avg_concurrency) +
             " exceeds peak " + std::to_string(rep.max_concurrency)});
  }

  out.end_time = net.now();
  out.wall_ns = net.wall_ns();
  out.fingerprint = fingerprint_of(out, intents, tables);
  return out;
}

}  // namespace tango::chaos
