#include "runner/soak.h"

#include <algorithm>
#include <fstream>

#include "chaos/ha_harness.h"
#include "chaos/shrinker.h"
#include "chaos/tenant_isolation.h"

namespace tango::runner {

namespace {

using Row = telemetry::RunReport::Row;

struct GridJob {
  std::uint64_t seed = 0;
  chaos::Workload workload = chaos::Workload::kFig10;
  sched::RecoveryPolicy policy = sched::RecoveryPolicy::kRollForward;
};

/// Seed-major grid expansion — the row order of the serial tools.
std::vector<GridJob> expand_grid(const ChaosSweepConfig& cfg) {
  std::vector<GridJob> jobs;
  for (std::uint64_t seed = cfg.seed_lo; seed <= cfg.seed_hi; ++seed) {
    for (const auto workload : cfg.workloads) {
      for (const auto policy : cfg.policies) {
        jobs.push_back({seed, workload, policy});
      }
    }
  }
  return jobs;
}

/// The label and leading seed/workload/policy cells of a grid run.
void start_grid_run(SweepRun& run, const GridJob& job) {
  run.row.col("seed", static_cast<double>(job.seed))
      .col("workload", chaos::to_string(job.workload))
      .col("policy", sched::to_string(job.policy));
  run.label = "seed " + std::to_string(job.seed) + " " +
              chaos::to_string(job.workload) + "/" +
              sched::to_string(job.policy);
}

std::string fp_hex(std::uint64_t fp) {
  return strprintf("0x%016llx", static_cast<unsigned long long>(fp));
}

}  // namespace

// ---------------------------------------------------------------------------
// Chaos (switch-fault) sweep
// ---------------------------------------------------------------------------

namespace {

struct ChaosRun : SweepRun {
  // Shrink products (violating runs only).
  std::string shrunk_line;
  std::string repro_filename;  // joined with out_dir by the collector
  std::string repro_json;
};

ChaosRun run_chaos_job(const ChaosSweepConfig& cfg, const GridJob& job) {
  ChaosRun out;
  chaos::ChaosSpec spec;
  spec.seed = job.seed;
  spec.workload = job.workload;
  spec.policy = job.policy;
  spec.horizon = cfg.horizon;
  spec.misbehavior = cfg.misbehavior;
  const auto schedule = chaos::generate_schedule(spec);
  auto result = chaos::run_chaos(schedule);
  start_grid_run(out, job);
  out.row.col("events", static_cast<double>(schedule.events.size()))
      .col("violations", static_cast<double>(result.violations.size()))
      .col("makespan_ns",
           static_cast<double>(result.report.exec.makespan.ns()));
  out.ok_detail = strprintf(" (%zu events, fp %s)", schedule.events.size(),
                            fp_hex(result.fingerprint).c_str());
  out.violations = result.violations;
  out.fingerprint = result.fingerprint;
  out.wall_ns = result.wall_ns;
  if (result.ok()) return out;

  chaos::ChaosSchedule minimal = schedule;
  if (cfg.shrink) {
    const auto shrunk = chaos::shrink_schedule(
        schedule, [](const chaos::ChaosSchedule& candidate) {
          return !chaos::run_chaos(candidate).ok();
        });
    minimal = shrunk.schedule;
    out.shrunk_line = strprintf("      shrunk %zu -> %zu events in %zu probes\n",
                                schedule.events.size(), minimal.events.size(),
                                shrunk.probes);
    // Re-run the minimal schedule so the repro captures ITS fingerprint
    // and violations, not the original's.
    result = chaos::run_chaos(minimal);
  }
  out.repro_filename =
      "chaos_repro_seed" + std::to_string(job.seed) + "_" +
      chaos::to_string(job.workload) + "_" +
      (job.policy == sched::RecoveryPolicy::kRollForward ? "fwd" : "back") +
      ".json";
  out.repro_json = chaos::to_repro_json(minimal, result.fingerprint,
                                        chaos::violation_names(result.violations));
  return out;
}

}  // namespace

SweepOutcome run_chaos_sweep(const ChaosSweepConfig& cfg,
                             const SweepOptions& opt) {
  SweepOutcome out("CHAOS_soak");
  collect_sweep(
      out, "chaos", cfg.seed_lo, cfg.seed_hi, expand_grid(cfg), opt,
      [&](const GridJob& job) { return run_chaos_job(cfg, job); },
      [&](const ChaosRun& r, Row& row) {
        if (r.violations.empty()) return;
        out.text += r.shrunk_line;
        if (cfg.out_dir.empty()) return;
        const std::string path = cfg.out_dir + "/" + r.repro_filename;
        std::ofstream repro(path);
        if (!repro) {
          out.errors += strprintf("chaos_soak: cannot write %s\n", path.c_str());
          return;
        }
        repro << r.repro_json;
        ++out.repros_written;
        out.text += strprintf("      repro written to %s\n", path.c_str());
        // Basename, not path: the repro sits next to the report, and the
        // report must stay byte-identical across output directories (the
        // nightly serial-vs-parallel spot-check diffs two different dirs).
        row.col("repro", r.repro_filename);
      });
  out.report.set_result("chaos.repros_written",
                        static_cast<double>(out.repros_written));
  out.report.set_result("chaos.horizon", chaos::to_string(cfg.horizon));
  out.report.set_result("chaos.misbehavior", cfg.misbehavior ? 1.0 : 0.0);
  return out;
}

// ---------------------------------------------------------------------------
// HA (controller-fault) sweep
// ---------------------------------------------------------------------------

namespace {

struct HaRun : SweepRun {
  std::uint64_t failovers = 0;
  std::uint64_t stale_epoch_rejections = 0;
  double takeover_ms = 0;
  double replication_lag_ns = 0;
};

HaRun run_ha_job(const ChaosSweepConfig& cfg, const GridJob& job) {
  HaRun out;
  chaos::HaChaosSpec spec;
  spec.seed = job.seed;
  spec.workload = job.workload;
  spec.policy = job.policy;
  spec.horizon = cfg.horizon;
  spec.scenario = chaos::scenario_of(job.seed);
  const auto result = chaos::run_ha_chaos(spec);
  for (const auto& rep : result.takeovers) {
    out.takeover_ms = std::max(out.takeover_ms, rep.takeover_ms);
  }
  out.replication_lag_ns =
      static_cast<double>(result.standby.max_replication_lag.ns());
  out.failovers = result.ha.failover_count;
  out.stale_epoch_rejections = result.stale_epoch_rejections;
  start_grid_run(out, job);
  out.label += " " + chaos::to_string(spec.scenario);
  out.row.col("scenario", chaos::to_string(spec.scenario))
      .col("failovers", static_cast<double>(out.failovers))
      .col("takeover_ms", out.takeover_ms)
      .col("replication_lag_ns", out.replication_lag_ns)
      .col("stale_epoch_rejections",
           static_cast<double>(out.stale_epoch_rejections))
      .col("violations", static_cast<double>(result.violations.size()));
  out.ok_detail = " (fp " + fp_hex(result.fingerprint) + ")";
  out.violations = result.violations;
  out.fingerprint = result.fingerprint;
  out.wall_ns = result.wall_ns;
  return out;
}

}  // namespace

SweepOutcome run_ha_sweep(const ChaosSweepConfig& cfg,
                          const SweepOptions& opt) {
  SweepOutcome out("HA_soak");
  std::uint64_t failovers = 0;
  std::uint64_t stale_rejections = 0;
  double takeover_ms_max = 0;
  double replication_lag_ns_max = 0;
  collect_sweep(
      out, "ha", cfg.seed_lo, cfg.seed_hi, expand_grid(cfg), opt,
      [&](const GridJob& job) { return run_ha_job(cfg, job); },
      [&](const HaRun& r, Row&) {
        failovers += r.failovers;
        stale_rejections += r.stale_epoch_rejections;
        takeover_ms_max = std::max(takeover_ms_max, r.takeover_ms);
        replication_lag_ns_max =
            std::max(replication_lag_ns_max, r.replication_lag_ns);
      });
  out.report.set_result("ha.failover_count", static_cast<double>(failovers));
  out.report.set_result("ha.takeover_ms_max", takeover_ms_max);
  out.report.set_result("ha.replication_lag_ns_max", replication_lag_ns_max);
  out.report.set_result("ha.stale_epoch_rejections",
                        static_cast<double>(stale_rejections));
  out.report.set_result("ha.horizon", chaos::to_string(cfg.horizon));
  return out;
}

// ---------------------------------------------------------------------------
// Service (multi-tenant isolation) sweep
// ---------------------------------------------------------------------------

namespace {

struct ServiceRun : SweepRun {
  std::size_t rollbacks = 0;
};

ServiceRun run_service_job(const ServiceSweepConfig& cfg, std::uint64_t seed) {
  ServiceRun out;
  chaos::TenantChaosSpec spec;
  spec.seed = seed;
  spec.n_tenants = cfg.tenants;
  spec.intents_per_tenant = cfg.intents;
  spec.faults = cfg.faults;
  const auto result = chaos::run_tenant_chaos(spec);
  const auto& rep = result.report;
  out.rollbacks = result.rollbacks;
  out.row.col("seed", static_cast<double>(seed))
      .col("tenants", static_cast<double>(result.spec.n_tenants))
      .col("violations", static_cast<double>(result.violations.size()))
      .col("rollbacks", static_cast<double>(result.rollbacks))
      .col("fairness", rep.fairness_index)
      .col("max_concurrency", static_cast<double>(rep.max_concurrency))
      .col("makespan_ns", static_cast<double>(rep.makespan.ns()));
  out.label = "seed " + std::to_string(seed);
  out.ok_detail = strprintf(
      ": %zu intents committed, %zu rollback(s), fairness %.3f, fp %s",
      rep.completed, result.rollbacks, rep.fairness_index,
      fp_hex(result.fingerprint).c_str());
  out.violations = result.violations;
  out.fingerprint = result.fingerprint;
  out.wall_ns = result.wall_ns;
  return out;
}

}  // namespace

SweepOutcome run_service_sweep(const ServiceSweepConfig& cfg,
                               const SweepOptions& opt) {
  SweepOutcome out("SERVICE_soak");
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = cfg.seed_lo; seed <= cfg.seed_hi; ++seed) {
    seeds.push_back(seed);
  }
  collect_sweep(
      out, "service", cfg.seed_lo, cfg.seed_hi, seeds, opt,
      [&](std::uint64_t seed) { return run_service_job(cfg, seed); },
      [&](const ServiceRun& r, Row&) {
        if (r.rollbacks > 0) ++out.rollback_runs;
      });
  out.report.set_result("service.rollback_runs",
                        static_cast<double>(out.rollback_runs));
  out.report.set_result("service.tenants", static_cast<double>(cfg.tenants));
  out.report.set_result("service.faults", cfg.faults ? 1.0 : 0.0);
  return out;
}

}  // namespace tango::runner
