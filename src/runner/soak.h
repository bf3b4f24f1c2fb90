// Seed-sweep engines shared by the soak tools, the differential test
// layer, and the bench drivers.
//
// Every family (switch-fault chaos, controller-fault HA, multi-tenant
// service) is one job list plus a pure job function on the same collector,
// collect_sweep(): it executes the jobs on runner::run_indexed — every job
// builds its own isolated world — and folds the results into a
// SweepOutcome *in job order*. The outcome carries everything the tools
// print or write: the RunReport (rows in job order), the console
// narrative, and a sweep fingerprint folding every per-run fingerprint.
// None of it depends on the worker count: a sweep run with 1, 2, or 8
// workers produces byte-identical JSON, byte-identical text, and the same
// sweep fingerprint — the property tests/test_runner.cpp enforces
// differentially.
//
// Wall-clock is the one deliberate exception: per-run wall_ms columns and
// the total-wall result key are nondeterministic by nature and therefore
// opt-in (SweepOptions::wall); the differential layer and the nightly
// serial-vs-parallel spot check keep it off.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "chaos/schedule.h"
#include "runner/pool.h"
#include "telemetry/run_report.h"

namespace tango::runner {

struct SweepOptions {
  /// Pool width; 0 = runner::default_workers(), 1 = in-thread serial.
  std::size_t workers = 1;
  /// Surface per-run wall_ms columns and <prefix>.wall_ms results.
  bool wall = false;
  /// Include per-run "ok" lines in the narrative (FAIL lines are always
  /// included).
  bool verbose = false;
};

/// Grid config for the switch-fault chaos sweep and the controller-fault
/// (HA) sweep: seeds × workloads × policies, seed-major — the exact order
/// rows appear in the report.
struct ChaosSweepConfig {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 20;
  chaos::Horizon horizon = chaos::Horizon::kShort;
  std::vector<chaos::Workload> workloads = {
      chaos::Workload::kFig10, chaos::Workload::kTrafficEngineering,
      chaos::Workload::kAcl};
  std::vector<sched::RecoveryPolicy> policies = {
      sched::RecoveryPolicy::kRollForward, sched::RecoveryPolicy::kRollBack};
  bool misbehavior = false;
  /// Delta-debug violating schedules to minimal repro files (chaos only).
  bool shrink = true;
  /// Directory repro files land in; empty = don't write files.
  std::string out_dir = ".";
};

struct ServiceSweepConfig {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 20;
  std::uint32_t tenants = 3;
  std::uint32_t intents = 3;
  bool faults = true;
};

struct SweepOutcome {
  telemetry::RunReport report;
  /// Per-run console lines (ok/FAIL/shrunk/repro), job order, exactly the
  /// bytes the serial tools printed; tools fputs() it verbatim.
  std::string text;
  /// Abnormal-condition lines (unwritable repro files); tools print to
  /// stderr.
  std::string errors;
  std::size_t runs = 0;
  std::size_t violations = 0;
  std::size_t repros_written = 0;  // chaos sweep only
  std::size_t rollback_runs = 0;   // service sweep only
  /// FNV-1a fold of every per-run fingerprint in job order — one integer
  /// comparison proves two sweeps (e.g. serial vs parallel) identical.
  std::uint64_t sweep_fingerprint = chaos::kFnvOffsetBasis;
  /// Wall-clock of the whole sweep (around the pool), always measured.
  std::uint64_t total_wall_ns = 0;

  [[nodiscard]] bool ok() const { return violations == 0; }

  explicit SweepOutcome(std::string report_name)
      : report(std::move(report_name)) {}
};

/// One run as the collector sees it. A family's job function fills it in
/// (deriving to carry the family's own tallies) and does no I/O.
struct SweepRun {
  /// The family's report cells, in column order.
  telemetry::RunReport::Row row;
  /// Subject of the run's console lines, e.g. "seed 4 acl/roll-back".
  std::string label;
  /// Rest of a clean run's verbose line after "ok    <label>".
  std::string ok_detail;
  std::vector<chaos::OracleViolation> violations;
  std::uint64_t fingerprint = 0;
  std::uint64_t wall_ns = 0;
};

/// printf into a std::string, sized from the length snprintf reports.
template <typename... Args>
std::string strprintf(const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  if (n <= 0) return {};
  std::string out(static_cast<std::size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

/// The one sweep collector. Runs `job(jobs[i])` for every job on the pool,
/// then folds the returned SweepRuns into `out` in job order: the run
/// count, the sweep fingerprint, the report row (plus an `oracles` cell
/// naming the fired oracles on violating rows), the ok/FAIL lines, the
/// family's `extra(run, row)` step, and the opt-in wall_ms column. Sets
/// the shared `<prefix>.*` results; the family adds its own after.
template <typename Job, typename JobFn, typename Extra>
void collect_sweep(SweepOutcome& out, const std::string& prefix,
                   std::uint64_t seed_lo, std::uint64_t seed_hi,
                   const std::vector<Job>& jobs, const SweepOptions& opt,
                   JobFn job, Extra extra) {
  const auto begin = std::chrono::steady_clock::now();
  auto runs = run_indexed(jobs.size(), opt.workers,
                          [&](std::size_t i) { return job(jobs[i]); });
  out.total_wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());

  double wall_ms_sum = 0;
  for (auto& r : runs) {
    ++out.runs;
    chaos::fnv_fold(out.sweep_fingerprint, r.fingerprint);
    auto& row = out.report.add_row(std::move(r.row));
    if (r.violations.empty()) {
      if (opt.verbose) out.text += "ok    " + r.label + r.ok_detail + "\n";
    } else {
      ++out.violations;
      out.text += strprintf("FAIL  %s: %zu violation(s)\n", r.label.c_str(),
                            r.violations.size());
      for (const auto& v : r.violations) {
        out.text += strprintf("      %s\n", chaos::to_string(v).c_str());
      }
      std::string oracles;
      for (const auto& name : chaos::violation_names(r.violations)) {
        oracles += (oracles.empty() ? "" : ",") + name;
      }
      row.col("oracles", oracles);
    }
    extra(r, row);
    if (opt.wall) {
      const double ms = static_cast<double>(r.wall_ns) / 1e6;
      wall_ms_sum += ms;
      row.col("wall_ms", ms);
    }
  }

  auto& rep = out.report;
  rep.set_result(prefix + ".runs", static_cast<double>(out.runs));
  rep.set_result(prefix + ".violations", static_cast<double>(out.violations));
  rep.set_result(prefix + ".seed_lo", static_cast<double>(seed_lo));
  rep.set_result(prefix + ".seed_hi", static_cast<double>(seed_hi));
  rep.set_result(prefix + ".sweep_fingerprint",
                 strprintf("0x%016llx", static_cast<unsigned long long>(
                                            out.sweep_fingerprint)));
  if (opt.wall) {
    rep.set_result(prefix + ".wall_ms", wall_ms_sum);
    rep.set_result(prefix + ".sweep_wall_ms",
                   static_cast<double>(out.total_wall_ns) / 1e6);
  }
}

/// Switch-side wire/misbehavior chaos sweep (report name CHAOS_soak).
SweepOutcome run_chaos_sweep(const ChaosSweepConfig& cfg,
                             const SweepOptions& opt);

/// Controller-fault sweep; scenario = seed % 5 (report name HA_soak).
SweepOutcome run_ha_sweep(const ChaosSweepConfig& cfg, const SweepOptions& opt);

/// Multi-tenant isolation sweep (report name SERVICE_soak).
SweepOutcome run_service_sweep(const ServiceSweepConfig& cfg,
                               const SweepOptions& opt);

}  // namespace tango::runner
