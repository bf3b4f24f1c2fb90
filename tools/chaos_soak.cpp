// chaos_soak: drive one fault family across a seed range, shrink any
// switch-fault violation to a minimal reproducer, and emit
// machine-readable artifacts.
//
//   chaos_soak --seeds 1-20 --horizon short --workload all --policy both
//   chaos_soak --seeds 1-200 --workers 8       # parallel seed sweep
//   chaos_soak --family ha --seeds 1-50        # controller faults
//   chaos_soak --family service --seeds 1-20 --tenants 4 --intents 3
//   chaos_soak --replay repro_seed42.json      # re-execute a repro file
//
// `--family` picks the harness: `chaos` (default) runs the switch-side
// wire/misbehavior harness and writes CHAOS_soak.json; `ha` runs
// run_ha_chaos (scenario = seed % 5) and writes HA_soak.json; `service`
// runs the multi-tenant isolation harness and writes SERVICE_soak.json.
// --horizon/--workload/--policy shape the chaos and HA grids; --tenants,
// --intents and --no-faults shape the service runs.
//
// Every run is deterministic: a seed identifies a fault schedule, and the
// run's 64-bit fingerprint (counters + fault stats + final tables + final
// virtual clock) is printed so bit-identical replay is checkable by eye or
// by CI. On a chaos-family violation the schedule is delta-debugged down
// to a locally minimal event list and written as a chaos_repro JSON file
// into --out; a <FAMILY>_soak.json run report (tango.run_report.v1)
// summarizes the sweep.
//
// The sweep itself runs on runner::run_{chaos,ha,service}_sweep:
// `--workers N` fans the seed grid over a thread pool (each run owns an
// isolated world) while the report, console lines, repro files, and sweep
// fingerprint stay byte-identical to a serial run — the nightly job
// spot-checks exactly that. `--wall` additionally surfaces per-run wall_ms
// columns (real time, nondeterministic, so off by default);
// `--bench-speedup` runs the sweep twice (serial then parallel) and
// records the measured `speedup_parallel` for tools/bench_compare.py to
// gate.
//
// Exit status: 0 = all runs clean (or replay clean), 1 = violations found
// (or replay reproduced its violation), 2 = usage/file errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "chaos/schedule.h"
#include "common/logging.h"
#include "runner/soak.h"

namespace {

using namespace tango;  // tool code: brevity over namespace hygiene

enum class Family { kChaos, kHa, kService };

struct Args {
  Family family = Family::kChaos;
  runner::ChaosSweepConfig sweep;  // chaos and HA grids; --out for all
  runner::ServiceSweepConfig service;
  runner::SweepOptions opt;
  std::string replay;
  /// Measure a serial pass first and report speedup_parallel.
  bool bench_speedup = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: chaos_soak [--family chaos|ha|service] [--seeds A-B]\n"
               "                  [--horizon short|medium|long]\n"
               "                  [--workload fig10|te|acl|all]\n"
               "                  [--policy forward|rollback|both]\n"
               "                  [--tenants N] [--intents N] [--no-faults]\n"
               "                  [--replay FILE] [--out DIR] [--no-shrink]\n"
               "                  [--misbehavior] [--workers N] [--wall]\n"
               "                  [--bench-speedup] [--verbose]\n");
}

bool parse_seeds(const std::string& s, runner::ChaosSweepConfig& cfg) {
  const auto dash = s.find('-');
  if (dash == std::string::npos) {
    cfg.seed_lo = cfg.seed_hi = std::strtoull(s.c_str(), nullptr, 0);
    return cfg.seed_lo > 0;
  }
  cfg.seed_lo = std::strtoull(s.substr(0, dash).c_str(), nullptr, 0);
  cfg.seed_hi = std::strtoull(s.substr(dash + 1).c_str(), nullptr, 0);
  return cfg.seed_lo > 0 && cfg.seed_hi >= cfg.seed_lo;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--family") {
      const char* v = value();
      if (v == nullptr) return false;
      if (std::strcmp(v, "chaos") == 0) args.family = Family::kChaos;
      else if (std::strcmp(v, "ha") == 0) args.family = Family::kHa;
      else if (std::strcmp(v, "service") == 0) args.family = Family::kService;
      else return false;
    } else if (arg == "--seeds") {
      const char* v = value();
      if (v == nullptr || !parse_seeds(v, args.sweep)) return false;
      args.service.seed_lo = args.sweep.seed_lo;
      args.service.seed_hi = args.sweep.seed_hi;
    } else if (arg == "--horizon") {
      const char* v = value();
      if (v == nullptr) return false;
      if (std::strcmp(v, "short") == 0) args.sweep.horizon = chaos::Horizon::kShort;
      else if (std::strcmp(v, "medium") == 0) args.sweep.horizon = chaos::Horizon::kMedium;
      else if (std::strcmp(v, "long") == 0) args.sweep.horizon = chaos::Horizon::kLong;
      else return false;
    } else if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return false;
      if (std::strcmp(v, "fig10") == 0) {
        args.sweep.workloads = {chaos::Workload::kFig10};
      } else if (std::strcmp(v, "te") == 0) {
        args.sweep.workloads = {chaos::Workload::kTrafficEngineering};
      } else if (std::strcmp(v, "acl") == 0) {
        args.sweep.workloads = {chaos::Workload::kAcl};
      } else if (std::strcmp(v, "all") != 0) {
        return false;
      }
    } else if (arg == "--policy") {
      const char* v = value();
      if (v == nullptr) return false;
      if (std::strcmp(v, "forward") == 0) {
        args.sweep.policies = {sched::RecoveryPolicy::kRollForward};
      } else if (std::strcmp(v, "rollback") == 0) {
        args.sweep.policies = {sched::RecoveryPolicy::kRollBack};
      } else if (std::strcmp(v, "both") != 0) {
        return false;
      }
    } else if (arg == "--tenants") {
      const char* v = value();
      if (v == nullptr) return false;
      args.service.tenants =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--intents") {
      const char* v = value();
      if (v == nullptr) return false;
      args.service.intents =
          static_cast<std::uint32_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--no-faults") {
      args.service.faults = false;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return false;
      args.replay = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (v == nullptr) return false;
      args.sweep.out_dir = v;
    } else if (arg == "--no-shrink") {
      args.sweep.shrink = false;
    } else if (arg == "--misbehavior") {
      args.sweep.misbehavior = true;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return false;
      args.opt.workers = static_cast<std::size_t>(std::strtoul(v, nullptr, 0));
    } else if (arg == "--wall") {
      args.opt.wall = true;
    } else if (arg == "--bench-speedup") {
      args.bench_speedup = true;
    } else if (arg == "--verbose") {
      args.opt.verbose = true;
    } else {
      return false;
    }
  }
  return true;
}

std::string run_label(const chaos::ChaosSchedule& s) {
  return "seed " + std::to_string(s.spec.seed) + " " +
         chaos::to_string(s.spec.workload) + "/" +
         sched::to_string(s.spec.policy);
}

int replay_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "chaos_soak: cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto parsed = chaos::parse_repro(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "chaos_soak: %s: %s\n", path.c_str(),
                 parsed.error().c_str());
    return 2;
  }
  const auto& repro = parsed.value();
  const auto result = chaos::run_chaos(repro.schedule);
  std::printf("replay %s: %zu violation(s), fingerprint 0x%016llx\n",
              run_label(repro.schedule).c_str(), result.violations.size(),
              static_cast<unsigned long long>(result.fingerprint));
  for (const auto& v : result.violations) {
    std::printf("  %s\n", chaos::to_string(v).c_str());
  }
  if (repro.fingerprint != 0 && repro.fingerprint != result.fingerprint) {
    std::printf("  note: fingerprint differs from capture (0x%016llx) — the\n"
                "  code under test changed since the repro was recorded\n",
                static_cast<unsigned long long>(repro.fingerprint));
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  log::set_threshold(args.opt.verbose ? log::Level::kInfo : log::Level::kError);
  // Fault storms repeat the same few lines thousands of times; cap each
  // message family and account for the rest in flush summaries.
  log::set_rate_limit(20);

  if (!args.replay.empty()) {
    const int rc = replay_file(args.replay);
    log::flush_suppressed();
    return rc;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.sweep.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "chaos_soak: cannot create %s: %s\n",
                 args.sweep.out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  const auto sweep = [&](const runner::SweepOptions& opt,
                         const runner::ChaosSweepConfig& cfg) {
    if (args.family == Family::kHa) return runner::run_ha_sweep(cfg, opt);
    if (args.family == Family::kService) {
      return runner::run_service_sweep(args.service, opt);
    }
    return runner::run_chaos_sweep(cfg, opt);
  };

  // Bench mode: a quiet serial pass first (no repro files, no narrative)
  // purely to measure the serial wall-clock the parallel pass is gated
  // against.
  std::uint64_t serial_wall_ns = 0;
  if (args.bench_speedup) {
    auto quiet = args.sweep;
    quiet.out_dir.clear();
    runner::SweepOptions serial;
    serial.workers = 1;
    serial_wall_ns = sweep(serial, quiet).total_wall_ns;
  }

  auto outcome = sweep(args.opt, args.sweep);

  if (args.bench_speedup && outcome.total_wall_ns > 0) {
    // Key named for tools/bench_compare.py: `speedup_` metrics gate
    // against the checked-in baseline with a lower tolerance band.
    outcome.report.set_result(
        "speedup_parallel",
        static_cast<double>(serial_wall_ns) /
            static_cast<double>(outcome.total_wall_ns));
    outcome.report.set_result("bench_workers",
                              static_cast<double>(args.opt.workers));
  }

  std::fputs(outcome.text.c_str(), stdout);
  std::fputs(outcome.errors.c_str(), stderr);
  log::flush_suppressed();

  const std::string report_path = args.sweep.out_dir + "/" +
                                  outcome.report.name() + ".json";
  if (!outcome.report.write(report_path)) {
    std::fprintf(stderr, "chaos_soak: cannot write %s\n", report_path.c_str());
  }

  const std::string rollbacks =
      args.family == Family::kService
          ? ", " + std::to_string(outcome.rollback_runs) + " exercised a rollback"
          : "";
  std::printf("%zu %s, %zu with violations%s; report at %s\n", outcome.runs,
              args.family == Family::kHa ? "HA run(s)" : "run(s)",
              outcome.violations, rollbacks.c_str(), report_path.c_str());
  return outcome.ok() ? 0 : 1;
}
