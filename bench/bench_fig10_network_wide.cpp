// Figure 10 reproduction: network-wide update scenarios on the hardware
// testbed triangle (s1, s2: Vendor #1; s3: Vendor #3) — Link Failure, and
// two Traffic Engineering mixes — under Dionysus, Tango with rule-type
// patterns only, and Tango with type + priority patterns.
#include <map>

#include "bench/bench_util.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"
#include "workload/scenarios.h"

namespace {

using namespace tango;

struct Testbed {
  net::Network net;
  workload::TestbedIds ids;
};

void build(Testbed& tb) {
  namespace profiles = switchsim::profiles;
  tb.ids.s1 = tb.net.add_switch(profiles::switch1());
  tb.ids.s2 = tb.net.add_switch(profiles::switch1());
  tb.ids.s3 = tb.net.add_switch(profiles::switch3());
}

void preinstall(Testbed& tb, std::size_t flows) {
  for (const auto id : {tb.ids.s1, tb.ids.s2, tb.ids.s3}) {
    core::ProbeEngine probe(tb.net, id);
    for (std::uint32_t i = 0; i < flows; ++i) {
      probe.install(i, static_cast<std::uint16_t>(100 + (i * 7) % 900));
    }
    tb.net.barrier_sync(id);
  }
}

/// Costs learned once on a scratch copy of the testbed (probing the real
/// one would perturb the preinstalled state).
std::map<SwitchId, core::OpCostEstimate> learn_costs() {
  Testbed tb;
  build(tb);
  core::TangoController tango(tb.net);
  std::map<SwitchId, core::OpCostEstimate> costs;
  for (const auto id : {tb.ids.s1, tb.ids.s2, tb.ids.s3}) {
    core::LearnOptions options;
    options.size.max_rules = 1024;
    options.infer_policy = false;
    costs[id] = tango.learn(id, options).costs;
  }
  return costs;
}

enum class Mode { kDionysus, kTangoType, kTangoTypePriority };

double run_scenario(const char* which, Mode mode,
                    const std::map<SwitchId, core::OpCostEstimate>& costs,
                    telemetry::Telemetry* tele = nullptr) {
  Testbed tb;
  build(tb);
  if (tele != nullptr) tb.net.set_telemetry(tele);
  Rng rng(99);
  sched::RequestDag dag;
  if (std::string(which) == "LF") {
    preinstall(tb, 400);
    dag = workload::link_failure_scenario(tb.ids, 400, rng, /*first=*/0);
  } else if (std::string(which) == "TE1") {
    preinstall(tb, 400);
    dag = workload::traffic_engineering_scenario(tb.ids, 800, 2, 1, 1, rng,
                                                 100000, 400);
  } else {
    preinstall(tb, 400);
    dag = workload::traffic_engineering_scenario(tb.ids, 800, 1, 1, 1, rng,
                                                 100000, 400);
  }

  switch (mode) {
    case Mode::kDionysus: {
      sched::DionysusScheduler sched;
      return sched::execute(tb.net, dag, sched).makespan.sec();
    }
    case Mode::kTangoType: {
      sched::TangoSchedulerOptions options;
      options.sort_priorities = false;
      sched::BasicTangoScheduler sched(costs, options);
      return sched::execute(tb.net, dag, sched).makespan.sec();
    }
    case Mode::kTangoTypePriority: {
      sched::BasicTangoScheduler sched(costs);
      return sched::execute(tb.net, dag, sched).makespan.sec();
    }
  }
  return 0;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 10: testbed network-wide optimization (LF / TE1 / TE2)",
      "Tango(Type) beats Dionysus by 0%/20%/26%; Tango(Type+Priority) by "
      "70%/33%/28%");

  const auto costs = learn_costs();
  bench::BenchReport report("fig10_network_wide");

  std::printf("%-5s | %-10s | %-12s | %-18s | improvements\n", "case",
              "Dionysus", "Tango(Type)", "Tango(Type+Prio)");
  std::printf("------+------------+--------------+--------------------+----------------\n");
  for (const char* which : {"LF", "TE1", "TE2"}) {
    const double base = run_scenario(which, Mode::kDionysus, costs);
    const double type_only = run_scenario(which, Mode::kTangoType, costs);
    const double full = run_scenario(which, Mode::kTangoTypePriority, costs);
    std::printf("%-5s | %8.2f s | %10.2f s | %16.2f s | type %.0f%%, +prio %.0f%%\n",
                which, base, type_only, full,
                100.0 * (1.0 - type_only / base), 100.0 * (1.0 - full / base));
    report.json()
        .add_row()
        .col("case", which)
        .col("dionysus_s", base)
        .col("tango_type_s", type_only)
        .col("tango_type_priority_s", full);
    report.json().set_result(std::string(which) + ".tango_type_priority_s",
                             full);
  }

  if (bench::telemetry_enabled()) {
    // One fully traced run (LF under Tango Type+Priority): its per-switch
    // lanes must reconstruct the makespan the table reports —
    // tools/validate_telemetry.py checks exactly that.
    telemetry::Telemetry tele;
    tele.trace.set_process_name("bench_fig10_network_wide");
    const double traced =
        run_scenario("LF", Mode::kTangoTypePriority, costs, &tele);
    const char* trace_path = "BENCH_fig10_network_wide.trace.json";
    if (tele.trace.write_chrome_json(trace_path)) {
      std::printf("  trace:  %s (open in chrome://tracing or ui.perfetto.dev)\n",
                  trace_path);
    }
    report.json().set_result("trace_case", "LF");
    report.json().set_result("trace_mode", "tango_type_priority");
    report.json().set_result("trace_makespan_ns", traced * 1e9);
    report.json().add_metrics(tele.metrics);
    report.json().add_spans(tele.trace, {"executor", "txn"});
  }
  bench::print_footer();
  return 0;
}
