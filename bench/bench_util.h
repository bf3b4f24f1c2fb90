// Shared helpers for the figure/table reproduction benches: consistent
// headers, paper-vs-measured rows, ACL installation runs, and the
// machine-readable BENCH_<name>.json run reports every bench emits
// alongside its text output (schema: tango.run_report.v1 — see
// docs/OBSERVABILITY.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/network.h"
#include "tango/latency_profiler.h"
#include "tango/probe_engine.h"
#include "telemetry/run_report.h"
#include "workload/classbench.h"

namespace tango::bench {

inline void print_header(const std::string& experiment, const std::string& paper_summary) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("  paper: %s\n", paper_summary.c_str());
  std::printf("==============================================================================\n");
}

inline void print_footer() { std::printf("\n"); }

/// Telemetry gate for benches: on by default, disabled with
/// TANGO_TELEMETRY=0/off/false — the knob the zero-overhead acceptance
/// check flips to prove disabled runs are bit-identical.
inline bool telemetry_enabled() {
  const char* v = std::getenv("TANGO_TELEMETRY");
  if (v == nullptr) return true;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 &&
         std::strcmp(v, "false") != 0;
}

/// RAII run-report writer: collects results/rows (and optionally a metrics
/// snapshot + key spans) during the bench, writes BENCH_<name>.json when it
/// goes out of scope. Writing is unconditional — the report documents the
/// run whether or not tracing was on.
class BenchReport {
 public:
  explicit BenchReport(const std::string& name)
      : report_(name), path_("BENCH_" + name + ".json") {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    if (report_.write(path_)) {
      std::printf("  report: %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "bench: failed to write %s\n", path_.c_str());
    }
  }

  [[nodiscard]] telemetry::RunReport& json() { return report_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  telemetry::RunReport report_;
  std::string path_;
};

/// Keep a value alive without letting the optimizer fold the computation.
template <typename T>
inline void keep(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

/// Best-of-3 time-budgeted throughput: runs `op` in small batches until the
/// budget elapses, three times, and keeps the fastest rate (robust against
/// background load on shared runners).
template <typename Op>
double ops_per_sec(Op&& op, double budget_s = 0.1) {
  using clock = std::chrono::steady_clock;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    op();  // warm caches outside the timed region
    std::size_t iters = 0;
    const auto start = clock::now();
    const auto deadline = start + std::chrono::duration_cast<clock::duration>(
                                      std::chrono::duration<double>(budget_s));
    auto now = start;
    while (now < deadline) {
      for (int i = 0; i < 4; ++i) {
        op();
        ++iters;
      }
      now = clock::now();
    }
    const double secs = std::chrono::duration<double>(now - start).count();
    if (secs > 0) best = std::max(best, static_cast<double>(iters) / secs);
  }
  return best;
}

/// Mean and sample stddev of a series.
struct Stats {
  double mean = 0;
  double stddev = 0;
};

inline Stats stats_of(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  for (double x : xs) s.mean += x;
  s.mean /= static_cast<double>(xs.size());
  if (xs.size() > 1) {
    double acc = 0;
    for (double x : xs) acc += (x - s.mean) * (x - s.mean);
    s.stddev = std::sqrt(acc / static_cast<double>(xs.size() - 1));
  }
  return s;
}

/// Install an ACL with the given per-rule priorities in the given order
/// (indices into `rules`); returns the barrier-to-barrier install time.
inline SimDuration install_acl(core::ProbeEngine& probe,
                               const std::vector<workload::AclRule>& rules,
                               const std::vector<std::uint16_t>& priorities,
                               const std::vector<std::size_t>& order,
                               std::size_t* rejected = nullptr) {
  std::vector<of::FlowMod> commands;
  commands.reserve(order.size());
  for (std::size_t idx : order) {
    of::FlowMod fm;
    fm.command = of::FlowModCommand::kAdd;
    fm.match = rules[idx].match;
    fm.priority = priorities[idx];
    fm.actions = of::output_to(2);
    commands.push_back(std::move(fm));
  }
  return probe.timed_batch(commands, rejected);
}

/// Identity order 0..n-1.
inline std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

/// Order sorted by ascending priority (the probing-engine-optimal order on
/// priority-sensitive hardware).
inline std::vector<std::size_t> ascending_order(
    const std::vector<std::uint16_t>& priorities) {
  auto order = identity_order(priorities.size());
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return priorities[a] < priorities[b];
  });
  return order;
}

}  // namespace tango::bench
