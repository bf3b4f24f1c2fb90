// End-to-end benchmark program for the Tango controller.
//
//   perfbench --workload fabric_commit|fleet_learn|fault_soak
//             --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Each workload is a closed loop with one controller: an operation (a
// network-wide commit pair, a fleet learn, a set of soak sweeps) starts
// when the previous one returns, until --seconds have passed and at least
// kMinOps operations ran. Layers are timed from outside, around the
// program's own calls into each layer's public functions, and read through
// the public counters the layers expose; nothing under src/ is
// instrumented for this benchmark.
//
// The end-to-end times are scaled to a nominal host speed: every timed
// section runs between two readings of a fixed reference kernel (HostGauge),
// and its wall time is multiplied by nominal / measured kernel time.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced operations: traced ones record a span at every layer call
// (kept in memory, written once to --spans when the run ends) and feed the
// per-layer metrics; the untraced ones give the baseline the tracing
// overhead is measured against. Every metric is printed as
// "metric <name> = <median> <unit> (n=<samples>, ...)"; the last line of
// standard output is one JSON object (correct/attempted/failed/metrics).
// A failed output check makes the run exit with status 1.
//
// perfbench/README.md documents the workloads, the layer -> metric ->
// workload map, and the defects the benchmark counts.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "common/logging.h"
#include "common/rng.h"
#include "net/network.h"
#include "runner/soak.h"
#include "scheduler/reconciler.h"
#include "scheduler/schedulers.h"
#include "scheduler/transaction.h"
#include "switchsim/profiles.h"
#include "tango/tango.h"
#include "workload/scenarios.h"
#include "workload/topology_gen.h"

namespace {

using namespace tango;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

/// Operations that run even once --seconds is spent, so that every median
/// has samples (and a traced run has traced operations).
constexpr std::size_t kMinOps = 2;

/// The seed whose virtual-time outputs and sweep fingerprints are pinned.
constexpr std::uint64_t kDefaultSeed = 1;

// The metrics BENCHMARK.json declares: --trace 0 prints the end-to-end set,
// --trace 1 the per-layer set, each with exactly these names and units.
struct MetricDecl {
  const char* name;
  const char* unit;
};

constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"op_s", "s"}};

constexpr MetricDecl kPerLayer[] = {
    // fabric_commit
    {"commit_rps", "1/s"},
    {"commit_rps_dionysus", "1/s"},
    {"sched.order_s", "s"},
    {"sched.order_calls", "count"},
    {"sched.ready_mean", "count"},
    {"exec.self_s", "s"},
    {"txn.begin_s", "s"},
    {"sched.order_s_dionysus", "s"},
    {"exec.self_s_dionysus", "s"},
    {"chan.msgs_to_switch", "count"},
    {"chan.bytes_to_switch", "B"},
    {"workload.gen_s", "s"},
    {"fabric.build_s", "s"},
    {"knowledge.adopt_s", "s"},
    {"commit.scaling_4x", "ratio"},
    {"commit.scaling_4x_dionysus", "ratio"},
    // fleet_learn
    {"learn_s", "s"},
    {"infer.size_s", "s"},
    {"infer.policy_s", "s"},
    {"infer.latency_s", "s"},
    {"infer.width_s", "s"},
    {"net.evloop_s", "s"},
    {"net.evloop_share", "ratio"},
    {"probe.msgs", "count"},
    {"probe.bytes", "B"},
    {"probe.msgs_per_s", "1/s"},
    {"probe.lost", "count"},
    // fault_soak
    {"soak_runs_per_s", "1/s"},
    {"soak.chaos_s", "s"},
    {"soak.ha_s", "s"},
    {"soak.service_s", "s"},
    {"soak.chaos.run_p50_ms", "ms"},
    {"soak.chaos.run_p99_ms", "ms"},
    {"soak.ha.run_p50_ms", "ms"},
    {"soak.ha.run_p99_ms", "ms"},
    {"soak.service.run_p50_ms", "ms"},
    {"soak.service.run_p99_ms", "ms"},
    {"soak.events", "count"},
    {"soak.violations", "count"},
    {"pool.efficiency", "ratio"},
    // every workload
    {"op_wall_s", "s"},
    {"host.gauge_s", "s"},
    {"fail_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t op = 0;
  double t0 = 0;
  double t1 = 0;
};

/// In-memory span recorder. Top-level "op" spans are recorded for every
/// operation of a traced run; layer spans only while detail is on (the
/// traced operations). With tracing off every call is one branch.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] bool detail() const { return on_ && detail_; }
  void set_detail(bool detail) { detail_ = detail; }

  int open(const char* name, std::uint64_t op, bool top) {
    if (!on_ || (!top && !detail_)) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.t0 = now_s();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].t1 = now_s();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  bool detail_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op, bool top = false)
      : tracer_(tracer), idx_(tracer.open(name, op, top)) {}
  ~ScopedSpan() { tracer_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int idx_;
};

/// Self time (duration minus the children's) summed by span name, over the
/// spans of operation `op` that lie under a span named `under`.
std::map<std::string, double> self_times(const std::vector<Span>& spans,
                                         std::uint64_t op,
                                         const std::string& under) {
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op != op) continue;
    bool inside = false;
    for (int p = spans[i].parent; p >= 0 && !inside;
         p = spans[static_cast<std::size_t>(p)].parent) {
      inside = spans[static_cast<std::size_t>(p)].name == under;
    }
    if (inside) out[spans[i].name] += spans[i].t1 - spans[i].t0 - child[i];
  }
  return out;
}

/// Total duration of the spans named `name` in operation `op`.
double span_total(const std::vector<Span>& spans, std::uint64_t op,
                  const std::string& name) {
  double total = 0;
  for (const auto& s : spans) {
    if (s.op == op && s.name == name) total += s.t1 - s.t0;
  }
  return total;
}

/// Structural checks on a finished trace: children never sum past their
/// parent's wall time, and top-level spans cover at least 90% of the
/// measured window. Returns the coverage share; problems go to `problems`.
double check_spans(const std::vector<Span>& spans, double window_s,
                   std::vector<std::string>& problems) {
  constexpr double kSlack = 1e-6;  // clock read granularity
  std::vector<double> child(spans.size(), 0.0);
  double top = 0;
  for (const auto& s : spans) {
    if (s.t1 < s.t0) problems.push_back("span " + s.name + " ends before it starts");
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    } else {
      top += s.t1 - s.t0;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (child[i] > spans[i].t1 - spans[i].t0 + kSlack) {
      problems.push_back("children of span " + spans[i].name +
                         " sum past its wall time");
    }
  }
  const double coverage = window_s > 0 ? top / window_s : 0;
  if (coverage < 0.9) {
    problems.push_back("spans cover only " + std::to_string(coverage) +
                       " of the measured wall time");
  }
  return coverage;
}

bool write_spans(const std::vector<Span>& spans, double window_s,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"window_s\": %.9f, \"spans\": [\n", window_s);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"op\": %llu, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent,
                 static_cast<unsigned long long>(s.op), s.t0, s.t1,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Metrics and checks
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

class Results {
 public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  [[nodiscard]] double median(const std::string& name) const {
    const auto* v = samples(name);
    return v ? quantile(*v, 0.5) : 0;
  }
  [[nodiscard]] const std::vector<double>* samples(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? nullptr : &it->second;
  }

  /// An output check. A failure makes the run's result incorrect.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
    }
  }
  /// Operations (requests, inferred properties, soak runs) for fail_frac.
  void count_ops(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Operations that ran to completion but that the program under test
  /// flagged as wrong: soak runs whose chaos oracles report a violation.
  /// They count in fail_frac, not in the result's failed operations.
  void flag_ops(std::size_t flagged) { flagged_ += flagged; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::size_t checks() const { return checks_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t flagged() const { return flagged_; }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::size_t checks_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t flagged_ = 0;
  bool correct_ = true;
};

/// Silences the logger for a timed section: console I/O from the recovery
/// paths would otherwise be part of what is measured.
class QuietLog {
 public:
  QuietLog() : prev_(log::threshold()) { log::set_threshold(log::Level::kOff); }
  ~QuietLog() { log::set_threshold(prev_); }
  QuietLog(const QuietLog&) = delete;
  QuietLog& operator=(const QuietLog&) = delete;

 private:
  log::Level prev_;
};

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss survives exec, so it would report the launching
/// interpreter's peak when that was larger.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Host-speed gauge
// ---------------------------------------------------------------------------

/// One gauge reading's wall time on a quiet 4-vCPU Xeon VM, where the
/// benchmark was written: the host speed the end-to-end times are scaled to.
constexpr double kGaugeNominalS = 0.075;

/// The reference kernel: the shape of a discrete-event loop (a tree map of
/// about 20k entries under insert/lookup/erase churn, next to a 4k-entry
/// binary heap), so that host contention slows it about as much as it slows
/// the simulator. Its input is fixed, and it calls nothing in src/. It
/// allocates from `memory` only, so it leaves the program's heap as it was.
std::uint64_t gauge_kernel(std::pmr::memory_resource* memory) {
  std::pmr::map<std::uint64_t, std::uint64_t> table(memory);
  std::priority_queue<std::uint64_t, std::pmr::vector<std::uint64_t>, std::greater<>> heap(
      std::greater<>{}, std::pmr::vector<std::uint64_t>(memory));
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x % 20011] += i;
    heap.push(x % 1000003);
    if (heap.size() > 4000) {
      acc += heap.top();
      heap.pop();
    }
    const auto it = table.lower_bound(x % 20011);
    if (it != table.end() && (x & 3) == 0) table.erase(it);
  }
  return acc + table.size();
}

/// Measures the host's current speed next to every timed section. The
/// shared host this benchmark runs on changes speed by up to 2x, over
/// seconds to minutes (contention for its caches and memory, not CPU time);
/// a section's wall time divided by the kernel's time around it keeps the
/// program's own cost and drops most of the host's. A reading is kReps runs
/// of the kernel, about 75 ms.
class HostGauge {
 public:
  explicit HostGauge(Tracer& tracer) : tracer_(tracer) {}

  /// Runs fn() between two readings. Returns the factor that scales fn's
  /// wall time to the nominal host speed. The reading before is the
  /// previous section's reading after, when it is at most kReuseS old.
  template <typename Fn>
  double bracket(std::uint64_t op, Fn&& fn) {
    const double before = now_s() - last_end_ < kReuseS ? last_ : read(op);
    fn();
    const double after = read(op);
    return kGaugeNominalS / (0.5 * (before + after));
  }

  [[nodiscard]] const std::vector<double>& readings() const { return readings_; }

 private:
  static constexpr int kReps = 3;
  static constexpr double kReuseS = 0.01;

  double read(std::uint64_t op) {
    ScopedSpan span(tracer_, "host.gauge", op);
    const double t0 = now_s();
    for (int i = 0; i < kReps; ++i) sink_ = sink_ + gauge_kernel(&pool_);
    last_end_ = now_s();
    last_ = last_end_ - t0;
    readings_.push_back(last_);
    return last_;
  }

  Tracer& tracer_;
  std::pmr::unsynchronized_pool_resource pool_;  // the kernel's own heap
  double last_ = 0;
  double last_end_ = -1;
  volatile std::uint64_t sink_ = 0;  // keeps the kernel's work observable
  std::vector<double> readings_;
};

struct RunContext {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  Tracer& tracer;
  Results& results;
  HostGauge& gauge;
};

/// One operation's end-to-end time: its wall time, and the same scaled to
/// the nominal host speed (what op_s reports).
struct OpTime {
  double scaled_s = 0;
  double wall_s = 0;
};

/// The closed loop shared by every workload: runs `op(index)` until the
/// time is spent. In a traced run odd operations are traced and even ones
/// are not; an operation's scaled time lands in "op_s" or "trace.op_s"
/// accordingly. Records the measured window (first start .. last end).
template <typename Op>
void closed_loop(RunContext& ctx, Op&& op) {
  const double t_begin = now_s();
  for (std::size_t i = 0; i < kMinOps || now_s() - t_begin < ctx.seconds; ++i) {
    const bool traced = ctx.tracer.on() && i % 2 == 1;
    ctx.tracer.set_detail(traced);
    ScopedSpan span(ctx.tracer, "op", i, /*top=*/true);
    const OpTime t = op(static_cast<std::uint64_t>(i));
    ctx.results.add(traced ? "trace.op_s" : "op_s", t.scaled_s);
    if (!traced) ctx.results.add("op_wall_s", t.wall_s);
  }
  ctx.tracer.set_detail(false);
  ctx.results.add("window_s", now_s() - t_begin);
}

std::pair<std::uint64_t, std::uint64_t> to_switch_traffic(net::Network& net) {
  std::uint64_t msgs = 0, bytes = 0;
  for (SwitchId id = 1; id <= net.switch_count(); ++id) {
    msgs += net.stats(id).messages_to_switch;
    bytes += net.stats(id).bytes_to_switch;
  }
  return {msgs, bytes};
}

// ---------------------------------------------------------------------------
// fabric_commit: network-wide update on a 1024-switch fat-tree
// ---------------------------------------------------------------------------

/// Counts and spans UpdateScheduler::order() around any scheduler, leaving
/// its decisions untouched.
class TimedScheduler final : public sched::UpdateScheduler {
 public:
  TimedScheduler(sched::UpdateScheduler& inner, Tracer& tracer, std::uint64_t op)
      : inner_(inner), tracer_(tracer), op_(op) {}
  std::vector<std::size_t> order(const sched::RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    ++calls;
    ready_total += ready.size();
    ScopedSpan span(tracer_, "sched.order", op_);
    return inner_.order(dag, std::move(ready));
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  std::size_t calls = 0;
  std::size_t ready_total = 0;

 private:
  sched::UpdateScheduler& inner_;
  Tracer& tracer_;
  std::uint64_t op_;
};

constexpr std::size_t kFlows = 2048;
constexpr std::size_t kFlowsSmall = kFlows / 4;
constexpr std::uint32_t kTxnId = 4242;  // pinned: cookies match across fabrics

// Virtual makespans of the default seed's 2048-flow update, in simulated
// nanoseconds. They are the paper's outputs, not wall time: a performance
// change must leave them bit-identical.
constexpr std::int64_t kPinnedMakespanTangoNs = 110250000;
constexpr std::int64_t kPinnedMakespanDionysusNs = 110250000;

switchsim::SwitchProfile quiet_ovs() {
  auto profile = switchsim::profiles::ovs();
  profile.costs.jitter_frac = 0;
  profile.paths.jitter_frac = 0;
  return profile;
}

/// A 1024-switch pod-scaled fat-tree (k=16, 60 pods) with pod 0's first core
/// uplink failed, every switch carrying the adopted OVS knowledge.
struct Fabric {
  net::Network net;
  workload::FatTreeNodes nodes;
  std::unique_ptr<core::TangoController> ctrl;
  std::map<SwitchId, core::OpCostEstimate> costs;
};

std::unique_ptr<Fabric> build_fabric(const core::SwitchKnowledge& learned,
                                     Tracer& tracer, std::uint64_t op) {
  auto f = std::make_unique<Fabric>();
  {
    ScopedSpan span(tracer, "fabric.build", op);
    workload::FatTreeSpec spec;
    spec.k = 16;
    spec.pods = 60;
    f->nodes = workload::build_fat_tree(f->net, spec, quiet_ovs());
    const auto broken =
        f->net.topology().link_between(f->nodes.agg[0][0], f->nodes.core[0]);
    if (broken) f->net.topology().set_link_state(*broken, false);
  }
  ScopedSpan span(tracer, "knowledge.adopt", op);
  f->ctrl = std::make_unique<core::TangoController>(f->net);
  for (SwitchId id = 1; id <= f->net.switch_count(); ++id) {
    core::SwitchKnowledge know = learned;
    know.switch_id = id;
    know.name = f->net.sw(id).profile().name;
    f->ctrl->adopt(std::move(know));
    f->costs.emplace(id, learned.costs);
  }
  return f;
}

sched::RequestDag make_dag(Fabric& f, std::size_t flows, std::uint64_t seed,
                           Tracer& tracer, std::uint64_t op) {
  ScopedSpan span(tracer, "workload.gen", op);
  workload::FabricUpdateSpec us;
  us.n_flows = flows;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + flows);
  return workload::fabric_update_scenario(f.net.topology(), f.nodes, us, rng);
}

struct CommitOutcome {
  double wall_s = 0;
  std::size_t order_calls = 0;
  std::size_t ready_total = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::int64_t makespan_ns = 0;
  std::size_t requests = 0;
  std::size_t bad_requests = 0;  // rejected, failed or never issued
  bool committed = false;
};

/// One timed commit: begin_update through commit() return. The span named
/// `span_name` holds "txn.begin" and "txn.commit"; the latter holds one
/// "sched.order" span per scheduling round.
CommitOutcome commit(Fabric& f, const sched::RequestDag& dag,
                     sched::UpdateScheduler& scheduler, const char* span_name,
                     Tracer& tracer, std::uint64_t op) {
  CommitOutcome out;
  out.requests = dag.size();
  QuietLog quiet;
  TimedScheduler timed(scheduler, tracer, op);
  sched::UpdateScheduler& use =
      tracer.detail() ? static_cast<sched::UpdateScheduler&>(timed) : scheduler;
  sched::TransactionOptions opts;
  opts.txn_id = kTxnId;
  sched::RequestDag own = dag;  // begin_update takes the DAG; copy untimed

  ScopedSpan span(tracer, span_name, op);
  const double t0 = now_s();
  auto txn = [&] {
    ScopedSpan begin(tracer, "txn.begin", op);
    return f.ctrl->begin_update(std::move(own), opts);
  }();
  const auto [msgs0, bytes0] = to_switch_traffic(f.net);
  const sched::TransactionReport* report = nullptr;
  {
    ScopedSpan c(tracer, "txn.commit", op);
    report = &txn.commit(use);
  }
  out.wall_s = now_s() - t0;

  const auto [msgs1, bytes1] = to_switch_traffic(f.net);
  out.msgs = msgs1 - msgs0;
  out.bytes = bytes1 - bytes0;
  out.order_calls = timed.calls;
  out.ready_total = timed.ready_total;
  out.makespan_ns = report->exec.makespan.ns();
  out.committed = report->committed;
  const std::size_t unissued = dag.size() - std::min(dag.size(), report->exec.issued);
  out.bad_requests = std::min(
      dag.size(), report->exec.rejected + report->exec.failed_requests + unissued);
  return out;
}

/// Every switch's table, read through the switch's flow-stats interface.
std::vector<sched::TableImage> read_tables(net::Network& net) {
  std::vector<sched::TableImage> out;
  out.reserve(net.switch_count());
  for (SwitchId id = 1; id <= net.switch_count(); ++id) {
    out.push_back(sched::image_of(net.sw(id).flow_stats(of::Match::any())));
  }
  return out;
}

double lookup(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

void fabric_commit(RunContext& ctx) {
  Tracer& tr = ctx.tracer;
  Results& res = ctx.results;

  // The fleet's knowledge: one OVS switch, learned once, adopted fleet-wide.
  core::SwitchKnowledge learned;
  {
    QuietLog quiet;
    net::Network net;
    const SwitchId id = net.add_switch(quiet_ovs());
    core::TangoController ctrl(net);
    learned = ctrl.learn(id);
  }

  std::int64_t makespan_t = -1, makespan_d = -1;
  std::size_t requests = 0;
  HostGauge& gauge = ctx.gauge;
  closed_loop(ctx, [&](std::uint64_t op) {
    double setup_s = 0;       // scaled to the nominal host speed
    double setup_wall_s = 0;  // wall time of the latest setup section
    auto setup = [&](auto&& fn) {
      std::optional<decltype(fn())> v;
      const double scale = gauge.bracket(op, [&] {
        ScopedSpan s(tr, "setup", op);
        const double t0 = now_s();
        v.emplace(fn());
        setup_wall_s = now_s() - t0;
      });
      setup_s += setup_wall_s * scale;
      return std::move(*v);
    };
    auto teardown = [&](std::unique_ptr<Fabric>& f) {
      ScopedSpan s(tr, "teardown", op);
      f.reset();
    };

    // The 2048-flow update under Tango, then under Dionysus on a fresh
    // fabric; the two end states must match.
    auto fabric = setup([&] { return build_fabric(learned, tr, op); });
    const auto dag = setup([&] { return make_dag(*fabric, kFlows, ctx.seed, tr, op); });
    const double gen_s = setup_wall_s;
    sched::BasicTangoScheduler tango_sched(fabric->costs);
    CommitOutcome t, d;
    const double t_scale = gauge.bracket(
        op, [&] { t = commit(*fabric, dag, tango_sched, "commit.tango", tr, op); });
    std::vector<sched::TableImage> tango_tables;
    {
      ScopedSpan s(tr, "check", op);
      tango_tables = read_tables(fabric->net);
    }
    teardown(fabric);

    fabric = setup([&] { return build_fabric(learned, tr, op); });
    sched::DionysusScheduler dionysus;
    const double d_scale = gauge.bracket(
        op, [&] { d = commit(*fabric, dag, dionysus, "commit.dionysus", tr, op); });
    {
      ScopedSpan s(tr, "check", op);
      res.check(read_tables(fabric->net) == tango_tables,
                "Tango and Dionysus end tables are identical");
    }
    teardown(fabric);

    // A quarter of the flows, for the scaling ratios t(4n)/t(n).
    fabric = setup([&] { return build_fabric(learned, tr, op); });
    const auto small =
        setup([&] { return make_dag(*fabric, kFlowsSmall, ctx.seed, tr, op); });
    sched::BasicTangoScheduler tango_small(fabric->costs);
    const auto ts = commit(*fabric, small, tango_small, "commit.tango_small", tr, op);
    teardown(fabric);
    fabric = setup([&] { return build_fabric(learned, tr, op); });
    const auto ds = commit(*fabric, small, dionysus, "commit.dionysus_small", tr, op);
    teardown(fabric);

    ScopedSpan check(tr, "check", op);
    for (const CommitOutcome* c : std::array<const CommitOutcome*, 4>{&t, &d, &ts, &ds}) {
      res.check(c->committed, "commit verified");
      res.check(c->bad_requests == 0, "no request rejected, failed or unissued");
      res.count_ops(c->requests, c->committed ? c->bad_requests : c->requests);
    }
    if (makespan_t < 0) {
      makespan_t = t.makespan_ns;
      makespan_d = d.makespan_ns;
      requests = t.requests;
    }
    res.check(t.makespan_ns == makespan_t && d.makespan_ns == makespan_d,
              "virtual makespans repeat across operations");
    if (ctx.seed == kDefaultSeed) {
      res.check(t.makespan_ns == kPinnedMakespanTangoNs,
                "Tango makespan equals the pinned value");
      res.check(d.makespan_ns == kPinnedMakespanDionysusNs,
                "Dionysus makespan equals the pinned value");
    }

    res.add("setup_s", setup_s);
    res.add("commit_rps", static_cast<double>(t.requests) / t.wall_s);
    res.add("commit_rps_dionysus", static_cast<double>(d.requests) / d.wall_s);
    res.add("commit.scaling_4x", t.wall_s / ts.wall_s);
    res.add("commit.scaling_4x_dionysus", d.wall_s / ds.wall_s);
    res.add("chan.msgs_to_switch", static_cast<double>(t.msgs));
    res.add("chan.bytes_to_switch", static_cast<double>(t.bytes));
    res.add("workload.gen_s", gen_s);
    if (tr.detail()) {
      const auto& spans = tr.spans();
      const auto tango = self_times(spans, op, "commit.tango");
      const auto dio = self_times(spans, op, "commit.dionysus");
      res.add("sched.order_s", lookup(tango, "sched.order"));
      res.add("exec.self_s", lookup(tango, "txn.commit"));
      res.add("txn.begin_s", lookup(tango, "txn.begin"));
      res.add("sched.order_s_dionysus", lookup(dio, "sched.order"));
      res.add("exec.self_s_dionysus", lookup(dio, "txn.commit"));
      res.add("sched.order_calls", static_cast<double>(t.order_calls));
      res.add("sched.ready_mean",
              static_cast<double>(t.ready_total) /
                  static_cast<double>(std::max<std::size_t>(1, t.order_calls)));
      res.add("fabric.build_s", span_total(spans, op, "fabric.build"));
      res.add("knowledge.adopt_s", span_total(spans, op, "knowledge.adopt"));
    }
    return OpTime{t.wall_s * t_scale + d.wall_s * d_scale, t.wall_s + d.wall_s};
  });
  std::printf("perfbench: fabric_commit %zu requests, virtual makespan %lld ns "
              "(Tango) / %lld ns (Dionysus)\n",
              requests, static_cast<long long>(makespan_t),
              static_cast<long long>(makespan_d));
}

// ---------------------------------------------------------------------------
// fleet_learn: full inference over the paper fleet plus an LRU cache switch
// ---------------------------------------------------------------------------

struct FleetSwitch {
  switchsim::SwitchProfile profile;
  /// Ground truth of the fastest layer, entries; 0 = unbounded software.
  double fast_size = 0;
  /// Ground-truth TCAM mode; nullopt = software (width reports unbounded).
  std::optional<tables::TcamMode> mode;
  /// Ground-truth replacement policy, for switches whose policy is probed.
  std::optional<tables::LexCachePolicy> policy;
};

std::vector<FleetSwitch> fleet() {
  namespace profiles = switchsim::profiles;
  // Table 1 of the paper (Switch #1 in its default double-wide mode holds
  // 2K rules in TCAM), plus a synthetic 512-entry LRU cache over software.
  return {
      {profiles::ovs(), 0, std::nullopt, std::nullopt},
      {profiles::switch1(), 2048, tables::TcamMode::kDoubleWide, std::nullopt},
      {profiles::switch2(), 2560, tables::TcamMode::kDoubleWide, std::nullopt},
      {profiles::switch3(), 767, tables::TcamMode::kAdaptive, std::nullopt},
      {profiles::policy_cache("lru512", {512}, tables::LexCachePolicy::lru()), 512,
       tables::TcamMode::kSingleWide, tables::LexCachePolicy::lru()},
  };
}

core::LearnOptions fleet_options(std::uint64_t seed) {
  core::LearnOptions opts;
  opts.size.max_rules = 4096;
  opts.latency.seed = seed;
  opts.infer_width = true;
  // Below Switch #1's 2048-entry fast layer: its own policy pass takes most
  // of a minute. The 512-entry LRU switch still runs Algorithm 2.
  opts.max_policy_cache_size = 1024;
  return opts;
}

/// learn() spelled out stage by stage (same calls, same order, same
/// configuration), so a traced operation can time each inference layer.
core::SwitchKnowledge learn_by_stage(net::Network& net, SwitchId id,
                                     const core::LearnOptions& options,
                                     Tracer& tr, std::uint64_t op,
                                     std::size_t& lost) {
  core::SwitchKnowledge know;
  know.switch_id = id;
  know.name = net.sw(id).profile().name;
  core::ProbeEngine probe(net, id);
  core::ScoreDb scores;
  auto clear = [&] {
    ScopedSpan s(tr, "probe.clear", op);
    probe.clear_rules();
  };
  clear();
  {
    ScopedSpan s(tr, "infer.size", op);
    know.sizes = core::infer_sizes(probe, options.size);
  }
  clear();
  const std::size_t fast =
      know.sizes.layer_sizes.empty() || know.sizes.clusters.size() <= 1
          ? 0
          : static_cast<std::size_t>(std::llround(know.sizes.layer_sizes.front()));
  if (options.infer_policy && fast > 0 && fast <= options.max_policy_cache_size) {
    ScopedSpan s(tr, "infer.policy", op);
    core::PolicyInferenceConfig pc;
    pc.cache_size = fast;
    know.policy = core::infer_policy(probe, pc);
  }
  clear();
  auto latency = options.latency;
  const std::size_t capacity = know.sizes.hit_rule_cap ? 0 : know.sizes.installed;
  if (capacity > 0) {
    latency.preinstalled = std::min(latency.preinstalled, capacity / 2);
    latency.batch_size =
        std::min(latency.batch_size, std::max<std::size_t>(1, capacity / 3));
  }
  {
    ScopedSpan s(tr, "infer.latency", op);
    know.costs = core::profile_op_costs(probe, latency, &scores);
  }
  clear();
  if (options.infer_width) {
    ScopedSpan s(tr, "infer.width", op);
    core::WidthInferenceConfig wc;
    wc.size = options.size;
    wc.max_rules = std::max<std::size_t>(options.size.max_rules, 256);
    know.width = core::infer_width(probe, wc);
  }
  clear();
  lost += probe.lost_probes() + probe.abandoned_probes();
  return know;
}

/// Checks one switch's inferred properties against ground truth; each
/// property is one fail_frac operation.
void check_knowledge(const core::SwitchKnowledge& know, const FleetSwitch& truth,
                     Results& res) {
  std::size_t props = 0, bad = 0;
  auto prop = [&](bool ok, const std::string& what) {
    ++props;
    if (!ok) {
      ++bad;
      std::fprintf(stderr, "perfbench: %s: %s outside tolerance\n",
                   know.name.c_str(), what.c_str());
    }
  };
  const auto& sizes = know.sizes.layer_sizes;
  if (truth.fast_size == 0) {
    prop(know.sizes.hit_rule_cap && sizes.size() == 1, "unbounded table");
  } else {
    const double est = sizes.empty() ? 0 : sizes.front();
    prop(std::fabs(est - truth.fast_size) <= 0.15 * truth.fast_size,
         "fast-layer size " + std::to_string(est));
  }
  if (truth.mode) {
    prop(know.width && !know.width->unbounded && know.width->mode == *truth.mode,
         "TCAM mode");
  } else {
    prop(know.width && know.width->unbounded, "software width");
  }
  if (truth.policy) {
    prop(know.policy && know.policy->policy == *truth.policy,
         "cache policy " + (know.policy ? know.policy->policy.describe() : "(none)"));
  }
  res.count_ops(props, bad);
}

void fleet_learn(RunContext& ctx) {
  Tracer& tr = ctx.tracer;
  Results& res = ctx.results;
  const auto switches = fleet();
  const auto opts = fleet_options(ctx.seed);
  constexpr std::size_t kSetups = 16;  // world constructions per operation

  auto build_world = [&] {
    auto net = std::make_unique<net::Network>();
    for (std::size_t i = 0; i < switches.size(); ++i) {
      net->add_switch(switches[i].profile, ctx.seed * 31 + i);
    }
    return net;
  };

  std::vector<std::string> first;  // knowledge summaries of operation 0
  closed_loop(ctx, [&](std::uint64_t op) {
    std::unique_ptr<net::Network> net;
    std::array<double, kSetups> builds{};
    std::vector<core::SwitchKnowledge> learned;
    std::size_t lost = 0;
    std::uint64_t wall0 = 0;
    double learn_s = 0;
    QuietLog quiet;
    // Set-up and learn share one bracket: set-up takes microseconds.
    const double scale = ctx.gauge.bracket(op, [&] {
      {
        ScopedSpan s(tr, "setup", op);
        for (auto& b : builds) {
          const double t0 = now_s();
          net = build_world();
          b = now_s() - t0;
        }
      }
      wall0 = net->wall_ns();
      const double t0 = now_s();
      if (tr.detail()) {
        for (SwitchId id = 1; id <= net->switch_count(); ++id) {
          ScopedSpan s(tr, "learn.switch", op);
          learned.push_back(learn_by_stage(*net, id, opts, tr, op, lost));
        }
      } else {
        core::TangoController ctrl(*net);
        for (SwitchId id = 1; id <= net->switch_count(); ++id) {
          learned.push_back(ctrl.learn(id, opts));
        }
      }
      learn_s = now_s() - t0;
    });
    for (const double b : builds) res.add("setup_s", b * scale);
    const double evloop_s = static_cast<double>(net->wall_ns() - wall0) / 1e9;

    ScopedSpan check(tr, "check", op);
    std::vector<std::string> summaries;
    for (std::size_t i = 0; i < learned.size(); ++i) {
      check_knowledge(learned[i], switches[i], res);
      summaries.push_back(learned[i].summary());
    }
    if (first.empty()) first = summaries;
    // learn() (untraced operations) and the stage-by-stage calls (traced
    // ones) must infer exactly the same properties.
    res.check(summaries == first, "inferred knowledge repeats across operations");
    const auto [msgs, bytes] = to_switch_traffic(*net);
    res.add("learn_s", learn_s);
    res.add("net.evloop_s", evloop_s);
    res.add("net.evloop_share", evloop_s / learn_s);
    res.add("probe.msgs", static_cast<double>(msgs));
    res.add("probe.bytes", static_cast<double>(bytes));
    res.add("probe.msgs_per_s", static_cast<double>(msgs) / learn_s);
    if (tr.detail()) {
      const auto& spans = tr.spans();
      res.add("probe.lost", static_cast<double>(lost));
      for (const char* stage :
           {"infer.size", "infer.policy", "infer.latency", "infer.width"}) {
        res.add(std::string(stage) + "_s", span_total(spans, op, stage));
      }
    }
    return OpTime{learn_s * scale, learn_s};
  });
  for (const auto& s : first) std::printf("perfbench: learned %s\n", s.c_str());
}

// ---------------------------------------------------------------------------
// fault_soak: chaos, HA and service sweeps on the parallel runner
// ---------------------------------------------------------------------------

constexpr std::size_t kSoakWorkers = 2;
constexpr std::uint64_t kChaosSeeds = 100;
constexpr std::uint64_t kHaSeeds = 200;
constexpr std::uint64_t kServiceSeeds = 500;

// Sweep fingerprints of the default seed's ranges (chaos seeds 1-100, HA
// 1-200, service 1-500). Any change in behaviour under faults moves them.
constexpr std::array<std::uint64_t, 3> kPinnedFingerprints = {
    0x43a262cdea091be7ULL, 0x752e74446026b08cULL, 0xb76cb4c1d519deaeULL};

/// One numeric column of a sweep report, in row order.
std::vector<double> column(const runner::SweepOutcome& out, const char* col) {
  std::vector<double> v;
  const std::string json = out.report.to_json();
  const std::string key = std::string("\"") + col + "\": ";
  for (std::size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + key.size())) {
    v.push_back(std::strtod(json.c_str() + pos + key.size(), nullptr));
  }
  return v;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

/// Constructs the world of every chaos job in the grid (fault schedule,
/// three-switch testbed, workload pre-state) the way the harness does at
/// the start of each run.
void build_chaos_worlds(const runner::ChaosSweepConfig& cfg) {
  namespace profiles = switchsim::profiles;
  for (std::uint64_t seed = cfg.seed_lo; seed <= cfg.seed_hi; ++seed) {
    for (const auto w : cfg.workloads) {
      for (const auto p : cfg.policies) {
        const auto schedule =
            chaos::generate_schedule(chaos::ChaosSpec{seed, w, p, cfg.horizon, false});
        net::Network net;
        workload::TestbedIds tb;
        tb.s1 = net.add_switch(chaos::quiet_profile(profiles::switch1()));
        tb.s2 = net.add_switch(chaos::quiet_profile(profiles::switch1()));
        tb.s3 = net.add_switch(chaos::quiet_profile(profiles::switch3()));
        sched::RequestDag dag;
        chaos::build_workload(schedule.spec, net, tb, dag);
      }
    }
  }
}

void fault_soak(RunContext& ctx) {
  Tracer& tr = ctx.tracer;
  Results& res = ctx.results;
  runner::SweepOptions sopt;
  sopt.workers = kSoakWorkers;
  sopt.wall = true;
  // --seed N selects the N-th block of seeds of each sweep.
  runner::ChaosSweepConfig chaos_cfg;
  chaos_cfg.seed_lo = 1 + (ctx.seed - 1) * kChaosSeeds;
  chaos_cfg.seed_hi = chaos_cfg.seed_lo + kChaosSeeds - 1;
  chaos_cfg.horizon = chaos::Horizon::kMedium;
  chaos_cfg.shrink = false;
  chaos_cfg.out_dir.clear();
  runner::ChaosSweepConfig ha_cfg = chaos_cfg;
  ha_cfg.seed_lo = 1 + (ctx.seed - 1) * kHaSeeds;
  ha_cfg.seed_hi = ha_cfg.seed_lo + kHaSeeds - 1;
  runner::ServiceSweepConfig svc_cfg;
  svc_cfg.seed_lo = 1 + (ctx.seed - 1) * kServiceSeeds;
  svc_cfg.seed_hi = svc_cfg.seed_lo + kServiceSeeds - 1;
  const std::size_t grid = chaos_cfg.workloads.size() * chaos_cfg.policies.size();

  std::optional<std::array<std::uint64_t, 3>> first;
  closed_loop(ctx, [&](std::uint64_t op) {
    double setup_s = 0;
    const double setup_scale = ctx.gauge.bracket(op, [&] {
      ScopedSpan s(tr, "setup", op);
      const double t0 = now_s();
      build_chaos_worlds(chaos_cfg);
      setup_s = now_s() - t0;
    });
    res.add("setup_s", setup_s * setup_scale);

    QuietLog quiet;
    OpTime op_time;
    // Each sweep is timed and scaled on its own: the sweeps' pool threads
    // are idle while the gauge runs.
    auto sweep = [&](const char* name, auto&& fn) {
      std::optional<decltype(fn())> out;
      double wall_s = 0;
      const double scale = ctx.gauge.bracket(op, [&] {
        ScopedSpan s(tr, name, op);
        const double s0 = now_s();
        out.emplace(fn());
        wall_s = now_s() - s0;
      });
      op_time.wall_s += wall_s;
      op_time.scaled_s += wall_s * scale;
      return std::make_pair(std::move(*out), wall_s);
    };
    const auto [c, c_s] =
        sweep("soak.chaos", [&] { return runner::run_chaos_sweep(chaos_cfg, sopt); });
    const auto [h, h_s] =
        sweep("soak.ha", [&] { return runner::run_ha_sweep(ha_cfg, sopt); });
    const auto [v, v_s] =
        sweep("soak.service", [&] { return runner::run_service_sweep(svc_cfg, sopt); });

    ScopedSpan check(tr, "check", op);
    const std::array<std::uint64_t, 3> fps = {
        c.sweep_fingerprint, h.sweep_fingerprint, v.sweep_fingerprint};
    if (!first) first = fps;
    res.check(fps == *first, "sweep fingerprints repeat across operations");
    if (ctx.seed == kDefaultSeed) {
      res.check(fps == kPinnedFingerprints, "sweep fingerprints equal the pinned values");
    }
    res.check(c.runs == kChaosSeeds * grid && h.runs == kHaSeeds * grid &&
                  v.runs == kServiceSeeds,
              "every sweep ran its whole grid");
    res.check(c.errors.empty() && h.errors.empty() && v.errors.empty(),
              "no sweep reported an abnormal condition");
    const std::size_t runs = c.runs + h.runs + v.runs;
    res.count_ops(runs, 0);
    res.flag_ops(c.violations + h.violations + v.violations);

    double run_wall_ms = 0;
    for (const auto& [name, out] :
         {std::pair{"chaos", &c}, std::pair{"ha", &h}, std::pair{"service", &v}}) {
      // Per-run latencies pool over every operation of the measurement.
      for (const double ms : column(*out, "wall_ms")) {
        res.add(std::string("soak.") + name + ".run_ms", ms);
        run_wall_ms += ms;
      }
    }
    res.add("soak_runs_per_s", static_cast<double>(runs) / op_time.wall_s);
    res.add("soak.chaos_s", c_s);
    res.add("soak.ha_s", h_s);
    res.add("soak.service_s", v_s);
    res.add("soak.events", sum(column(c, "events")));
    res.add("soak.violations", sum(column(c, "violations")) +
                                   sum(column(h, "violations")) +
                                   sum(column(v, "violations")));
    res.add("pool.efficiency", run_wall_ms / 1e3 /
                                   (static_cast<double>(kSoakWorkers) * (c_s + h_s + v_s)));
    return op_time;
  });
  if (first) {
    std::printf("perfbench: sweep fingerprints chaos 0x%016llx ha 0x%016llx "
                "service 0x%016llx\n",
                static_cast<unsigned long long>((*first)[0]),
                static_cast<unsigned long long>((*first)[1]),
                static_cast<unsigned long long>((*first)[2]));
  }
  for (const char* name : {"chaos", "ha", "service"}) {
    const std::string prefix = std::string("soak.") + name;
    if (const auto* wall = res.samples(prefix + ".run_ms")) {
      std::printf("perfbench: %s runs: %zu samples\n", prefix.c_str(), wall->size());
      res.add(prefix + ".run_p50_ms", quantile(*wall, 0.5));
      res.add(prefix + ".run_p99_ms", quantile(*wall, 0.99));
    }
  }
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fabric_commit|fleet_learn|fault_soak"
               " --seed N --seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

/// Prints one human-readable metric line and returns its reported value,
/// the median of its samples (0 on a workload that does not exercise it).
double report_metric(const Results& res, const MetricDecl& m) {
  const auto* v = res.samples(m.name);
  const double value = v ? quantile(*v, 0.5) : 0;
  std::printf("metric %-28s = %.6g %s (n=%zu", m.name, value, m.unit,
              v ? v->size() : std::size_t{0});
  if (v && v->size() > 1) {
    std::printf(", min=%.6g, max=%.6g", quantile(*v, 0), quantile(*v, 1));
  }
  std::printf(")\n");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") trace = val == "1";
    else if (key == "--spans") spans_path = val;
    else return usage();
  }
  if (seed == 0) return usage();

  Tracer tracer(trace);
  Results res;
  HostGauge gauge(tracer);
  RunContext ctx{seed, seconds, tracer, res, gauge};
  if (workload == "fabric_commit") fabric_commit(ctx);
  else if (workload == "fleet_learn") fleet_learn(ctx);
  else if (workload == "fault_soak") fault_soak(ctx);
  else return usage();

  res.add("peak_rss_mb", peak_rss_mb());
  for (const double g : gauge.readings()) res.add("host.gauge_s", g);
  res.add("fail_frac", static_cast<double>(res.failed() + res.flagged()) /
                           static_cast<double>(std::max<std::size_t>(1, res.attempted())));
  if (trace) {
    std::vector<std::string> problems;
    res.add("trace.coverage",
            check_spans(tracer.spans(), res.median("window_s"), problems));
    for (const auto& p : problems) res.check(false, p);
    res.add("trace.overhead_frac", res.median("trace.op_s") / res.median("op_s") - 1);
    if (!spans_path.empty() &&
        !write_spans(tracer.spans(), res.median("window_s"), spans_path)) {
      res.check(false, "spans written to " + spans_path);
    }
  }

  std::string json;
  auto emit = [&](const MetricDecl& m) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, report_metric(res, m), m.unit);
    json += buf;
  };
  for (const auto& m : kEndToEnd) emit(m);
  if (trace) {
    json.clear();
    for (const auto& m : kPerLayer) emit(m);
  } else {
    // What the scaling worked from, for reading an untraced run's op_s.
    report_metric(res, {"op_wall_s", "s"});
    report_metric(res, {"host.gauge_s", "s"});
  }
  std::printf("perfbench: %zu output checks%s; %zu operations attempted, %zu failed, "
              "%zu flagged by the chaos oracles\n",
              res.checks(), res.correct() ? " passed" : " FAILED", res.attempted(),
              res.failed(), res.flagged());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              res.correct() ? "true" : "false", res.attempted(), res.failed(),
              json.c_str());
  return res.correct() ? 0 : 1;
}
