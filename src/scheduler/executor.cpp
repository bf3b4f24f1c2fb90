#include "scheduler/executor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/logging.h"

namespace tango::sched {

of::FlowMod to_flow_mod(const SwitchRequest& request,
                        std::uint16_t default_priority) {
  of::FlowMod fm;
  fm.command = to_command(request.type);
  fm.match = request.match;
  fm.priority = request.priority.value_or(default_priority);
  fm.actions = request.actions;
  fm.cookie = request.cookie.value_or(0);
  return fm;
}

namespace {

/// Per-switch FaultStats snapshot taken before execution so the report can
/// carry the deltas this run caused (stats are cumulative per injector).
std::map<SwitchId, net::FaultStats> snapshot_faults(net::Network& network,
                                                    const RequestDag& dag) {
  std::map<SwitchId, net::FaultStats> out;
  for (std::size_t id = 0; id < dag.size(); ++id) {
    const SwitchId loc = dag.request(id).location;
    if (out.count(loc) != 0) continue;
    if (const auto* inj = network.fault_injector(loc)) out[loc] = inj->stats();
  }
  return out;
}

void report_fault_deltas(net::Network& network,
                         const std::map<SwitchId, net::FaultStats>& before,
                         ExecutionReport& report) {
  for (const auto& [loc, base] : before) {
    const auto* inj = network.fault_injector(loc);
    if (inj == nullptr) continue;
    const auto& now = inj->stats();
    report.fault_crashes += now.crashes - base.crashes;
    report.fault_lost_to_crash += now.lost_to_crash - base.lost_to_crash;
    report.fault_dropped_to_switch +=
        now.dropped_to_switch - base.dropped_to_switch;
    report.fault_dropped_to_controller +=
        now.dropped_to_controller - base.dropped_to_controller;
    if (now.crashes > base.crashes) report.crashed_switches.insert(loc);
  }
  if (report.fault_crashes + report.fault_dropped_to_switch +
          report.fault_dropped_to_controller >
      0) {
    log::info("executor: faults during run: " +
              std::to_string(report.fault_crashes) + " crash(es), " +
              std::to_string(report.fault_lost_to_crash) + " lost to crash, " +
              std::to_string(report.fault_dropped_to_switch) + "/" +
              std::to_string(report.fault_dropped_to_controller) +
              " drops to switch/controller; " +
              std::to_string(report.retries) + " retries, " +
              std::to_string(report.failed_requests) + " failed requests");
  }
}

/// A dependency cycle can never drain: issue nothing, fail every request.
ExecutionReport refuse_cyclic(const RequestDag& dag,
                              const ExecutorOptions& options) {
  log::warn("executor: request DAG of " + std::to_string(dag.size()) +
            " requests has a dependency cycle; issuing nothing");
  ExecutionReport report;
  report.cyclic_dag = true;
  report.failed_requests = dag.size();
  if (options.on_failed) {
    for (std::size_t id = 0; id < dag.size(); ++id) options.on_failed(id);
  }
  return report;
}

}  // namespace

namespace detail {

/// All execution state lives on the heap behind a shared_ptr: retry timers
/// and echo timeouts stay scheduled after execute() returns (as no-ops once
/// `finished` is set), so nothing they capture may sit on the stack. Each
/// scheduled event holds the state alive via shared_from_this and bails out
/// on its first line if the run is over.
struct ExecState : std::enable_shared_from_this<ExecState> {
  net::Network& network;
  const RequestDag& dag;
  UpdateScheduler& scheduler;
  const ExecutorOptions options;  // copied: caller's may be a temporary
  ExecutionReport report;

  std::size_t n = 0;
  SimTime start{};
  /// Virtual time when the last request reached a terminal state.
  SimTime end{};
  bool finished = false;
  /// False for execute_async: per-run counters live in local_metrics and
  /// are mirrored into the telemetry registry at finish() — interleaved
  /// runs sharing counters would corrupt each other's delta-derived reports.
  bool shared_counters = true;
  /// Injector stats at start, for the report's fault deltas.
  std::map<SwitchId, net::FaultStats> faults_before;

  // --- telemetry -----------------------------------------------------------
  // All recovery/progress tallies live in a MetricsRegistry — the network's
  // when telemetry is attached (so they surface in run reports), otherwise
  // a private one — and ExecutionReport fields are *derived* from counter
  // deltas when the run ends, never hand-incremented in parallel. The
  // registry is cumulative across runs, hence the base_ snapshot.
  telemetry::Telemetry* tele = nullptr;
  telemetry::MetricsRegistry local_metrics;
  struct Ctr {
    telemetry::Counter* issued = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* rejected_retryable = nullptr;
    telemetry::Counter* rejected_fatal = nullptr;
    telemetry::Counter* scheduling_rounds = nullptr;
    telemetry::Counter* deadline_misses = nullptr;
    telemetry::Counter* timeouts = nullptr;
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* echo_probes = nullptr;
    telemetry::Counter* failed_requests = nullptr;
  } ctr;
  /// Counter values at run start (this run's report = value - base).
  struct CtrBase {
    std::uint64_t issued = 0, rejected = 0, rejected_retryable = 0,
                  rejected_fatal = 0, scheduling_rounds = 0,
                  deadline_misses = 0, timeouts = 0, retries = 0,
                  echo_probes = 0, failed_requests = 0;
  } ctr0;
  telemetry::Histogram* latency_hist = nullptr;
  telemetry::Histogram* queue_hist = nullptr;
  /// Issue timestamps for request spans; sized only when telemetry is on.
  std::vector<SimTime> issue_time;
  /// When each request became ready (dependency-free); queueing delay =
  /// first-send time minus this.
  std::vector<SimTime> ready_time;
  /// Post timestamps / agent backlog at post, for cost observations; sized
  /// only when options.on_cost_observation is set. A timing sample is only
  /// trustworthy when this request was alone in flight at post time —
  /// commands still on the wire aren't reflected in the agent backlog yet.
  std::vector<SimTime> obs_post;
  std::vector<SimTime> obs_busy;
  std::vector<std::uint8_t> obs_solo;
  /// Post timestamps for RTT samples; sized only when options.rtt is set.
  std::vector<SimTime> rtt_post;

  std::vector<std::size_t> remaining_preds;
  /// True once sent — or tombstoned by a failure before sending.
  std::vector<bool> issued;
  /// True once completed or failed: the request will never change again.
  std::vector<bool> terminal;
  /// flow_mod posts made for this request in the current retry round.
  std::vector<std::size_t> attempts;
  /// Bumped per post; a timeout fires only for the attempt that armed it.
  std::vector<std::uint64_t> attempt_gen;
  /// Echo-rescue rounds consumed.
  std::vector<std::size_t> rescued;

  // Ready-but-unsent requests. The scheduler re-orders this pool whenever
  // it changes; per-switch dispatch windows keep each agent fed while the
  // backlog stays reorderable (this is Algorithm 3's continuous loop: the
  // independent set is re-extracted and re-ordered as requests finish).
  std::vector<std::size_t> pending;
  bool pending_dirty = true;
  std::vector<std::size_t> ordered;
  std::map<SwitchId, std::size_t> in_flight;
  std::set<SwitchId> dead;
  std::size_t done_count = 0;

  ExecState(net::Network& net, const RequestDag& d, UpdateScheduler& s,
            const ExecutorOptions& opts)
      : network(net), dag(d), scheduler(s), options(opts) {}

  [[nodiscard]] bool retry_enabled() const {
    return options.request_timeout.ns() > 0;
  }

  /// Recovery deadline for traffic to `loc`: the fixed knob, tightened by
  /// the per-switch RTT estimator when one is attached (see net/rtt.h).
  [[nodiscard]] SimDuration deadline_for(SwitchId loc) const {
    return options.rtt != nullptr
               ? options.rtt->timeout_for(loc, options.request_timeout)
               : options.request_timeout;
  }

  void init() {
    n = dag.size();
    start = network.now();
    remaining_preds.assign(n, 0);
    issued.assign(n, false);
    terminal.assign(n, false);
    attempts.assign(n, 0);
    attempt_gen.assign(n, 0);
    rescued.assign(n, 0);
    ready_time.assign(n, SimTime{});
    end = start;
    for (std::size_t id = 0; id < n; ++id) {
      remaining_preds[id] = dag.predecessors(id).size();
      if (remaining_preds[id] == 0) {
        pending.push_back(id);
        ready_time[id] = start;
      }
    }

    tele = network.telemetry();
    auto& reg =
        tele != nullptr && shared_counters ? tele->metrics : local_metrics;
    ctr.issued = &reg.counter("executor.issued");
    ctr.rejected = &reg.counter("executor.rejected");
    ctr.rejected_retryable = &reg.counter("executor.rejected_retryable");
    ctr.rejected_fatal = &reg.counter("executor.rejected_fatal");
    ctr.scheduling_rounds = &reg.counter("executor.scheduling_rounds");
    ctr.deadline_misses = &reg.counter("executor.deadline_misses");
    ctr.timeouts = &reg.counter("executor.timeouts");
    ctr.retries = &reg.counter("executor.retries");
    ctr.echo_probes = &reg.counter("executor.echo_probes");
    ctr.failed_requests = &reg.counter("executor.failed_requests");
    ctr0 = CtrBase{ctr.issued->value(),          ctr.rejected->value(),
                   ctr.rejected_retryable->value(),
                   ctr.rejected_fatal->value(),
                   ctr.scheduling_rounds->value(), ctr.deadline_misses->value(),
                   ctr.timeouts->value(),        ctr.retries->value(),
                   ctr.echo_probes->value(),     ctr.failed_requests->value()};
    if (tele != nullptr) {
      // Histograms always live in the shared registry: observes are
      // per-event (not delta-derived), so interleaved runs compose fine.
      latency_hist = &tele->metrics.histogram(
          "executor.request_latency_ms",
          {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
      queue_hist = &tele->metrics.histogram(
          "executor.queueing_delay_ms",
          {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
      issue_time.assign(n, SimTime{});
    }
    if (options.on_cost_observation) {
      obs_post.assign(n, SimTime{});
      obs_busy.assign(n, SimTime{});
      obs_solo.assign(n, 0);
    }
    if (options.rtt != nullptr) rtt_post.assign(n, SimTime{});
  }

  /// Derive the report's tallies from the registry — the counters are the
  /// single source of truth; the report is a per-run view over them.
  void finalize_report() {
    report.issued = ctr.issued->value() - ctr0.issued;
    report.rejected = ctr.rejected->value() - ctr0.rejected;
    report.rejected_retryable =
        ctr.rejected_retryable->value() - ctr0.rejected_retryable;
    report.rejected_fatal = ctr.rejected_fatal->value() - ctr0.rejected_fatal;
    report.scheduling_rounds =
        ctr.scheduling_rounds->value() - ctr0.scheduling_rounds;
    report.deadline_misses =
        ctr.deadline_misses->value() - ctr0.deadline_misses;
    report.timeouts = ctr.timeouts->value() - ctr0.timeouts;
    report.retries = ctr.retries->value() - ctr0.retries;
    report.echo_probes = ctr.echo_probes->value() - ctr0.echo_probes;
    report.failed_requests =
        ctr.failed_requests->value() - ctr0.failed_requests;
  }

  /// Close the run: derive the report, account lost requests, mirror
  /// locally-kept counters into the shared registry, record fault deltas
  /// and the execute span. Idempotent; shared by execute() and
  /// AsyncExecution::finish().
  void finish() {
    if (finished) return;
    finished = true;
    if (n == 0) return;
    finalize_report();
    report.makespan = (done_count == n ? end : network.now()) - start;
    report.lost_requests = n - done_count;
    assert(report.lost_requests == 0 || !retry_enabled());
    if (tele != nullptr && !shared_counters) {
      // Async runs tallied into local_metrics; fold the per-run deltas into
      // the shared registry so its totals match what serial runs produce.
      auto& reg = tele->metrics;
      reg.counter("executor.issued").inc(report.issued);
      reg.counter("executor.rejected").inc(report.rejected);
      reg.counter("executor.rejected_retryable").inc(report.rejected_retryable);
      reg.counter("executor.rejected_fatal").inc(report.rejected_fatal);
      reg.counter("executor.scheduling_rounds").inc(report.scheduling_rounds);
      reg.counter("executor.deadline_misses").inc(report.deadline_misses);
      reg.counter("executor.timeouts").inc(report.timeouts);
      reg.counter("executor.retries").inc(report.retries);
      reg.counter("executor.echo_probes").inc(report.echo_probes);
      reg.counter("executor.failed_requests").inc(report.failed_requests);
    }
    report_fault_deltas(network, faults_before, report);
    if (tele != nullptr) {
      tele->trace.span(
          "executor", "execute", telemetry::TraceCollector::kControllerLane,
          start, network.now(),
          {telemetry::arg("requests", std::uint64_t{n}),
           telemetry::arg("issued", std::uint64_t{report.issued}),
           telemetry::arg("failed", std::uint64_t{report.failed_requests}),
           telemetry::arg("makespan_ns", report.makespan.ns())});
      tele->metrics.counter("executor.runs").inc();
      // Mirror the fault-injector deltas this run caused: the registry is
      // where FaultStats surfaces for reports (crashes/stalls are counted
      // at the channel as they happen).
      tele->metrics.counter("faults.dropped_to_switch")
          .inc(report.fault_dropped_to_switch);
      tele->metrics.counter("faults.dropped_to_controller")
          .inc(report.fault_dropped_to_controller);
      tele->metrics.counter("faults.lost_to_crash")
          .inc(report.fault_lost_to_crash);
    }
  }

  void send(std::size_t id) {
    issued[id] = true;
    ctr.issued->inc();
    attempts[id] = 1;
    ++in_flight[dag.request(id).location];
    const SimDuration queued = network.now() - ready_time[id];
    report.total_queueing_delay += queued;
    if (queued > report.max_queueing_delay) report.max_queueing_delay = queued;
    if (queue_hist != nullptr) queue_hist->observe(queued.ms());
    if (tele != nullptr) issue_time[id] = network.now();
    post_attempt(id);
  }

  void post_attempt(std::size_t id) {
    const std::uint64_t gen = ++attempt_gen[id];
    auto self = shared_from_this();
    const auto& req = dag.request(id);
    if (options.on_cost_observation) {
      obs_post[id] = network.now();
      obs_busy[id] = network.channel(req.location).agent_busy_until();
      obs_solo[id] = in_flight[req.location] == 1 ? 1 : 0;
    }
    if (options.rtt != nullptr) rtt_post[id] = network.now();
    network.post_flow_mod_ex(req.location,
                             to_flow_mod(req, options.default_priority),
                             [self, id](const net::Network::FlowModResult& res) {
                               self->complete(id, res);
                             });
    if (retry_enabled()) {
      network.events().schedule_after(
          deadline_for(req.location),
          [self, id, gen]() { self->on_timeout(id, gen); });
    }
  }

  /// Error classes a switch rejection falls into. Table pressure can clear
  /// (an agent rebalancing, a timeout sweep freeing slots); a permissions
  /// or malformed-command error never will.
  [[nodiscard]] static bool rejection_retryable(
      const net::Network::FlowModResult& res) {
    return res.has_error && res.error_type == of::ErrorType::kFlowModFailed &&
           res.error_code ==
               static_cast<std::uint16_t>(of::FlowModFailedCode::kAllTablesFull);
  }

  void complete(std::size_t id, const net::Network::FlowModResult& res) {
    // First completion wins; later ones (a duplicated frame, or the
    // original answer racing a retry) are harmless echoes of the same
    // idempotent flow_mod.
    if (finished || terminal[id]) return;
    const bool accepted = res.accepted;
    const SimTime at = res.completed_at;
    if (!accepted) {
      const bool retryable = rejection_retryable(res);
      if (retryable) {
        ctr.rejected_retryable->inc();
      } else {
        ctr.rejected_fatal->inc();
      }
      if (retryable && options.retry_rejections && retry_enabled() &&
          attempts[id] <= options.max_retries &&
          dead.count(dag.request(id).location) == 0) {
        // Mirror the timeout-retry path: back off, re-post, same budget.
        const SimDuration backoff =
            options.backoff_base * (std::int64_t{1} << (attempts[id] - 1));
        ++attempts[id];
        ctr.retries->inc();
        auto self = shared_from_this();
        network.events().schedule_after(backoff, [self, id]() {
          if (self->finished || self->terminal[id]) return;
          if (self->dead.count(self->dag.request(id).location) != 0) {
            self->fail_request(id);
            self->dispatch();
            return;
          }
          self->post_attempt(id);
        });
        return;
      }
    }
    terminal[id] = true;
    ++done_count;
    if (done_count == n) end = network.now();
    if (!accepted) ctr.rejected->inc();
    const auto& req = dag.request(id);
    auto& fl = in_flight[req.location];
    if (fl > 0) --fl;
    if (req.deadline.has_value() && at - start > *req.deadline) {
      ctr.deadline_misses->inc();
    }
    if (tele != nullptr) {
      tele->trace.span(
          "executor", "request", req.location, issue_time[id], at,
          {telemetry::arg("id", std::uint64_t{id}),
           telemetry::arg("attempts", std::uint64_t{attempts[id]}),
           telemetry::arg("accepted", accepted)});
      latency_hist->observe((at - issue_time[id]).ms());
    }
    if (accepted && options.on_cost_observation && attempts[id] == 1 &&
        obs_solo[id] != 0) {
      // A clean first-attempt completion is a free cost measurement: the
      // agent started no earlier than max(backlog at post, arrival), so
      // completed_at minus that start is the op's processing time. Retried
      // or rescued requests are skipped — their timing is polluted.
      const auto hint = options.cost_hints.find(req.location);
      if (hint != options.cost_hints.end()) {
        const SimTime arrival = obs_post[id] + network.control_latency();
        const SimTime started = std::max(obs_busy[id], arrival);
        const double actual_ms = (at - started).ms();
        options.on_cost_observation(req.location, req.type, actual_ms,
                                    op_cost_ms(hint->second, req.type));
      }
    }
    if (accepted && options.rtt != nullptr && attempts[id] == 1) {
      // Karn's rule: only never-retransmitted requests are unambiguous RTT
      // samples. Queueing behind sibling requests is deliberately included —
      // the deadline must cover time-to-answer under current load.
      options.rtt->observe(req.location, at - rtt_post[id]);
    }
    if (options.on_complete) options.on_complete(id, accepted);
    for (std::size_t succ : dag.successors(id)) {
      if (remaining_preds[succ] > 0 && --remaining_preds[succ] == 0 &&
          !issued[succ]) {
        pending.push_back(succ);
        ready_time[succ] = network.now();
        pending_dirty = true;
      }
    }
    dispatch();
  }

  void on_timeout(std::size_t id, std::uint64_t gen) {
    if (finished || terminal[id]) return;
    if (gen != attempt_gen[id]) return;  // a newer attempt superseded this one
    ctr.timeouts->inc();
    const SwitchId loc = dag.request(id).location;
    if (tele != nullptr) {
      tele->trace.instant("executor", "timeout", loc, network.now(),
                          {telemetry::arg("id", std::uint64_t{id})});
    }
    if (dead.count(loc) != 0) {
      fail_request(id);
      dispatch();
      return;
    }
    if (attempts[id] <= options.max_retries) {
      // Exponential backoff: 1x, 2x, 4x, ... of backoff_base.
      const SimDuration backoff =
          options.backoff_base * (std::int64_t{1} << (attempts[id] - 1));
      ++attempts[id];
      ctr.retries->inc();
      if (tele != nullptr) {
        tele->trace.instant("executor", "retry", loc, network.now(),
                            {telemetry::arg("id", std::uint64_t{id}),
                             telemetry::arg("backoff_ns", backoff.ns())});
      }
      auto self = shared_from_this();
      network.events().schedule_after(backoff, [self, id]() {
        if (self->finished || self->terminal[id]) return;
        if (self->dead.count(self->dag.request(id).location) != 0) {
          self->fail_request(id);
          self->dispatch();
          return;
        }
        self->post_attempt(id);
      });
      return;
    }
    probe_liveness(loc, id);
  }

  /// One liveness interrogation: consecutive echoes answered by silence.
  struct Liveness {
    bool answered = false;
    std::size_t sent = 0;
  };

  void probe_liveness(SwitchId loc, std::size_t id) {
    send_echo(loc, id, std::make_shared<Liveness>());
  }

  void send_echo(SwitchId loc, std::size_t id,
                 const std::shared_ptr<Liveness>& probe) {
    if (finished) return;
    if (dead.count(loc) != 0) {
      fail_request(id);
      dispatch();
      return;
    }
    ++probe->sent;
    ctr.echo_probes->inc();
    if (tele != nullptr) {
      tele->trace.instant("executor", "echo_probe", loc, network.now(),
                          {telemetry::arg("id", std::uint64_t{id})});
    }
    auto self = shared_from_this();
    const SimTime echo_sent = network.now();
    const std::uint32_t xid =
        network.post_echo(loc, [self, loc, id, probe, echo_sent]() {
          if (self->finished || probe->answered) return;
          probe->answered = true;
          if (self->options.rtt != nullptr) {
            // Liveness echoes double as free RTT samples (the pure channel
            // round trip, no flow_mod processing on top).
            self->options.rtt->observe(loc, self->network.now() - echo_sent);
          }
          self->on_alive(loc, id);
        });
    network.events().schedule_after(
        deadline_for(loc), [self, loc, id, probe, xid]() {
          if (self->finished || probe->answered) return;
          self->network.cancel_reply(xid);
          // A single echo can be lost to the same noise that stranded the
          // request; only consistent silence condemns the switch.
          const std::size_t budget =
              std::max<std::size_t>(2, self->options.max_retries + 1);
          if (probe->sent < budget) {
            self->send_echo(loc, id, probe);
          } else {
            self->fail_switch(loc);
          }
        });
  }

  void on_alive(SwitchId loc, std::size_t id) {
    if (terminal[id]) {
      dispatch();
      return;
    }
    if (rescued[id] < options.max_echo_rescues) {
      // The connection works; the losses were transient. Fresh round.
      ++rescued[id];
      attempts[id] = 1;
      ctr.retries->inc();
      log::warn("executor: switch " + std::to_string(loc) +
                " alive, rescuing request " + std::to_string(id));
      post_attempt(id);
      return;
    }
    fail_request(id);
    dispatch();
  }

  void fail_request(std::size_t id) {
    if (terminal[id]) return;
    const SwitchId loc = dag.request(id).location;
    const bool was_issued = issued[id];
    if (issued[id]) {
      auto& fl = in_flight[loc];
      if (fl > 0) --fl;
    } else {
      issued[id] = true;  // tombstone: never send it
      std::erase(pending, id);
      pending_dirty = true;
    }
    terminal[id] = true;
    ++done_count;
    if (done_count == n) end = network.now();
    ctr.failed_requests->inc();
    if (tele != nullptr) {
      if (was_issued) {
        // The lifecycle span still closes — failure is an end state, not
        // a missing one.
        tele->trace.span("executor", "request_failed", loc, issue_time[id],
                         network.now(),
                         {telemetry::arg("id", std::uint64_t{id}),
                          telemetry::arg("attempts", std::uint64_t{attempts[id]})});
      } else {
        tele->trace.instant("executor", "abandoned", loc, network.now(),
                            {telemetry::arg("id", std::uint64_t{id})});
      }
    }
    if (options.on_failed) options.on_failed(id);
    // Successors wait on a completion that will never come; abandoning
    // them (transitively) is what keeps lost_requests at zero.
    for (std::size_t succ : dag.successors(id)) {
      if (!terminal[succ] && !issued[succ]) fail_request(succ);
    }
  }

  void fail_switch(SwitchId loc) {
    if (!dead.insert(loc).second) return;
    report.failed_switches.insert(loc);
    if (tele != nullptr) {
      tele->trace.instant("executor", "switch_dead", loc, network.now());
      tele->metrics.counter("executor.switches_declared_dead").inc();
    }
    log::warn("executor: switch " + std::to_string(loc) +
              " declared dead (no ECHO reply)");
    for (std::size_t id = 0; id < n; ++id) {
      if (!terminal[id] && dag.request(id).location == loc) fail_request(id);
    }
    dispatch();
  }

  void dispatch() {
    if (finished) return;
    if (pending_dirty) {
      ctr.scheduling_rounds->inc();
      ordered = scheduler.order(dag, pending);
      pending_dirty = false;
    }
    for (std::size_t& id : ordered) {
      if (id == SIZE_MAX) continue;  // tombstone: already sent
      if (issued[id]) {
        id = SIZE_MAX;
        continue;
      }
      const SwitchId loc = dag.request(id).location;
      if (dead.count(loc) != 0) {
        const std::size_t doomed = id;
        id = SIZE_MAX;
        fail_request(doomed);
        continue;
      }
      if (in_flight[loc] >= options.per_switch_window) continue;
      const std::size_t to_send = id;
      id = SIZE_MAX;
      std::erase(pending, to_send);
      send(to_send);
    }

    if (options.speculative_dependents) {
      // Concurrent-dependent extension (§6): a blocked request may be
      // issued alongside its predecessors when every predecessor is
      // estimated to *finish* at least `guard` before this request would —
      // estimated finish = the target agent's current backlog plus the
      // measured cost of the operation itself.
      auto est_duration = [&](std::size_t rid) {
        const auto& req = dag.request(rid);
        const auto it = options.cost_hints.find(req.location);
        if (it == options.cost_hints.end()) return options.default_op_estimate;
        return millis(op_cost_ms(it->second, req.type));
      };
      auto est_finish = [&](std::size_t rid) {
        const SimTime backlog =
            network.channel(dag.request(rid).location).agent_busy_until();
        return std::max(backlog, network.now()) + est_duration(rid);
      };
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t id = 0; id < n; ++id) {
          if (issued[id] || remaining_preds[id] == 0) continue;
          if (dead.count(dag.request(id).location) != 0) continue;
          const auto& preds = dag.predecessors(id);
          bool eligible = true;
          SimTime latest_pred_finish{};
          for (std::size_t p : preds) {
            if (!issued[p]) {
              eligible = false;
              break;
            }
            if (!terminal[p]) {
              latest_pred_finish = std::max(latest_pred_finish, est_finish(p));
            }
          }
          if (!eligible) continue;
          if (latest_pred_finish + options.guard <= est_finish(id)) {
            remaining_preds[id] = 0;  // commit to early issue
            ready_time[id] = network.now();
            send(id);
            progress = true;
          }
        }
      }
    }
  }
};

}  // namespace detail

ExecutionReport execute(net::Network& network, const RequestDag& dag,
                        UpdateScheduler& scheduler,
                        const ExecutorOptions& options) {
  if (dag.size() == 0) return {};
  if (!dag.is_acyclic()) return refuse_cyclic(dag, options);

  auto st =
      std::make_shared<detail::ExecState>(network, dag, scheduler, options);
  st->faults_before = snapshot_faults(network, dag);
  st->init();
  st->dispatch();
  while (st->done_count < st->n && network.events().step()) {
  }
  // Timers still queued beyond this point hold the state alive and no-op.
  st->finish();
  return st->report;
}

bool AsyncExecution::done() const {
  return state_ == nullptr || state_->done_count >= state_->n;
}

const ExecutionReport& AsyncExecution::finish() {
  if (refused_.has_value()) return *refused_;
  assert(state_ != nullptr);
  state_->finish();
  return state_->report;
}

void AsyncExecution::abort() {
  if (state_ == nullptr) return;
  // Deliberately not finish(): no report finalization, no telemetry span —
  // the issuing controller is dead. The flag alone neutralizes every queued
  // timer/completion (they all bail on `finished`).
  state_->finished = true;
}

AsyncExecution execute_async(net::Network& network, const RequestDag& dag,
                             UpdateScheduler& scheduler,
                             const ExecutorOptions& options) {
  AsyncExecution handle;
  if (dag.size() == 0) return handle;
  if (!dag.is_acyclic()) {
    handle.refused_ = refuse_cyclic(dag, options);
    return handle;
  }

  auto st =
      std::make_shared<detail::ExecState>(network, dag, scheduler, options);
  st->shared_counters = false;
  st->faults_before = snapshot_faults(network, dag);
  st->init();
  st->dispatch();
  handle.state_ = std::move(st);
  return handle;
}

}  // namespace tango::sched
