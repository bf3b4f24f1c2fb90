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
/// and echo timeouts stay scheduled after the run finishes (as no-ops once
/// `finished` is set), so nothing they capture may sit on the stack. Each
/// scheduled event holds the state alive via shared_from_this and bails out
/// on its first line if the run is over.
struct ExecState : std::enable_shared_from_this<ExecState> {
  net::Network& network;
  const RequestDag& dag;
  UpdateScheduler& scheduler;
  const ExecutorOptions options;  // copied: caller's may be a temporary
  /// The run's only tally; finish() adds its counts to the registry.
  ExecutionReport report;

  std::size_t n = 0;
  SimTime start{};
  /// Virtual time when the last request reached a terminal state.
  SimTime end{};
  bool finished = false;
  /// Injector stats at start, for the report's fault deltas.
  std::map<SwitchId, net::FaultStats> faults_before;

  telemetry::Telemetry* tele = nullptr;
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

  std::vector<std::size_t> remaining_preds;
  /// True once sent or abandoned: the one record that a request has left
  /// the ready set.
  std::vector<bool> issued;
  /// True once completed or failed: the request will never change again.
  std::vector<bool> terminal;
  /// flow_mod posts made for this request in the current retry round.
  std::vector<std::size_t> attempts;
  /// Bumped per post; a timeout fires only for the attempt that armed it.
  std::vector<std::uint64_t> attempt_gen;
  /// Echo-rescue rounds consumed.
  std::vector<std::size_t> rescued;

  // Ready requests in the order they became ready. The scheduler re-orders
  // this pool whenever it changes; per-switch dispatch windows keep each
  // agent fed while the backlog stays reorderable (this is Algorithm 3's
  // continuous loop: the independent set is re-extracted and re-ordered as
  // requests finish). Sent and abandoned requests stay in `pending` until
  // the next re-order drops them, so dispatch never erases from it.
  std::vector<std::size_t> pending;
  bool pending_dirty = true;
  /// The scheduler's last order over `pending`, minus what dispatch has
  /// since sent or abandoned.
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
    if (tele != nullptr) {
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
  }

  /// Close the run: account lost requests, record fault deltas, and with
  /// telemetry attached add the run's counts to the registry and record the
  /// execute span. Idempotent.
  void finish() {
    if (finished) return;
    finished = true;
    report.makespan = (done_count == n ? end : network.now()) - start;
    report.lost_requests = n - done_count;
    assert(report.lost_requests == 0 || !retry_enabled());
    report_fault_deltas(network, faults_before, report);
    if (tele == nullptr) return;
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
    tele->trace.span(
        "executor", "execute", telemetry::TraceCollector::kControllerLane,
        start, network.now(),
        {telemetry::arg("requests", std::uint64_t{n}),
         telemetry::arg("issued", std::uint64_t{report.issued}),
         telemetry::arg("failed", std::uint64_t{report.failed_requests}),
         telemetry::arg("makespan_ns", report.makespan.ns())});
    reg.counter("executor.runs").inc();
    // Mirror the fault-injector deltas this run caused: the registry is
    // where FaultStats surfaces for reports (crashes/stalls are counted at
    // the channel as they happen).
    reg.counter("faults.dropped_to_switch").inc(report.fault_dropped_to_switch);
    reg.counter("faults.dropped_to_controller")
        .inc(report.fault_dropped_to_controller);
    reg.counter("faults.lost_to_crash").inc(report.fault_lost_to_crash);
  }

  void send(std::size_t id) {
    issued[id] = true;
    ++report.issued;
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
    network.post_flow_mod(req.location, to_flow_mod(req),
                          [self, id](const net::Network::FlowModResult& res) {
                            self->complete(id, res);
                          });
    if (retry_enabled()) {
      network.events().schedule_after(
          options.request_timeout,
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
    terminal[id] = true;
    ++done_count;
    if (done_count == n) end = network.now();
    if (!accepted) {
      ++report.rejected;
      if (rejection_retryable(res)) {
        ++report.rejected_retryable;
      } else {
        ++report.rejected_fatal;
      }
    }
    const auto& req = dag.request(id);
    auto& fl = in_flight[req.location];
    if (fl > 0) --fl;
    if (req.deadline.has_value() && at - start > *req.deadline) {
      ++report.deadline_misses;
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
    ++report.timeouts;
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
      ++report.retries;
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
    ++report.echo_probes;
    if (tele != nullptr) {
      tele->trace.instant("executor", "echo_probe", loc, network.now(),
                          {telemetry::arg("id", std::uint64_t{id})});
    }
    auto self = shared_from_this();
    const std::uint32_t xid = network.post_echo(loc, [self, loc, id, probe]() {
      if (self->finished || probe->answered) return;
      probe->answered = true;
      self->on_alive(loc, id);
    });
    network.events().schedule_after(
        options.request_timeout, [self, loc, id, probe, xid]() {
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
      ++report.retries;
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
      issued[id] = true;  // abandoned: never send it
      pending_dirty = true;
    }
    terminal[id] = true;
    ++done_count;
    if (done_count == n) end = network.now();
    ++report.failed_requests;
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
      ++report.scheduling_rounds;
      std::erase_if(pending, [&](std::size_t id) { return issued[id]; });
      ordered = scheduler.order(dag, pending);
      pending_dirty = false;
    }
    // Refill windows in scheduler order. Requests that stay ready are kept,
    // in order, for the next call; sent and abandoned ones are dropped.
    std::size_t kept = 0;
    for (const std::size_t id : ordered) {
      if (issued[id]) continue;
      const SwitchId loc = dag.request(id).location;
      if (dead.count(loc) != 0) {
        fail_request(id);
      } else if (in_flight[loc] >= options.per_switch_window) {
        ordered[kept++] = id;
      } else {
        send(id);
      }
    }
    ordered.resize(kept);

    if (options.speculative_dependents) {
      // Concurrent-dependent extension (§6): a blocked request may be
      // issued alongside its predecessors when every predecessor is
      // estimated to *finish* at least `guard` before this request would —
      // estimated finish = the target agent's current backlog plus the
      // measured cost of the operation itself.
      auto est_duration = [&](std::size_t rid) {
        const auto& req = dag.request(rid);
        const auto it = options.cost_hints.find(req.location);
        if (it == options.cost_hints.end()) return kDefaultOpEstimate;
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
  AsyncExecution run = execute_async(network, dag, scheduler, options);
  while (!run.done() && network.step()) {
  }
  // Timers still queued beyond this point hold the state alive and no-op.
  return run.finish();
}

bool AsyncExecution::done() const {
  return state_ == nullptr || state_->done_count >= state_->n;
}

const ExecutionReport& AsyncExecution::finish() {
  static const ExecutionReport kNothingRan;
  if (refused_.has_value()) return *refused_;
  if (state_ == nullptr) return kNothingRan;
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
  st->faults_before = snapshot_faults(network, dag);
  st->init();
  st->dispatch();
  handle.state_ = std::move(st);
  return handle;
}

}  // namespace tango::sched
