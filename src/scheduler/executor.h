// Executes a request DAG against the simulated network under a given
// scheduler, measuring the makespan in virtual time.
//
// Round structure: all currently ready requests are handed to the scheduler
// for ordering and issued (per-switch channels are FIFO, so issue order is
// execution order per switch). Each completion unlocks successors; newly
// ready requests trigger another scheduling round. With the speculative
// option on, a request may be issued before its predecessors complete when
// the predecessor's estimated completion (plus a guard interval) precedes
// this request's estimated start — the §6 "schedule dependent switch
// requests concurrently" extension for weak-consistency scenarios.
// The executor is also the controller's recovery layer: when a fault
// injector is active on a channel, a posted flow_mod (or its completion
// notice) may simply vanish. Each issued request carries a timeout; on
// expiry the executor retries with bounded exponential backoff, and once
// retries are exhausted it probes liveness with ECHO_REQUESTs before
// declaring the switch dead. Dead switches fail their outstanding requests
// (and, transitively, dependents that can now never become ready), all of
// which is reported so the caller can distinguish "installed" from
// "consciously abandoned" — nothing is silently lost.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "net/network.h"
#include "scheduler/request.h"
#include "scheduler/schedulers.h"

namespace tango::sched {

namespace detail {
struct ExecState;
}  // namespace detail

/// Priority of a request that carries none and was not given one by
/// priority enforcement.
inline constexpr std::uint16_t kDefaultPriority = 0x8000;
/// Speculation's estimated op duration on a switch without a cost hint.
inline constexpr SimDuration kDefaultOpEstimate = millis(1);

struct ExecutorOptions {
  /// Issue dependents early when the timing estimate allows (guard below):
  /// a blocked request goes out once every predecessor's *estimated finish*
  /// (agent backlog + estimated op duration) precedes this request's own
  /// estimated finish by at least `guard` — the paper's §6 "estimated
  /// finishing time of the first operation precedes the second by a guard
  /// interval" condition, for weak-consistency scenarios.
  bool speculative_dependents = false;
  SimDuration guard = millis(5);
  /// Measured per-op costs used for the speculation estimates (from
  /// TangoController::learn). Unlisted switches use kDefaultOpEstimate.
  std::map<SwitchId, core::OpCostEstimate> cost_hints;
  /// Commands in flight per switch. Small windows keep the agent fed over
  /// the channel latency while leaving the backlog at the controller where
  /// the scheduler can still re-order it.
  std::size_t per_switch_window = 4;

  // --- recovery layer ------------------------------------------------------
  /// How long an issued flow_mod may go unanswered before it is retried.
  /// Zero disables the whole recovery layer (no timers are scheduled); the
  /// default is far above any fault-free completion time, so fault-free
  /// runs behave identically with it on.
  SimDuration request_timeout = seconds(2);
  /// Retries per attempt round before liveness is questioned.
  std::size_t max_retries = 4;
  /// First retry waits this long; each further retry doubles it.
  SimDuration backoff_base = millis(20);
  /// After an ECHO proves the switch alive, the request gets a fresh round
  /// of retries — at most this many times before the request is failed.
  std::size_t max_echo_rescues = 2;

  // --- knowledge-health observer -------------------------------------------
  /// Fires on each clean first-attempt acceptance for a switch with a cost
  /// hint: `actual_ms` is the agent's measured processing time for the op,
  /// `predicted_ms` the hint's estimate. The drift sentinel feeds on these
  /// mispredictions. Null = off; no timestamps are recorded when unset.
  std::function<void(SwitchId loc, RequestType type, double actual_ms,
                     double predicted_ms)>
      on_cost_observation;

  // --- transaction observers -----------------------------------------------
  /// Fires once when a request reaches its terminal completed state (first
  /// completion wins; `accepted` is the switch's verdict). The transaction
  /// layer uses this to mark journal entries acknowledged. Null = off; the
  /// fault-free fast path is untouched when unset.
  std::function<void(std::size_t id, bool accepted)> on_complete;
  /// Fires once when a request is abandoned (switch declared dead, retries
  /// and rescues exhausted, or a predecessor failed).
  std::function<void(std::size_t id)> on_failed;
};

// The report is the executor's only tally: every count below is kept on it
// during the run. When telemetry is attached, finish() adds the run's counts
// to the network's registry under the same names ("executor.issued",
// "executor.retries", ...), so registry totals are the sum over runs.
struct ExecutionReport {
  SimDuration makespan{};
  std::size_t issued = 0;
  /// Requests whose *terminal* state is a rejection.
  std::size_t rejected = 0;
  /// Rejections by error class. Rejections are terminal, so
  /// rejected_retryable + rejected_fatal == rejected.
  std::size_t rejected_retryable = 0;
  std::size_t rejected_fatal = 0;
  std::size_t scheduling_rounds = 0;
  std::size_t deadline_misses = 0;

  // --- queueing delay -------------------------------------------------------
  // Time each issued request spent between becoming ready (dependency-free,
  // eligible for issue) and its first frame going out — the controller-side
  // wait end-to-end makespan hides: a ready request can sit behind its
  // switch's dispatch window long after its dependencies cleared. Summed /
  // maxed over issued requests; mean = total / issued. The intent service's
  // fairness accounting feeds on these.
  SimDuration total_queueing_delay{};
  SimDuration max_queueing_delay{};

  // --- recovery layer ------------------------------------------------------
  /// Request timeouts that fired (a request can time out more than once).
  std::size_t timeouts = 0;
  /// flow_mod re-issues (includes echo-rescue re-issues).
  std::size_t retries = 0;
  /// ECHO_REQUEST liveness probes sent.
  std::size_t echo_probes = 0;
  /// Requests abandoned: switch declared dead, or a predecessor failed, or
  /// retries + rescues exhausted. Every failed request is accounted here —
  /// issued + never-issued alike.
  std::size_t failed_requests = 0;
  /// Requests neither completed nor failed when the event queue drained.
  /// Always zero while the recovery layer is on; can be non-zero only with
  /// request_timeout == 0 under faults.
  std::size_t lost_requests = 0;
  /// Switches that stopped answering ECHO probes.
  std::set<SwitchId> failed_switches;
  /// The DAG has a dependency cycle, so it can never drain: nothing was
  /// issued and every request is counted in failed_requests.
  bool cyclic_dag = false;

  // --- fault-injector activity during this execution -----------------------
  // Deltas of each touched switch's FaultStats across the run (all zero when
  // no injector is attached), so crash-recovery behaviour is observable from
  // the report alone. A one-line log::info summary is emitted when any of
  // these advanced.
  std::size_t fault_crashes = 0;
  std::size_t fault_lost_to_crash = 0;
  std::size_t fault_dropped_to_switch = 0;
  std::size_t fault_dropped_to_controller = 0;
  /// Switches whose agent crashed (tables wiped) during this execution.
  std::set<SwitchId> crashed_switches;

  bool operator==(const ExecutionReport&) const = default;
};

ExecutionReport execute(net::Network& network, const RequestDag& dag,
                        UpdateScheduler& scheduler,
                        const ExecutorOptions& options = {});

/// Handle on an in-flight asynchronous execution (execute_async): the DAG
/// has been dispatched onto the network's event queue but the *caller* owns
/// the pumping of that queue — which is what lets several executions over
/// disjoint switch sets interleave in virtual time. Poll done() between
/// event-queue steps; call finish() once afterwards to finalize the report.
///
/// Each execution counts on its own report and adds it to the network's
/// telemetry registry only at finish(), so interleaved runs cannot corrupt
/// each other's counts.
class AsyncExecution {
 public:
  AsyncExecution() = default;

  /// True once every request reached a terminal state (completed or
  /// failed). Also true for a default-constructed (empty) handle.
  [[nodiscard]] bool done() const;

  /// Finalize the report (makespan, lost requests, fault deltas, telemetry
  /// counters and span) and return it. Idempotent; an empty handle returns
  /// an empty report. Calling before done() counts the still-pending
  /// requests as lost — only do that once the event queue has drained.
  const ExecutionReport& finish();

  /// Kill the execution in place: every still-pending timer, retry and
  /// completion callback becomes a no-op from this instant on. Models the
  /// issuing controller dying mid-commit (UpdateTransaction::abandon());
  /// in-flight frames already on the wire still reach the switches. No-op
  /// on an empty or finished handle.
  void abort();

 private:
  friend AsyncExecution execute_async(net::Network& network,
                                      const RequestDag& dag,
                                      UpdateScheduler& scheduler,
                                      const ExecutorOptions& options);
  std::shared_ptr<detail::ExecState> state_;
  /// The report of a DAG refused before dispatch (cyclic_dag).
  std::optional<ExecutionReport> refused_;
};

/// Start executing `dag` without pumping the event queue to completion —
/// the building block for dispatching independent updates concurrently.
/// `dag` and `scheduler` must outlive the returned handle's finish().
/// execute() is execute_async, then pump-until-done, then finish. A cyclic
/// DAG is refused by both: nothing is issued, on_failed fires for every
/// request, and the report (from finish()) has cyclic_dag set.
AsyncExecution execute_async(net::Network& network, const RequestDag& dag,
                             UpdateScheduler& scheduler,
                             const ExecutorOptions& options = {});

/// Build the flow_mod a request maps to.
of::FlowMod to_flow_mod(const SwitchRequest& request,
                        std::uint16_t default_priority = kDefaultPriority);

}  // namespace tango::sched
