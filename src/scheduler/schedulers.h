// Update schedulers: the Dionysus-style critical-path baseline and the
// Basic Tango Scheduler (paper Algorithm 3) with its extensions.
//
// Both operate round-by-round: the executor presents the set of currently
// ready (dependency-free) requests; the scheduler returns them in issue
// order. Per-switch command queues are FIFO, so issue order *is* execution
// order on each switch.
//
// The Tango scheduler's orderingTangoOracle issues every ready set in the
// fixed type order DEL -> MOD -> ADD. The one choice it makes from the
// per-op costs measured by the latency profiler is the add direction: adds
// go in descending priority order only when the measured descending-add
// makespan is strictly below the ascending one, ascending otherwise. (The
// cost estimate is a per-switch sum, which no type permutation changes, so
// the type order is not a scored choice.) With priority enforcement enabled
// it additionally overwrites application-unspecified priorities with
// DAG-level-derived ones so that adds become same-priority appends.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "scheduler/request.h"
#include "tango/latency_profiler.h"

namespace tango::sched {

class UpdateScheduler {
 public:
  virtual ~UpdateScheduler() = default;

  /// Order the ready set for issue. Called once per scheduling round.
  virtual std::vector<std::size_t> order(const RequestDag& dag,
                                         std::vector<std::size_t> ready) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Dionysus: schedule the independent request on the longest remaining
/// dependency path first; oblivious to op-type and priority diversity.
class DionysusScheduler : public UpdateScheduler {
 public:
  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override;
  [[nodiscard]] std::string name() const override { return "Dionysus"; }
};

/// Measured per-rule cost of one request type on a switch, in ms. Adds
/// cost the ascending- or descending-priority rate.
double op_cost_ms(const core::OpCostEstimate& costs, RequestType type,
                  bool adds_ascending = true);

struct TangoSchedulerOptions {
  /// Sort the ADD group by priority, in the add direction the measured
  /// costs favour.
  bool sort_priorities = true;
  /// Hoist requests that carry install_by deadlines to the front of the
  /// batch (earliest-deadline-first among themselves). Trades some ordering
  /// efficiency for deadline compliance.
  bool deadline_first = false;
};

class BasicTangoScheduler : public UpdateScheduler {
 public:
  BasicTangoScheduler(std::map<SwitchId, core::OpCostEstimate> costs,
                      TangoSchedulerOptions options = {});

  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override;
  [[nodiscard]] std::string name() const override { return "Tango"; }

  /// Estimated makespan (max over switches of serial cost) of issuing the
  /// given requests, with adds in ascending or descending priority order.
  /// The one per-switch score behind order().
  [[nodiscard]] double estimate_makespan_ms(const RequestDag& dag,
                                            const std::vector<std::size_t>& order,
                                            bool adds_ascending = true) const;

  /// Overwrite unspecified priorities from DAG levels: requests at the same
  /// level share one priority, deeper (must-install-first) levels get
  /// higher values, so per-level installation is same-priority appends in
  /// ascending order ("priority enforcement", §7.2).
  static std::size_t enforce_priorities(RequestDag& dag,
                                        std::uint16_t base_priority = 1000,
                                        std::uint16_t step = 10);

 private:
  struct Makespans {
    double ascending = 0;
    double descending = 0;
  };
  /// Both add directions' makespans in one pass over `ids`.
  [[nodiscard]] Makespans makespans_ms(const RequestDag& dag,
                                       const std::vector<std::size_t>& ids) const;

  std::map<SwitchId, core::OpCostEstimate> costs_;
  TangoSchedulerOptions options_;
};

}  // namespace tango::sched
