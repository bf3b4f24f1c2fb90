#include "scheduler/schedulers.h"

#include <algorithm>

namespace tango::sched {

std::vector<std::size_t> DionysusScheduler::order(const RequestDag& dag,
                                                  std::vector<std::size_t> ready) {
  std::stable_sort(ready.begin(), ready.end(),
                   [&](std::size_t a, std::size_t b) {
                     return dag.downstream_depth(a) > dag.downstream_depth(b);
                   });
  return ready;
}

double op_cost_ms(const core::OpCostEstimate& costs, RequestType type,
                  bool adds_ascending) {
  switch (type) {
    case RequestType::kDel: return costs.del_ms;
    case RequestType::kMod: return costs.mod_ms;
    case RequestType::kAdd:
      return adds_ascending ? costs.add_ascending_ms : costs.add_descending_ms;
  }
  return 1;
}

namespace {

/// Unprofiled switch: neutral weights (the paper's static fallback).
constexpr core::OpCostEstimate kStaticWeights{.add_ascending_ms = 20,
                                              .add_descending_ms = 40,
                                              .mod_ms = 1,
                                              .del_ms = 10};

/// Fixed issue order of request types: DEL, then MOD, then ADD.
int type_rank(RequestType t) {
  return t == RequestType::kDel ? 0 : t == RequestType::kMod ? 1 : 2;
}

}  // namespace

BasicTangoScheduler::BasicTangoScheduler(
    std::map<SwitchId, core::OpCostEstimate> costs, TangoSchedulerOptions options)
    : costs_(std::move(costs)), options_(options) {}

std::vector<std::size_t> BasicTangoScheduler::order(const RequestDag& dag,
                                                    std::vector<std::size_t> ready) {
  // orderingTangoOracle: descending adds only when measured strictly
  // cheaper; a tie keeps ascending.
  const Makespans est = makespans_ms(dag, ready);
  const bool adds_ascending = !(est.descending < est.ascending);
  std::stable_sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
    const auto& ra = dag.request(a);
    const auto& rb = dag.request(b);
    if (ra.type != rb.type) return type_rank(ra.type) < type_rank(rb.type);
    if (options_.sort_priorities && ra.type == RequestType::kAdd &&
        ra.priority.has_value() && rb.priority.has_value() &&
        *ra.priority != *rb.priority) {
      return adds_ascending ? *ra.priority < *rb.priority
                            : *ra.priority > *rb.priority;
    }
    return false;
  });

  if (options_.deadline_first) {
    // Deadline-carrying requests jump the type order, earliest first; the
    // type order still governs everything behind them.
    std::stable_sort(ready.begin(), ready.end(),
                     [&](std::size_t a, std::size_t b) {
                       const auto& da = dag.request(a).deadline;
                       const auto& db = dag.request(b).deadline;
                       if (da.has_value() != db.has_value()) return da.has_value();
                       if (da && db) return *da < *db;
                       return false;
                     });
  }

  return ready;
}

double BasicTangoScheduler::estimate_makespan_ms(
    const RequestDag& dag, const std::vector<std::size_t>& order,
    bool adds_ascending) const {
  const Makespans est = makespans_ms(dag, order);
  return adds_ascending ? est.ascending : est.descending;
}

BasicTangoScheduler::Makespans BasicTangoScheduler::makespans_ms(
    const RequestDag& dag, const std::vector<std::size_t>& ids) const {
  // Per-switch queues run in parallel, so a makespan is the max over
  // switches of their serial cost.
  std::map<SwitchId, Makespans> per_switch;
  for (std::size_t id : ids) {
    const auto& req = dag.request(id);
    const auto it = costs_.find(req.location);
    const auto& costs = it == costs_.end() ? kStaticWeights : it->second;
    auto& sums = per_switch[req.location];
    sums.ascending += op_cost_ms(costs, req.type, true);
    sums.descending += op_cost_ms(costs, req.type, false);
  }
  Makespans worst;
  for (const auto& [sw, sums] : per_switch) {
    worst.ascending = std::max(worst.ascending, sums.ascending);
    worst.descending = std::max(worst.descending, sums.descending);
  }
  return worst;
}

std::size_t BasicTangoScheduler::enforce_priorities(RequestDag& dag,
                                                    std::uint16_t base_priority,
                                                    std::uint16_t step) {
  const auto levels = dag.levels();
  std::size_t assigned = 0;
  for (std::size_t id = 0; id < dag.size(); ++id) {
    auto& req = dag.request(id);
    if (req.priority.has_value()) continue;
    // Requests at the same DAG level share one priority (same-priority
    // appends — the cheapest add), and later levels get strictly higher
    // values, so the per-switch installation sequence is ascending and
    // never shifts existing TCAM entries.
    const std::uint16_t priority =
        static_cast<std::uint16_t>(base_priority + step * levels[id]);
    req.priority = priority;
    ++assigned;
  }
  return assigned;
}

}  // namespace tango::sched
