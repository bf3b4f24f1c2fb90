// Reference (oracle) Tango scheduler for the differential scheduler suite.
//
// This is the seven-pattern orderingTangoOracle that BasicTangoScheduler
// used before it was collapsed to the one decision the oracle can actually
// make (ascending vs descending adds), kept verbatim in test-land: every
// pattern is scored as the max over switches of its summed per-op costs, the
// first best-scoring pattern wins, and its type sequence and add direction
// order the ready set. BasicTangoScheduler::order() must return exactly the
// same index vector for every input; see tests/test_scheduler_diff.cpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <vector>

#include "scheduler/request.h"
#include "scheduler/schedulers.h"
#include "tango/latency_profiler.h"

namespace tango::sched::testing {

/// One candidate rewrite pattern: an op-type permutation plus add ordering.
struct OrderingPattern {
  std::string name;
  RequestType sequence[3];
  bool adds_ascending = true;
};

class ReferenceTangoScheduler : public UpdateScheduler {
 public:
  ReferenceTangoScheduler(std::map<SwitchId, core::OpCostEstimate> costs,
                          TangoSchedulerOptions options = {})
      : costs_(std::move(costs)), options_(options) {
    using RT = RequestType;
    patterns_ = {
        {"DEL MOD ASCEND_ADD", {RT::kDel, RT::kMod, RT::kAdd}, true},
        {"DEL MOD DESCEND_ADD", {RT::kDel, RT::kMod, RT::kAdd}, false},
        {"DEL ASCEND_ADD MOD", {RT::kDel, RT::kAdd, RT::kMod}, true},
        {"MOD DEL ASCEND_ADD", {RT::kMod, RT::kDel, RT::kAdd}, true},
        {"MOD ASCEND_ADD DEL", {RT::kMod, RT::kAdd, RT::kDel}, true},
        {"ASCEND_ADD DEL MOD", {RT::kAdd, RT::kDel, RT::kMod}, true},
        {"ASCEND_ADD MOD DEL", {RT::kAdd, RT::kMod, RT::kDel}, true},
    };
  }

  [[nodiscard]] std::string name() const override { return "ReferenceTango"; }

  double op_cost_ms(SwitchId sw, RequestType type, bool adds_ascending) const {
    const auto it = costs_.find(sw);
    if (it == costs_.end()) {
      switch (type) {
        case RequestType::kDel: return 10;
        case RequestType::kMod: return 1;
        case RequestType::kAdd: return adds_ascending ? 20 : 40;
      }
    }
    const auto& c = it->second;
    switch (type) {
      case RequestType::kDel: return c.del_ms;
      case RequestType::kMod: return c.mod_ms;
      case RequestType::kAdd:
        return adds_ascending ? c.add_ascending_ms : c.add_descending_ms;
    }
    return 1;
  }

  double pattern_score(const RequestDag& dag, const std::vector<std::size_t>& ready,
                       const OrderingPattern& pattern) const {
    std::map<SwitchId, double> per_switch;
    for (std::size_t id : ready) {
      const auto& req = dag.request(id);
      per_switch[req.location] +=
          op_cost_ms(req.location, req.type, pattern.adds_ascending);
    }
    double worst = 0;
    for (const auto& [sw, ms] : per_switch) worst = std::max(worst, ms);
    return -worst;
  }

  std::vector<std::size_t> apply_pattern(const RequestDag& dag,
                                         std::vector<std::size_t> ready,
                                         const OrderingPattern& pattern) const {
    auto type_rank = [&](RequestType t) {
      for (int i = 0; i < 3; ++i) {
        if (pattern.sequence[i] == t) return i;
      }
      return 3;
    };
    std::stable_sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
      const auto& ra = dag.request(a);
      const auto& rb = dag.request(b);
      const int ta = type_rank(ra.type);
      const int tb = type_rank(rb.type);
      if (ta != tb) return ta < tb;
      if (options_.sort_priorities && ra.type == RequestType::kAdd &&
          ra.priority.has_value() && rb.priority.has_value() &&
          *ra.priority != *rb.priority) {
        return pattern.adds_ascending ? *ra.priority < *rb.priority
                                      : *ra.priority > *rb.priority;
      }
      return false;
    });
    return ready;
  }

  double estimate_makespan_ms(const RequestDag& dag,
                              const std::vector<std::size_t>& order) const {
    std::map<SwitchId, double> per_switch;
    for (std::size_t id : order) {
      const auto& req = dag.request(id);
      per_switch[req.location] += op_cost_ms(req.location, req.type, true);
    }
    double worst = 0;
    for (const auto& [sw, ms] : per_switch) worst = std::max(worst, ms);
    return worst;
  }

  std::vector<std::size_t> order(const RequestDag& dag,
                                 std::vector<std::size_t> ready) override {
    double best_score = -1e300;
    const OrderingPattern* best = nullptr;
    for (const auto& pattern : patterns_) {
      const double score = pattern_score(dag, ready, pattern);
      if (score > best_score) {
        best_score = score;
        best = &pattern;
      }
    }
    assert(best != nullptr);
    auto ordered = apply_pattern(dag, std::move(ready), *best);

    if (options_.deadline_first) {
      std::stable_sort(ordered.begin(), ordered.end(),
                       [&](std::size_t a, std::size_t b) {
                         const auto& da = dag.request(a).deadline;
                         const auto& db = dag.request(b).deadline;
                         if (da.has_value() != db.has_value()) return da.has_value();
                         if (da && db) return *da < *db;
                         return false;
                       });
    }

    return ordered;
  }

 private:
  std::map<SwitchId, core::OpCostEstimate> costs_;
  TangoSchedulerOptions options_;
  std::vector<OrderingPattern> patterns_;
};

}  // namespace tango::sched::testing
