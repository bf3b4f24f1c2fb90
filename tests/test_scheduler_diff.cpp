// Differential suite for the Tango scheduler's ordering decision.
//
// BasicTangoScheduler::order() makes one scored choice — ascending vs
// descending adds — and issues every ready set in the fixed type order
// DEL -> MOD -> ADD. The reference (tests/reference_scheduler.h) is the
// seven-pattern orderingTangoOracle it replaced, kept verbatim. These tests
// drive both through thousands of seeded random ready sets and assert the
// returned index vectors are identical: ties between the add directions,
// each direction cheaper, unprofiled switches on the static weights,
// missing and equal priorities, and every option combination.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "reference_scheduler.h"
#include "scheduler/request.h"
#include "scheduler/schedulers.h"
#include "tango/probe_engine.h"

namespace tango::sched {
namespace {

using testing::ReferenceTangoScheduler;

// Small cost domains force exact ties between the add directions; tenths
// make per-switch sums order-sensitive in floating point, so a changed
// summation order would show up as a flipped decision.
double random_cost(Rng& rng) {
  static constexpr double kCosts[] = {0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0};
  return kCosts[rng.index(std::size(kCosts))];
}

core::OpCostEstimate random_estimate(Rng& rng) {
  core::OpCostEstimate c;
  c.add_ascending_ms = random_cost(rng);
  // A third of the switches measure both directions the same.
  c.add_descending_ms = rng.chance(0.33) ? c.add_ascending_ms : random_cost(rng);
  c.add_same_priority_ms = random_cost(rng);
  c.add_random_ms = random_cost(rng);
  c.mod_ms = random_cost(rng);
  c.del_ms = random_cost(rng);
  return c;
}

struct Case {
  std::map<SwitchId, core::OpCostEstimate> costs;
  RequestDag dag;
  std::vector<std::size_t> ready;
  TangoSchedulerOptions options;
};

Case random_case(Rng& rng) {
  Case c;
  // Switches 1..n; each is profiled with probability 3/4, the rest fall
  // back to the static weights.
  const auto switches = static_cast<SwitchId>(rng.uniform_int(1, 5));
  for (SwitchId sw = 1; sw <= switches; ++sw) {
    if (rng.chance(0.75)) c.costs.emplace(sw, random_estimate(rng));
  }
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
  for (std::size_t i = 0; i < n; ++i) {
    SwitchRequest r;
    r.location = static_cast<SwitchId>(rng.uniform_int(1, switches));
    r.type = static_cast<RequestType>(rng.uniform_int(0, 2));
    if (!rng.chance(0.2)) {
      // Narrow range: many equal priorities.
      r.priority = static_cast<std::uint16_t>(rng.uniform_int(100, 105));
    }
    if (rng.chance(0.2)) r.deadline = millis(static_cast<double>(rng.uniform_int(1, 4)));
    r.match = core::ProbeEngine::probe_match(static_cast<std::uint32_t>(i));
    r.actions = of::output_to(2);
    c.dag.add(std::move(r));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.chance(0.05)) c.dag.add_dependency(i, j);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.7)) c.ready.push_back(i);
  }
  rng.shuffle(c.ready);
  c.options.sort_priorities = !rng.chance(0.25);
  c.options.deadline_first = rng.chance(0.3);
  return c;
}

TEST(TangoSchedulerDiffTest, OrderMatchesSevenPatternOracle) {
  Rng rng(20141202);
  std::size_t ties = 0, ascending_cheaper = 0, descending_cheaper = 0;
  std::size_t unprofiled = 0, missing_priority = 0;
  for (int round = 0; round < 5000; ++round) {
    Case c = random_case(rng);
    BasicTangoScheduler sched(c.costs, c.options);
    ReferenceTangoScheduler ref(c.costs, c.options);
    const auto got = sched.order(c.dag, c.ready);
    const auto want = ref.order(c.dag, c.ready);
    ASSERT_EQ(got, want) << "round " << round;
    ASSERT_EQ(sched.estimate_makespan_ms(c.dag, c.ready),
              ref.estimate_makespan_ms(c.dag, c.ready))
        << "round " << round;

    const double asc = sched.estimate_makespan_ms(c.dag, c.ready, true);
    const double desc = sched.estimate_makespan_ms(c.dag, c.ready, false);
    if (asc == desc) {
      ++ties;
    } else if (asc < desc) {
      ++ascending_cheaper;
    } else {
      ++descending_cheaper;
    }
    for (const std::size_t id : c.ready) {
      const auto& r = c.dag.request(id);
      if (c.costs.count(r.location) == 0) {
        ++unprofiled;
        break;
      }
    }
    for (const std::size_t id : c.ready) {
      if (!c.dag.request(id).priority.has_value()) {
        ++missing_priority;
        break;
      }
    }
  }
  // Every input class the collapse must agree on actually occurred.
  EXPECT_GT(ties, 100u);
  EXPECT_GT(ascending_cheaper, 100u);
  EXPECT_GT(descending_cheaper, 100u);
  EXPECT_GT(unprofiled, 100u);
  EXPECT_GT(missing_priority, 100u);
}

TEST(TangoSchedulerDiffTest, DescendingWinsOnlyWhenStrictlyCheaper) {
  // One switch whose two add directions cost the same: the tie keeps
  // ascending, exactly like the oracle's first-listed pattern.
  core::OpCostEstimate c;
  c.add_ascending_ms = c.add_descending_ms = 1.0;
  RequestDag dag;
  std::vector<std::size_t> ready;
  for (std::uint16_t p : {300, 100, 200}) {
    SwitchRequest r;
    r.location = 1;
    r.priority = p;
    r.match = core::ProbeEngine::probe_match(p);
    ready.push_back(dag.add(std::move(r)));
  }
  BasicTangoScheduler tied({{1, c}});
  EXPECT_EQ(tied.order(dag, ready), (std::vector<std::size_t>{1, 2, 0}));

  c.add_descending_ms = 0.9;
  BasicTangoScheduler cheaper_desc({{1, c}});
  ReferenceTangoScheduler ref({{1, c}});
  EXPECT_EQ(cheaper_desc.order(dag, ready), (std::vector<std::size_t>{0, 2, 1}));
  EXPECT_EQ(cheaper_desc.order(dag, ready), ref.order(dag, ready));
}

}  // namespace
}  // namespace tango::sched
