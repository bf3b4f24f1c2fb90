// Rule-operation latency profiling (the "rewriting patterns" of §4/§6).
//
// Measures, per switch, the barrier-timed cost of: additions in ascending /
// descending / constant / random priority order, modifications, and
// deletions. The Tango scheduler reads these per-rule costs (through
// sched::op_cost_ms) to choose the add direction — ascending or descending
// priority — for each ready set; its type order is fixed at DEL -> MOD ->
// ADD. So the same scheduler adapts to each switch's measured behaviour
// instead of hardcoded weights.
#pragma once

#include <cstddef>

#include "common/types.h"
#include "tango/pattern.h"
#include "tango/probe_engine.h"

namespace tango::core {

/// Per-operation average costs (milliseconds per rule), measured.
struct OpCostEstimate {
  double add_ascending_ms = 0;
  double add_descending_ms = 0;
  double add_same_priority_ms = 0;
  double add_random_ms = 0;
  double mod_ms = 0;
  double del_ms = 0;

  /// Cheapest measured way to add rules (the priority pattern the
  /// scheduler should rewrite toward).
  [[nodiscard]] double best_add_ms() const;
  /// True when priority order measurably matters (hardware TCAMs).
  [[nodiscard]] bool priority_sensitive(double threshold = 1.5) const;
};

struct LatencyProfileConfig {
  /// Rules per timed batch.
  std::size_t batch_size = 500;
  /// Rules preinstalled (random priorities in [preinstall_base,
  /// preinstall_base + preinstalled)) before measuring, to expose shift
  /// costs at depth; mirrors the paper's Fig 3 methodology (1000 rules of
  /// random priority preinstalled).
  std::size_t preinstalled = 1000;
  std::uint16_t preinstall_base = 1000;
  std::uint64_t seed = 11;
};

OpCostEstimate profile_op_costs(ProbeEngine& probe,
                                const LatencyProfileConfig& config = {},
                                ScoreDb* scores = nullptr);

/// Helper used by the profiler and the Fig 3 benches: build an add-batch of
/// `count` probe rules with the given priority sequence.
std::vector<of::FlowMod> make_add_batch(std::uint32_t first_index, std::size_t count,
                                        const std::vector<std::uint16_t>& priorities);

/// Priority sequences for the four orderings. `base` is the lowest value in
/// the range; descending runs from base+count-1 down to base.
std::vector<std::uint16_t> ascending_priorities(std::size_t count,
                                                std::uint16_t base = 100);
std::vector<std::uint16_t> descending_priorities(std::size_t count,
                                                 std::uint16_t base = 100);
std::vector<std::uint16_t> constant_priorities(std::size_t count,
                                               std::uint16_t value = 0x8000);
std::vector<std::uint16_t> random_priorities(std::size_t count, Rng& rng,
                                             std::uint16_t base = 100);

}  // namespace tango::core
