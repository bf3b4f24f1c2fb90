// Per-key adaptive round-trip estimation (Jacobson/Karels EWMA).
//
// One fixed timeout is either too slow for a fast peer (dead time before
// the first retry) or too twitchy for a slow one (spurious timeouts). This
// estimator learns each key's round trip from observed samples (the HA
// standby feeds it heartbeat inter-arrival times) and derives a deadline
// the classic TCP way:
//
//   srtt   <- (1-alpha) * srtt + alpha * sample        (alpha = 1/8)
//   rttvar <- (1-beta)  * rttvar + beta * |srtt-sample| (beta = 1/4)
//   rto    =  srtt + k * rttvar                         (k = 4)
//
// The fixed knob stays as the fallback: before `warmup` samples exist for
// a switch the fallback is returned verbatim, and an adaptive deadline is
// clamped to never exceed it (adapting may only tighten recovery, never
// loosen it past what the operator configured). Pure bookkeeping on
// virtual-time durations — deterministic, no wall clock.
#pragma once

#include <cstdint>
#include <map>

#include "common/types.h"

namespace tango::net {

struct RttEstimate {
  double srtt_ms = 0.0;
  double rttvar_ms = 0.0;
  std::uint64_t samples = 0;
};

class RttEstimator {
 public:
  struct Config {
    double alpha = 0.125;
    double beta = 0.25;
    /// Deviation multiplier in the deadline formula.
    double k = 4.0;
    /// Deadline floor: protects against a degenerate zero-variance estimate
    /// timing out faster than the channel can physically answer.
    SimDuration floor = millis(1);
    /// Samples needed before timeout_for() trusts the estimate.
    std::uint64_t warmup = 2;
  };

  RttEstimator() = default;
  explicit RttEstimator(Config config) : config_(config) {}

  /// Feed one measured round trip for `id`.
  void observe(SwitchId id, SimDuration rtt);

  /// Adaptive deadline for `id`: srtt + k*rttvar, clamped to
  /// [floor, fallback]. Returns `fallback` verbatim while under warmup —
  /// including fallback == 0, which callers treat as "recovery disabled".
  [[nodiscard]] SimDuration timeout_for(SwitchId id, SimDuration fallback) const;

  /// Current estimate, or nullptr if `id` has never been observed.
  [[nodiscard]] const RttEstimate* estimate(SwitchId id) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
  std::map<SwitchId, RttEstimate> switches_;
};

}  // namespace tango::net
