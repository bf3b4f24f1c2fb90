// Tango patterns and the score database (paper §4).
//
// A Tango pattern is "a sequence of standard OpenFlow flow_mod commands and
// a corresponding data traffic pattern". The Probing Engine applies a
// pattern to a switch and, when given a ScoreDb, records the resulting
// PatternMeasurement there, keyed by switch and pattern name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "openflow/messages.h"
#include "openflow/packet.h"

namespace tango::core {

struct TangoPattern {
  std::string name;
  /// Control-plane command sequence, issued in order.
  std::vector<of::FlowMod> commands;
  /// Data traffic to send after the commands complete (one probe each).
  std::vector<of::PacketHeader> traffic;
};

struct PatternMeasurement {
  std::string pattern;
  SwitchId switch_id = 0;
  /// Barrier-to-barrier time for the whole command sequence.
  SimDuration install_time{};
  /// Commands that the switch rejected (table full etc.).
  std::size_t rejected = 0;
  /// Per-probe data-plane round trips, in traffic order.
  std::vector<SimDuration> rtts;
  /// Probe packets lost (and re-sent) while collecting rtts. Non-zero only
  /// under an active fault injector; a count here means the measurement's
  /// confidence interval should be widened.
  std::size_t lost_probes = 0;
};

/// Measurement results shared across Tango components, keyed by
/// (switch, pattern name). Later measurements of the same key overwrite.
class ScoreDb {
 public:
  void record(PatternMeasurement m);
  [[nodiscard]] const PatternMeasurement* find(SwitchId sw,
                                               const std::string& pattern) const;
  [[nodiscard]] std::vector<const PatternMeasurement*> for_switch(SwitchId sw) const;
  [[nodiscard]] std::size_t size() const { return db_.size(); }

 private:
  std::map<std::pair<SwitchId, std::string>, PatternMeasurement> db_;
};

}  // namespace tango::core
