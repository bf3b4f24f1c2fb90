// OpenFlow 1.0 actions (subset). Each struct holds the fields of the
// corresponding ofp_action_* and declares its wire tag (kType); Action is the
// sum type carried in flow_mod and packet_out messages.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "openflow/constants.h"
#include "openflow/match.h"

namespace tango::of {

struct ActionOutput {
  static constexpr ActionType kType = ActionType::kOutput;
  std::uint16_t port = 0;
  std::uint16_t max_len = 0xffff;  // bytes to send to controller when port==CONTROLLER
  bool operator==(const ActionOutput&) const = default;
};

struct ActionSetVlanVid {
  static constexpr ActionType kType = ActionType::kSetVlanVid;
  std::uint16_t vlan_vid = 0;
  bool operator==(const ActionSetVlanVid&) const = default;
};

struct ActionStripVlan {
  static constexpr ActionType kType = ActionType::kStripVlan;
  bool operator==(const ActionStripVlan&) const = default;
};

struct ActionSetDlSrc {
  static constexpr ActionType kType = ActionType::kSetDlSrc;
  MacAddr addr{};
  bool operator==(const ActionSetDlSrc&) const = default;
};

struct ActionSetDlDst {
  static constexpr ActionType kType = ActionType::kSetDlDst;
  MacAddr addr{};
  bool operator==(const ActionSetDlDst&) const = default;
};

struct ActionSetNwSrc {
  static constexpr ActionType kType = ActionType::kSetNwSrc;
  std::uint32_t addr = 0;
  bool operator==(const ActionSetNwSrc&) const = default;
};

struct ActionSetNwDst {
  static constexpr ActionType kType = ActionType::kSetNwDst;
  std::uint32_t addr = 0;
  bool operator==(const ActionSetNwDst&) const = default;
};

using Action = std::variant<ActionOutput, ActionSetVlanVid, ActionStripVlan,
                            ActionSetDlSrc, ActionSetDlDst, ActionSetNwSrc,
                            ActionSetNwDst>;

using ActionList = std::vector<Action>;

/// Apply an action's header rewrite to a packet (output actions are handled
/// by the switch forwarding logic, not here).
void apply_action(const Action& action, PacketHeader& pkt);

/// Output port of the first output action, or kPortNone when the list drops.
std::uint16_t output_port(const ActionList& actions);

/// Convenience: a single "forward out port p" action list.
ActionList output_to(std::uint16_t port);

std::string to_string(const Action& action);

}  // namespace tango::of
