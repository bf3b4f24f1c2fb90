// OpenFlow 1.0 protocol constants (subset used by Tango).
//
// The reproduction speaks real OpenFlow 1.0 framing on the simulated control
// channel: every flow_mod / packet_in / barrier is serialized to wire bytes
// and parsed back, so probing overhead is measured in actual protocol bytes.
#pragma once

#include <cstdint>

namespace tango::of {

inline constexpr std::uint8_t kVersion = 0x01;  // OpenFlow 1.0
inline constexpr std::size_t kHeaderLen = 8;
/// Largest frame the 16-bit ofp_header length field can describe.
inline constexpr std::size_t kMaxFrameLen = 0xffff;

enum class MsgType : std::uint8_t {
  kHello = 0,
  kError = 1,
  kEchoRequest = 2,
  kEchoReply = 3,
  kVendor = 4,
  kFeaturesRequest = 5,
  kFeaturesReply = 6,
  kGetConfigRequest = 7,
  kGetConfigReply = 8,
  kSetConfig = 9,
  kPacketIn = 10,
  kFlowRemoved = 11,
  kPortStatus = 12,
  kPacketOut = 13,
  kFlowMod = 14,
  kPortMod = 15,
  kStatsRequest = 16,
  kStatsReply = 17,
  kBarrierRequest = 18,
  kBarrierReply = 19,
};

enum class FlowModCommand : std::uint16_t {
  kAdd = 0,
  kModify = 1,
  kModifyStrict = 2,
  kDelete = 3,
  kDeleteStrict = 4,
};

enum class ErrorType : std::uint16_t {
  kHelloFailed = 0,
  kBadRequest = 1,
  kBadAction = 2,
  kFlowModFailed = 3,
  kPortModFailed = 4,
  kQueueOpFailed = 5,
};

enum class FlowModFailedCode : std::uint16_t {
  kAllTablesFull = 0,
  kOverlap = 1,
  kEperm = 2,
  kBadEmergTimeout = 3,
  kBadCommand = 4,
  kUnsupported = 5,
};

enum class PacketInReason : std::uint8_t {
  kNoMatch = 0,
  kAction = 1,
};

enum class FlowRemovedReason : std::uint8_t {
  kIdleTimeout = 0,
  kHardTimeout = 1,
  kDelete = 2,
};

enum class StatsType : std::uint16_t {
  kDesc = 0,
  kFlow = 1,
  kAggregate = 2,
  kTable = 3,
  kPort = 4,
};

/// ofp_stats_reply flag: more parts of this reply follow (OFPSF_REPLY_MORE).
inline constexpr std::uint16_t kStatsReplyMore = 0x0001;

// Reserved port numbers (ofp_port).
inline constexpr std::uint16_t kPortMax = 0xff00;
inline constexpr std::uint16_t kPortInPort = 0xfff8;
inline constexpr std::uint16_t kPortTable = 0xfff9;
inline constexpr std::uint16_t kPortNormal = 0xfffa;
inline constexpr std::uint16_t kPortFlood = 0xfffb;
inline constexpr std::uint16_t kPortAll = 0xfffc;
inline constexpr std::uint16_t kPortController = 0xfffd;
inline constexpr std::uint16_t kPortLocal = 0xfffe;
inline constexpr std::uint16_t kPortNone = 0xffff;

inline constexpr std::uint32_t kNoBuffer = 0xffffffff;

// ofp_flow_wildcards bits.
inline constexpr std::uint32_t kWildcardInPort = 1u << 0;
inline constexpr std::uint32_t kWildcardDlVlan = 1u << 1;
inline constexpr std::uint32_t kWildcardDlSrc = 1u << 2;
inline constexpr std::uint32_t kWildcardDlDst = 1u << 3;
inline constexpr std::uint32_t kWildcardDlType = 1u << 4;
inline constexpr std::uint32_t kWildcardNwProto = 1u << 5;
inline constexpr std::uint32_t kWildcardTpSrc = 1u << 6;
inline constexpr std::uint32_t kWildcardTpDst = 1u << 7;
inline constexpr std::uint32_t kWildcardNwSrcShift = 8;
inline constexpr std::uint32_t kWildcardNwSrcMask = 0x3fu << kWildcardNwSrcShift;
inline constexpr std::uint32_t kWildcardNwDstShift = 14;
inline constexpr std::uint32_t kWildcardNwDstMask = 0x3fu << kWildcardNwDstShift;
inline constexpr std::uint32_t kWildcardDlVlanPcp = 1u << 20;
inline constexpr std::uint32_t kWildcardNwTos = 1u << 21;
inline constexpr std::uint32_t kWildcardAll = (1u << 22) - 1;

enum class ActionType : std::uint16_t {
  kOutput = 0,
  kSetVlanVid = 1,
  kSetVlanPcp = 2,
  kStripVlan = 3,
  kSetDlSrc = 4,
  kSetDlDst = 5,
  kSetNwSrc = 6,
  kSetNwDst = 7,
};

}  // namespace tango::of
