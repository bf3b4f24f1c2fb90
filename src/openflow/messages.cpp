#include "openflow/messages.h"

namespace tango::of {

MsgType type_of(const MessageBody& body) {
  return std::visit([](const auto& b) { return b.kType; }, body);
}

std::string type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kError: return "ERROR";
    case MsgType::kEchoRequest: return "ECHO_REQUEST";
    case MsgType::kEchoReply: return "ECHO_REPLY";
    case MsgType::kVendor: return "VENDOR";
    case MsgType::kFeaturesRequest: return "FEATURES_REQUEST";
    case MsgType::kFeaturesReply: return "FEATURES_REPLY";
    case MsgType::kGetConfigRequest: return "GET_CONFIG_REQUEST";
    case MsgType::kGetConfigReply: return "GET_CONFIG_REPLY";
    case MsgType::kSetConfig: return "SET_CONFIG";
    case MsgType::kPacketIn: return "PACKET_IN";
    case MsgType::kFlowRemoved: return "FLOW_REMOVED";
    case MsgType::kPortStatus: return "PORT_STATUS";
    case MsgType::kPacketOut: return "PACKET_OUT";
    case MsgType::kFlowMod: return "FLOW_MOD";
    case MsgType::kPortMod: return "PORT_MOD";
    case MsgType::kStatsRequest: return "STATS_REQUEST";
    case MsgType::kStatsReply: return "STATS_REPLY";
    case MsgType::kBarrierRequest: return "BARRIER_REQUEST";
    case MsgType::kBarrierReply: return "BARRIER_REPLY";
  }
  return "UNKNOWN";
}

}  // namespace tango::of
