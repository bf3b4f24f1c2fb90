// OpenFlow 1.0 message structures (subset used by Tango).
//
// A Message is a transaction id plus one of the typed bodies below. Each
// body declares its wire tag once: kType (ofp_header.type) and, for stats
// messages, kStats (ofp_stats_request/reply.type). The codec (codec.h)
// maps these to/from the OF1.0 wire format and picks a body by its tag.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "openflow/actions.h"
#include "openflow/constants.h"
#include "openflow/match.h"

namespace tango::of {

struct Hello {
  static constexpr MsgType kType = MsgType::kHello;
  bool operator==(const Hello&) const = default;
};

struct EchoRequest {
  static constexpr MsgType kType = MsgType::kEchoRequest;
  std::vector<std::uint8_t> payload;
  bool operator==(const EchoRequest&) const = default;
};

struct EchoReply {
  static constexpr MsgType kType = MsgType::kEchoReply;
  std::vector<std::uint8_t> payload;
  bool operator==(const EchoReply&) const = default;
};

struct ErrorMsg {
  static constexpr MsgType kType = MsgType::kError;
  ErrorType type = ErrorType::kBadRequest;
  std::uint16_t code = 0;
  std::vector<std::uint8_t> data;  // first bytes of the offending message
  bool operator==(const ErrorMsg&) const = default;
};

struct FeaturesRequest {
  static constexpr MsgType kType = MsgType::kFeaturesRequest;
  bool operator==(const FeaturesRequest&) const = default;
};

struct PhyPort {
  std::uint16_t port_no = 0;
  MacAddr hw_addr{};
  std::string name;  // up to 15 chars on the wire
  std::uint32_t config = 0;
  std::uint32_t state = 0;
  std::uint32_t curr = 0;
  std::uint32_t advertised = 0;
  std::uint32_t supported = 0;
  std::uint32_t peer = 0;
  bool operator==(const PhyPort&) const = default;
};

struct FeaturesReply {
  static constexpr MsgType kType = MsgType::kFeaturesReply;
  std::uint64_t datapath_id = 0;
  std::uint32_t n_buffers = 0;
  std::uint8_t n_tables = 0;
  std::uint32_t capabilities = 0;
  std::uint32_t actions = 0;
  std::vector<PhyPort> ports;
  bool operator==(const FeaturesReply&) const = default;
};

struct FlowMod {
  static constexpr MsgType kType = MsgType::kFlowMod;
  Match match;
  std::uint64_t cookie = 0;
  FlowModCommand command = FlowModCommand::kAdd;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint16_t priority = 0x8000;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t out_port = kPortNone;  // filter for DELETE
  std::uint16_t flags = 0;
  ActionList actions;
  bool operator==(const FlowMod&) const = default;
};

struct FlowRemoved {
  static constexpr MsgType kType = MsgType::kFlowRemoved;
  Match match;
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  FlowRemovedReason reason = FlowRemovedReason::kDelete;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t idle_timeout = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  bool operator==(const FlowRemoved&) const = default;
};

struct PacketIn {
  static constexpr MsgType kType = MsgType::kPacketIn;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t total_len = 0;
  std::uint16_t in_port = 0;
  PacketInReason reason = PacketInReason::kNoMatch;
  std::vector<std::uint8_t> data;
  bool operator==(const PacketIn&) const = default;
};

struct PacketOut {
  static constexpr MsgType kType = MsgType::kPacketOut;
  std::uint32_t buffer_id = kNoBuffer;
  std::uint16_t in_port = kPortNone;
  ActionList actions;
  std::vector<std::uint8_t> data;
  bool operator==(const PacketOut&) const = default;
};

struct BarrierRequest {
  static constexpr MsgType kType = MsgType::kBarrierRequest;
  bool operator==(const BarrierRequest&) const = default;
};

struct BarrierReply {
  static constexpr MsgType kType = MsgType::kBarrierReply;
  bool operator==(const BarrierReply&) const = default;
};

struct FlowStatsRequest {
  static constexpr MsgType kType = MsgType::kStatsRequest;
  static constexpr StatsType kStats = StatsType::kFlow;
  Match match;            // filter
  std::uint8_t table_id = 0xff;  // all tables
  std::uint16_t out_port = kPortNone;
  bool operator==(const FlowStatsRequest&) const = default;
};

struct FlowStatsEntry {
  std::uint8_t table_id = 0;
  Match match;
  std::uint32_t duration_sec = 0;
  std::uint32_t duration_nsec = 0;
  std::uint16_t priority = 0;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint64_t cookie = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  ActionList actions;
  bool operator==(const FlowStatsEntry&) const = default;
};

struct FlowStatsReply {
  static constexpr MsgType kType = MsgType::kStatsReply;
  static constexpr StatsType kStats = StatsType::kFlow;
  std::vector<FlowStatsEntry> entries;
  /// kStatsReplyMore on every part of a multi-part reply but the last.
  std::uint16_t flags = 0;
  bool operator==(const FlowStatsReply&) const = default;
};

struct TableStatsRequest {
  static constexpr MsgType kType = MsgType::kStatsRequest;
  static constexpr StatsType kStats = StatsType::kTable;
  bool operator==(const TableStatsRequest&) const = default;
};

struct TableStatsEntry {
  std::uint8_t table_id = 0;
  std::string name;  // up to 31 chars on the wire
  std::uint32_t wildcards = 0;
  std::uint32_t max_entries = 0;
  std::uint32_t active_count = 0;
  std::uint64_t lookup_count = 0;
  std::uint64_t matched_count = 0;
  bool operator==(const TableStatsEntry&) const = default;
};

struct TableStatsReply {
  static constexpr MsgType kType = MsgType::kStatsReply;
  static constexpr StatsType kStats = StatsType::kTable;
  std::vector<TableStatsEntry> entries;
  bool operator==(const TableStatsReply&) const = default;
};

struct GetConfigRequest {
  static constexpr MsgType kType = MsgType::kGetConfigRequest;
  bool operator==(const GetConfigRequest&) const = default;
};

struct GetConfigReply {
  static constexpr MsgType kType = MsgType::kGetConfigReply;
  std::uint16_t flags = 0;
  std::uint16_t miss_send_len = 128;
  bool operator==(const GetConfigReply&) const = default;
};

struct SetConfig {
  static constexpr MsgType kType = MsgType::kSetConfig;
  std::uint16_t flags = 0;
  std::uint16_t miss_send_len = 128;
  bool operator==(const SetConfig&) const = default;
};

enum class PortReason : std::uint8_t { kAdd = 0, kDelete = 1, kModify = 2 };

struct PortStatus {
  static constexpr MsgType kType = MsgType::kPortStatus;
  PortReason reason = PortReason::kModify;
  PhyPort port;
  bool operator==(const PortStatus&) const = default;
};

// ofp_port_config bits (subset).
inline constexpr std::uint32_t kPortConfigDown = 1u << 0;
inline constexpr std::uint32_t kPortConfigNoFlood = 1u << 4;
// ofp_port_state bits.
inline constexpr std::uint32_t kPortStateLinkDown = 1u << 0;

struct PortMod {
  static constexpr MsgType kType = MsgType::kPortMod;
  std::uint16_t port_no = 0;
  MacAddr hw_addr{};
  std::uint32_t config = 0;
  std::uint32_t mask = 0;
  std::uint32_t advertise = 0;
  bool operator==(const PortMod&) const = default;
};

struct Vendor {
  static constexpr MsgType kType = MsgType::kVendor;
  std::uint32_t vendor_id = 0;
  std::vector<std::uint8_t> data;
  bool operator==(const Vendor&) const = default;
};

struct AggregateStatsRequest {
  static constexpr MsgType kType = MsgType::kStatsRequest;
  static constexpr StatsType kStats = StatsType::kAggregate;
  Match match;
  std::uint8_t table_id = 0xff;
  std::uint16_t out_port = kPortNone;
  bool operator==(const AggregateStatsRequest&) const = default;
};

struct AggregateStatsReply {
  static constexpr MsgType kType = MsgType::kStatsReply;
  static constexpr StatsType kStats = StatsType::kAggregate;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::uint32_t flow_count = 0;
  bool operator==(const AggregateStatsReply&) const = default;
};

struct DescStatsRequest {
  static constexpr MsgType kType = MsgType::kStatsRequest;
  static constexpr StatsType kStats = StatsType::kDesc;
  bool operator==(const DescStatsRequest&) const = default;
};

struct DescStatsReply {
  static constexpr MsgType kType = MsgType::kStatsReply;
  static constexpr StatsType kStats = StatsType::kDesc;
  std::string mfr_desc;     // up to 255 chars on the wire
  std::string hw_desc;      // up to 255
  std::string sw_desc;      // up to 255
  std::string serial_num;   // up to 31
  std::string dp_desc;      // up to 255
  bool operator==(const DescStatsReply&) const = default;
};

struct PortStatsRequest {
  static constexpr MsgType kType = MsgType::kStatsRequest;
  static constexpr StatsType kStats = StatsType::kPort;
  std::uint16_t port_no = kPortNone;  // kPortNone = all ports
  bool operator==(const PortStatsRequest&) const = default;
};

struct PortStatsEntry {
  std::uint16_t port_no = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_dropped = 0;
  std::uint64_t rx_errors = 0;
  std::uint64_t tx_errors = 0;
  bool operator==(const PortStatsEntry&) const = default;
};

struct PortStatsReply {
  static constexpr MsgType kType = MsgType::kStatsReply;
  static constexpr StatsType kStats = StatsType::kPort;
  std::vector<PortStatsEntry> entries;
  bool operator==(const PortStatsReply&) const = default;
};

using MessageBody =
    std::variant<Hello, EchoRequest, EchoReply, ErrorMsg, FeaturesRequest,
                 FeaturesReply, FlowMod, FlowRemoved, PacketIn, PacketOut,
                 BarrierRequest, BarrierReply, FlowStatsRequest, FlowStatsReply,
                 TableStatsRequest, TableStatsReply, GetConfigRequest,
                 GetConfigReply, SetConfig, PortStatus, PortMod, Vendor,
                 AggregateStatsRequest, AggregateStatsReply, DescStatsRequest,
                 DescStatsReply, PortStatsRequest, PortStatsReply>;

struct Message {
  std::uint32_t xid = 0;
  MessageBody body;
};

MsgType type_of(const MessageBody& body);
std::string type_name(MsgType type);

}  // namespace tango::of
