#include "openflow/codec.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/buffer.h"

namespace tango::of {

namespace {

// ---------------------------------------------------------------------------
// Match (ofp_match, 40 bytes)
// ---------------------------------------------------------------------------

void encode_match(BufWriter& w, const Match& m) {
  w.u32(m.wildcards);
  w.u16(m.in_port);
  w.raw(m.dl_src);
  w.raw(m.dl_dst);
  w.u16(m.dl_vlan);
  w.u8(m.dl_vlan_pcp);
  w.zeros(1);
  w.u16(m.dl_type);
  w.u8(m.nw_tos);
  w.u8(m.nw_proto);
  w.zeros(2);
  w.u32(m.nw_src);
  w.u32(m.nw_dst);
  w.u16(m.tp_src);
  w.u16(m.tp_dst);
}

Match decode_match(BufReader& r) {
  Match m;
  m.wildcards = r.u32();
  m.in_port = r.u16();
  auto src = r.raw(6);
  auto dst = r.raw(6);
  if (src.size() == 6) std::copy(src.begin(), src.end(), m.dl_src.begin());
  if (dst.size() == 6) std::copy(dst.begin(), dst.end(), m.dl_dst.begin());
  m.dl_vlan = r.u16();
  m.dl_vlan_pcp = r.u8();
  r.skip(1);
  m.dl_type = r.u16();
  m.nw_tos = r.u8();
  m.nw_proto = r.u8();
  r.skip(2);
  m.nw_src = r.u32();
  m.nw_dst = r.u32();
  m.tp_src = r.u16();
  m.tp_dst = r.u16();
  return m;
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

struct ActionSizeVisitor {
  std::size_t operator()(const ActionOutput&) const { return 8; }
  std::size_t operator()(const ActionSetVlanVid&) const { return 8; }
  std::size_t operator()(const ActionStripVlan&) const { return 8; }
  std::size_t operator()(const ActionSetDlSrc&) const { return 16; }
  std::size_t operator()(const ActionSetDlDst&) const { return 16; }
  std::size_t operator()(const ActionSetNwSrc&) const { return 8; }
  std::size_t operator()(const ActionSetNwDst&) const { return 8; }
};

struct ActionEncodeVisitor {
  BufWriter& w;
  void header(ActionType t, std::size_t len) const {
    w.u16(static_cast<std::uint16_t>(t));
    w.u16(static_cast<std::uint16_t>(len));
  }
  void operator()(const ActionOutput& a) const {
    header(ActionType::kOutput, 8);
    w.u16(a.port);
    w.u16(a.max_len);
  }
  void operator()(const ActionSetVlanVid& a) const {
    header(ActionType::kSetVlanVid, 8);
    w.u16(a.vlan_vid);
    w.zeros(2);
  }
  void operator()(const ActionStripVlan&) const {
    header(ActionType::kStripVlan, 8);
    w.zeros(4);
  }
  void operator()(const ActionSetDlSrc& a) const {
    header(ActionType::kSetDlSrc, 16);
    w.raw(a.addr);
    w.zeros(6);
  }
  void operator()(const ActionSetDlDst& a) const {
    header(ActionType::kSetDlDst, 16);
    w.raw(a.addr);
    w.zeros(6);
  }
  void operator()(const ActionSetNwSrc& a) const {
    header(ActionType::kSetNwSrc, 8);
    w.u32(a.addr);
  }
  void operator()(const ActionSetNwDst& a) const {
    header(ActionType::kSetNwDst, 8);
    w.u32(a.addr);
  }
};

void encode_actions(BufWriter& w, const ActionList& actions) {
  for (const auto& a : actions) std::visit(ActionEncodeVisitor{w}, a);
}

Result<ActionList> decode_actions(BufReader& r, std::size_t bytes) {
  ActionList out;
  const std::size_t end = r.position() + bytes;
  while (r.position() + 4 <= end) {
    const auto type = r.u16();
    const auto len = r.u16();
    if (len < 8 || r.position() - 4 + len > end) {
      return Error{"action length out of bounds"};
    }
    switch (static_cast<ActionType>(type)) {
      case ActionType::kOutput: {
        ActionOutput a;
        a.port = r.u16();
        a.max_len = r.u16();
        out.emplace_back(a);
        break;
      }
      case ActionType::kSetVlanVid: {
        ActionSetVlanVid a;
        a.vlan_vid = r.u16();
        r.skip(2);
        out.emplace_back(a);
        break;
      }
      case ActionType::kStripVlan: {
        r.skip(4);
        out.emplace_back(ActionStripVlan{});
        break;
      }
      case ActionType::kSetDlSrc: {
        ActionSetDlSrc a;
        auto bytes6 = r.raw(6);
        if (bytes6.size() == 6) std::copy(bytes6.begin(), bytes6.end(), a.addr.begin());
        r.skip(6);
        out.emplace_back(a);
        break;
      }
      case ActionType::kSetDlDst: {
        ActionSetDlDst a;
        auto bytes6 = r.raw(6);
        if (bytes6.size() == 6) std::copy(bytes6.begin(), bytes6.end(), a.addr.begin());
        r.skip(6);
        out.emplace_back(a);
        break;
      }
      case ActionType::kSetNwSrc: {
        ActionSetNwSrc a;
        a.addr = r.u32();
        out.emplace_back(a);
        break;
      }
      case ActionType::kSetNwDst: {
        ActionSetNwDst a;
        a.addr = r.u32();
        out.emplace_back(a);
        break;
      }
      default:
        return Error{"unknown action type " + std::to_string(type)};
    }
    if (r.failed()) return Error{"truncated action"};
  }
  if (r.position() != end) return Error{"trailing bytes inside action list"};
  return out;
}

std::size_t actions_wire_size(const ActionList& actions) {
  std::size_t n = 0;
  for (const auto& a : actions) n += std::visit(ActionSizeVisitor{}, a);
  return n;
}

// ---------------------------------------------------------------------------
// Fixed-width string fields (port / table names)
// ---------------------------------------------------------------------------

void encode_name(BufWriter& w, const std::string& name, std::size_t width) {
  std::size_t n = std::min(name.size(), width - 1);
  w.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(name.data()), n));
  w.zeros(width - n);
}

std::string decode_name(BufReader& r, std::size_t width) {
  auto bytes = r.raw(width);
  std::size_t n = 0;
  while (n < bytes.size() && bytes[n] != 0) ++n;
  return std::string(reinterpret_cast<const char*>(bytes.data()), n);
}

// ---------------------------------------------------------------------------
// Physical ports (ofp_phy_port, 48 bytes)
// ---------------------------------------------------------------------------

void encode_phy_port(BufWriter& w, const PhyPort& p) {
  w.u16(p.port_no);
  w.raw(p.hw_addr);
  encode_name(w, p.name, 16);
  w.u32(p.config);
  w.u32(p.state);
  w.u32(p.curr);
  w.u32(p.advertised);
  w.u32(p.supported);
  w.u32(p.peer);
}

PhyPort decode_phy_port(BufReader& r) {
  PhyPort p;
  p.port_no = r.u16();
  auto mac = r.raw(6);
  if (mac.size() == 6) std::copy(mac.begin(), mac.end(), p.hw_addr.begin());
  p.name = decode_name(r, 16);
  p.config = r.u32();
  p.state = r.u32();
  p.curr = r.u32();
  p.advertised = r.u32();
  p.supported = r.u32();
  p.peer = r.u32();
  return p;
}

// ---------------------------------------------------------------------------
// Message body encoders
// ---------------------------------------------------------------------------

struct BodyEncodeVisitor {
  BufWriter& w;

  void operator()(const Hello&) const {}
  void operator()(const EchoRequest& m) const { w.raw(m.payload); }
  void operator()(const EchoReply& m) const { w.raw(m.payload); }
  void operator()(const ErrorMsg& m) const {
    w.u16(static_cast<std::uint16_t>(m.type));
    w.u16(m.code);
    w.raw(m.data);
  }
  void operator()(const FeaturesRequest&) const {}
  void operator()(const FeaturesReply& m) const {
    w.u64(m.datapath_id);
    w.u32(m.n_buffers);
    w.u8(m.n_tables);
    w.zeros(3);
    w.u32(m.capabilities);
    w.u32(m.actions);
    for (const auto& p : m.ports) encode_phy_port(w, p);
  }
  void operator()(const FlowMod& m) const {
    encode_match(w, m.match);
    w.u64(m.cookie);
    w.u16(static_cast<std::uint16_t>(m.command));
    w.u16(m.idle_timeout);
    w.u16(m.hard_timeout);
    w.u16(m.priority);
    w.u32(m.buffer_id);
    w.u16(m.out_port);
    w.u16(m.flags);
    encode_actions(w, m.actions);
  }
  void operator()(const FlowRemoved& m) const {
    encode_match(w, m.match);
    w.u64(m.cookie);
    w.u16(m.priority);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.zeros(1);
    w.u32(m.duration_sec);
    w.u32(m.duration_nsec);
    w.u16(m.idle_timeout);
    w.zeros(2);
    w.u64(m.packet_count);
    w.u64(m.byte_count);
  }
  void operator()(const PacketIn& m) const {
    w.u32(m.buffer_id);
    w.u16(m.total_len);
    w.u16(m.in_port);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.zeros(1);
    w.raw(m.data);
  }
  void operator()(const PacketOut& m) const {
    w.u32(m.buffer_id);
    w.u16(m.in_port);
    w.u16(static_cast<std::uint16_t>(actions_wire_size(m.actions)));
    encode_actions(w, m.actions);
    w.raw(m.data);
  }
  void operator()(const BarrierRequest&) const {}
  void operator()(const BarrierReply&) const {}
  void operator()(const FlowStatsRequest& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kFlow));
    w.u16(0);  // flags
    encode_match(w, m.match);
    w.u8(m.table_id);
    w.zeros(1);
    w.u16(m.out_port);
  }
  void operator()(const FlowStatsReply& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kFlow));
    w.u16(m.flags);
    for (const auto& e : m.entries) {
      w.u16(static_cast<std::uint16_t>(88 + actions_wire_size(e.actions)));
      w.u8(e.table_id);
      w.zeros(1);
      encode_match(w, e.match);
      w.u32(e.duration_sec);
      w.u32(e.duration_nsec);
      w.u16(e.priority);
      w.u16(e.idle_timeout);
      w.u16(e.hard_timeout);
      w.zeros(6);
      w.u64(e.cookie);
      w.u64(e.packet_count);
      w.u64(e.byte_count);
      encode_actions(w, e.actions);
    }
  }
  void operator()(const GetConfigRequest&) const {}
  void operator()(const GetConfigReply& m) const {
    w.u16(m.flags);
    w.u16(m.miss_send_len);
  }
  void operator()(const SetConfig& m) const {
    w.u16(m.flags);
    w.u16(m.miss_send_len);
  }
  void operator()(const PortStatus& m) const {
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.zeros(7);
    encode_phy_port(w, m.port);
  }
  void operator()(const PortMod& m) const {
    w.u16(m.port_no);
    w.raw(m.hw_addr);
    w.u32(m.config);
    w.u32(m.mask);
    w.u32(m.advertise);
    w.zeros(4);
  }
  void operator()(const Vendor& m) const {
    w.u32(m.vendor_id);
    w.raw(m.data);
  }
  void operator()(const AggregateStatsRequest& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kAggregate));
    w.u16(0);
    encode_match(w, m.match);
    w.u8(m.table_id);
    w.zeros(1);
    w.u16(m.out_port);
  }
  void operator()(const AggregateStatsReply& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kAggregate));
    w.u16(0);
    w.u64(m.packet_count);
    w.u64(m.byte_count);
    w.u32(m.flow_count);
    w.zeros(4);
  }
  void operator()(const DescStatsRequest&) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kDesc));
    w.u16(0);
  }
  void operator()(const DescStatsReply& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kDesc));
    w.u16(0);
    encode_name(w, m.mfr_desc, 256);
    encode_name(w, m.hw_desc, 256);
    encode_name(w, m.sw_desc, 256);
    encode_name(w, m.serial_num, 32);
    encode_name(w, m.dp_desc, 256);
  }
  void operator()(const PortStatsRequest& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kPort));
    w.u16(0);
    w.u16(m.port_no);
    w.zeros(6);
  }
  void operator()(const PortStatsReply& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kPort));
    w.u16(0);
    for (const auto& e : m.entries) {
      w.u16(e.port_no);
      w.zeros(6);
      w.u64(e.rx_packets);
      w.u64(e.tx_packets);
      w.u64(e.rx_bytes);
      w.u64(e.tx_bytes);
      w.u64(e.rx_dropped);
      w.u64(e.tx_dropped);
      w.u64(e.rx_errors);
      w.u64(e.tx_errors);
    }
  }
  void operator()(const TableStatsRequest&) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kTable));
    w.u16(0);
  }
  void operator()(const TableStatsReply& m) const {
    w.u16(static_cast<std::uint16_t>(StatsType::kTable));
    w.u16(0);
    for (const auto& e : m.entries) {
      w.u8(e.table_id);
      w.zeros(3);
      encode_name(w, e.name, 32);
      w.u32(e.wildcards);
      w.u32(e.max_entries);
      w.u32(e.active_count);
      w.u64(e.lookup_count);
      w.u64(e.matched_count);
    }
  }
};

// Body byte counts mirroring BodyEncodeVisitor field for field; the codec
// test pins wire_size(msg) == encode(msg).size() for every message type so
// the two visitors cannot drift apart.
struct BodySizeVisitor {
  std::size_t operator()(const Hello&) const { return 0; }
  std::size_t operator()(const EchoRequest& m) const { return m.payload.size(); }
  std::size_t operator()(const EchoReply& m) const { return m.payload.size(); }
  std::size_t operator()(const ErrorMsg& m) const { return 4 + m.data.size(); }
  std::size_t operator()(const FeaturesRequest&) const { return 0; }
  std::size_t operator()(const FeaturesReply& m) const {
    return 24 + 48 * m.ports.size();
  }
  std::size_t operator()(const FlowMod& m) const {
    return 64 + actions_wire_size(m.actions);
  }
  std::size_t operator()(const FlowRemoved&) const { return 80; }
  std::size_t operator()(const PacketIn& m) const { return 10 + m.data.size(); }
  std::size_t operator()(const PacketOut& m) const {
    return 8 + actions_wire_size(m.actions) + m.data.size();
  }
  std::size_t operator()(const BarrierRequest&) const { return 0; }
  std::size_t operator()(const BarrierReply&) const { return 0; }
  std::size_t operator()(const FlowStatsRequest&) const { return 48; }
  std::size_t operator()(const FlowStatsReply& m) const {
    std::size_t n = 4;
    for (const auto& e : m.entries) n += 88 + actions_wire_size(e.actions);
    return n;
  }
  std::size_t operator()(const GetConfigRequest&) const { return 0; }
  std::size_t operator()(const GetConfigReply&) const { return 4; }
  std::size_t operator()(const SetConfig&) const { return 4; }
  std::size_t operator()(const PortStatus&) const { return 56; }
  std::size_t operator()(const PortMod&) const { return 24; }
  std::size_t operator()(const Vendor& m) const { return 4 + m.data.size(); }
  std::size_t operator()(const AggregateStatsRequest&) const { return 48; }
  std::size_t operator()(const AggregateStatsReply&) const { return 28; }
  std::size_t operator()(const DescStatsRequest&) const { return 4; }
  std::size_t operator()(const DescStatsReply&) const { return 4 + 1056; }
  std::size_t operator()(const PortStatsRequest&) const { return 12; }
  std::size_t operator()(const PortStatsReply& m) const {
    return 4 + 72 * m.entries.size();
  }
  std::size_t operator()(const TableStatsRequest&) const { return 4; }
  std::size_t operator()(const TableStatsReply& m) const {
    return 4 + 64 * m.entries.size();
  }
};

// ---------------------------------------------------------------------------
// Message body decoders
// ---------------------------------------------------------------------------

Result<MessageBody> decode_body(MsgType type, BufReader& r, std::size_t body_len) {
  switch (type) {
    case MsgType::kHello:
      r.skip(body_len);
      return MessageBody{Hello{}};
    case MsgType::kEchoRequest: {
      EchoRequest m;
      auto bytes = r.raw(body_len);
      m.payload.assign(bytes.begin(), bytes.end());
      return MessageBody{m};
    }
    case MsgType::kEchoReply: {
      EchoReply m;
      auto bytes = r.raw(body_len);
      m.payload.assign(bytes.begin(), bytes.end());
      return MessageBody{m};
    }
    case MsgType::kError: {
      if (body_len < 4) return Error{"error body too short"};
      ErrorMsg m;
      m.type = static_cast<ErrorType>(r.u16());
      m.code = r.u16();
      auto bytes = r.raw(body_len - 4);
      m.data.assign(bytes.begin(), bytes.end());
      return MessageBody{m};
    }
    case MsgType::kFeaturesRequest:
      return MessageBody{FeaturesRequest{}};
    case MsgType::kFeaturesReply: {
      if (body_len < 24) return Error{"features_reply body too short"};
      FeaturesReply m;
      m.datapath_id = r.u64();
      m.n_buffers = r.u32();
      m.n_tables = r.u8();
      r.skip(3);
      m.capabilities = r.u32();
      m.actions = r.u32();
      std::size_t rest = body_len - 24;
      if (rest % 48 != 0) return Error{"features_reply ports misaligned"};
      for (std::size_t i = 0; i < rest / 48; ++i) {
        m.ports.push_back(decode_phy_port(r));
      }
      return MessageBody{m};
    }
    case MsgType::kGetConfigRequest:
      return MessageBody{GetConfigRequest{}};
    case MsgType::kGetConfigReply: {
      if (body_len < 4) return Error{"get_config_reply too short"};
      GetConfigReply m;
      m.flags = r.u16();
      m.miss_send_len = r.u16();
      return MessageBody{m};
    }
    case MsgType::kSetConfig: {
      if (body_len < 4) return Error{"set_config too short"};
      SetConfig m;
      m.flags = r.u16();
      m.miss_send_len = r.u16();
      return MessageBody{m};
    }
    case MsgType::kPortStatus: {
      if (body_len < 56) return Error{"port_status too short"};
      PortStatus m;
      m.reason = static_cast<PortReason>(r.u8());
      r.skip(7);
      m.port = decode_phy_port(r);
      return MessageBody{m};
    }
    case MsgType::kPortMod: {
      if (body_len < 24) return Error{"port_mod too short"};
      PortMod m;
      m.port_no = r.u16();
      auto mac = r.raw(6);
      if (mac.size() == 6) std::copy(mac.begin(), mac.end(), m.hw_addr.begin());
      m.config = r.u32();
      m.mask = r.u32();
      m.advertise = r.u32();
      r.skip(4);
      return MessageBody{m};
    }
    case MsgType::kVendor: {
      if (body_len < 4) return Error{"vendor too short"};
      Vendor m;
      m.vendor_id = r.u32();
      auto bytes = r.raw(body_len - 4);
      m.data.assign(bytes.begin(), bytes.end());
      return MessageBody{m};
    }
    case MsgType::kFlowMod: {
      if (body_len < 64) return Error{"flow_mod body too short"};
      FlowMod m;
      m.match = decode_match(r);
      m.cookie = r.u64();
      m.command = static_cast<FlowModCommand>(r.u16());
      m.idle_timeout = r.u16();
      m.hard_timeout = r.u16();
      m.priority = r.u16();
      m.buffer_id = r.u32();
      m.out_port = r.u16();
      m.flags = r.u16();
      auto actions = decode_actions(r, body_len - 64);
      if (!actions) return Error{actions.error()};
      m.actions = std::move(actions.value());
      return MessageBody{m};
    }
    case MsgType::kFlowRemoved: {
      if (body_len < 72) return Error{"flow_removed body too short"};
      FlowRemoved m;
      m.match = decode_match(r);
      m.cookie = r.u64();
      m.priority = r.u16();
      m.reason = static_cast<FlowRemovedReason>(r.u8());
      r.skip(1);
      m.duration_sec = r.u32();
      m.duration_nsec = r.u32();
      m.idle_timeout = r.u16();
      r.skip(2);
      m.packet_count = r.u64();
      m.byte_count = r.u64();
      return MessageBody{m};
    }
    case MsgType::kPacketIn: {
      if (body_len < 10) return Error{"packet_in body too short"};
      PacketIn m;
      m.buffer_id = r.u32();
      m.total_len = r.u16();
      m.in_port = r.u16();
      m.reason = static_cast<PacketInReason>(r.u8());
      r.skip(1);
      auto bytes = r.raw(body_len - 10);
      m.data.assign(bytes.begin(), bytes.end());
      return MessageBody{m};
    }
    case MsgType::kPacketOut: {
      if (body_len < 8) return Error{"packet_out body too short"};
      PacketOut m;
      m.buffer_id = r.u32();
      m.in_port = r.u16();
      const std::size_t actions_len = r.u16();
      if (actions_len > body_len - 8) return Error{"packet_out actions overflow"};
      auto actions = decode_actions(r, actions_len);
      if (!actions) return Error{actions.error()};
      m.actions = std::move(actions.value());
      auto bytes = r.raw(body_len - 8 - actions_len);
      m.data.assign(bytes.begin(), bytes.end());
      return MessageBody{m};
    }
    case MsgType::kBarrierRequest:
      return MessageBody{BarrierRequest{}};
    case MsgType::kBarrierReply:
      return MessageBody{BarrierReply{}};
    case MsgType::kStatsRequest: {
      if (body_len < 4) return Error{"stats_request body too short"};
      const auto stats_type = static_cast<StatsType>(r.u16());
      r.skip(2);  // flags
      if (stats_type == StatsType::kFlow) {
        if (body_len < 4 + 44) return Error{"flow_stats_request too short"};
        FlowStatsRequest m;
        m.match = decode_match(r);
        m.table_id = r.u8();
        r.skip(1);
        m.out_port = r.u16();
        return MessageBody{m};
      }
      if (stats_type == StatsType::kTable) return MessageBody{TableStatsRequest{}};
      if (stats_type == StatsType::kDesc) return MessageBody{DescStatsRequest{}};
      if (stats_type == StatsType::kAggregate) {
        if (body_len < 4 + 44) return Error{"aggregate_stats_request too short"};
        AggregateStatsRequest m;
        m.match = decode_match(r);
        m.table_id = r.u8();
        r.skip(1);
        m.out_port = r.u16();
        return MessageBody{m};
      }
      if (stats_type == StatsType::kPort) {
        if (body_len < 4 + 8) return Error{"port_stats_request too short"};
        PortStatsRequest m;
        m.port_no = r.u16();
        r.skip(6);
        return MessageBody{m};
      }
      return Error{"unsupported stats_request type"};
    }
    case MsgType::kStatsReply: {
      if (body_len < 4) return Error{"stats_reply body too short"};
      const auto stats_type = static_cast<StatsType>(r.u16());
      const std::uint16_t flags = r.u16();
      std::size_t rest = body_len - 4;
      if (stats_type == StatsType::kFlow) {
        FlowStatsReply m;
        m.flags = flags;
        while (rest > 0) {
          if (rest < 88) return Error{"flow_stats entry too short"};
          const std::size_t entry_len = r.u16();
          if (entry_len < 88 || entry_len > rest) return Error{"flow_stats entry length"};
          FlowStatsEntry e;
          e.table_id = r.u8();
          r.skip(1);
          e.match = decode_match(r);
          e.duration_sec = r.u32();
          e.duration_nsec = r.u32();
          e.priority = r.u16();
          e.idle_timeout = r.u16();
          e.hard_timeout = r.u16();
          r.skip(6);
          e.cookie = r.u64();
          e.packet_count = r.u64();
          e.byte_count = r.u64();
          auto actions = decode_actions(r, entry_len - 88);
          if (!actions) return Error{actions.error()};
          e.actions = std::move(actions.value());
          m.entries.push_back(std::move(e));
          rest -= entry_len;
        }
        return MessageBody{m};
      }
      if (stats_type == StatsType::kAggregate) {
        if (rest < 24) return Error{"aggregate_stats_reply too short"};
        AggregateStatsReply m;
        m.packet_count = r.u64();
        m.byte_count = r.u64();
        m.flow_count = r.u32();
        r.skip(4);
        return MessageBody{m};
      }
      if (stats_type == StatsType::kDesc) {
        if (rest < 256 * 4 + 32) return Error{"desc_stats_reply too short"};
        DescStatsReply m;
        m.mfr_desc = decode_name(r, 256);
        m.hw_desc = decode_name(r, 256);
        m.sw_desc = decode_name(r, 256);
        m.serial_num = decode_name(r, 32);
        m.dp_desc = decode_name(r, 256);
        return MessageBody{m};
      }
      if (stats_type == StatsType::kPort) {
        if (rest % 72 != 0) return Error{"port_stats entries misaligned"};
        PortStatsReply m;
        for (std::size_t i = 0; i < rest / 72; ++i) {
          PortStatsEntry e;
          e.port_no = r.u16();
          r.skip(6);
          e.rx_packets = r.u64();
          e.tx_packets = r.u64();
          e.rx_bytes = r.u64();
          e.tx_bytes = r.u64();
          e.rx_dropped = r.u64();
          e.tx_dropped = r.u64();
          e.rx_errors = r.u64();
          e.tx_errors = r.u64();
          m.entries.push_back(e);
        }
        return MessageBody{m};
      }
      if (stats_type == StatsType::kTable) {
        TableStatsReply m;
        if (rest % 64 != 0) return Error{"table_stats entries misaligned"};
        for (std::size_t i = 0; i < rest / 64; ++i) {
          TableStatsEntry e;
          e.table_id = r.u8();
          r.skip(3);
          e.name = decode_name(r, 32);
          e.wildcards = r.u32();
          e.max_entries = r.u32();
          e.active_count = r.u32();
          e.lookup_count = r.u64();
          e.matched_count = r.u64();
          m.entries.push_back(std::move(e));
        }
        return MessageBody{m};
      }
      return Error{"unsupported stats_reply type"};
    }
    default:
      return Error{"unsupported message type " +
                   std::to_string(static_cast<int>(type))};
  }
}

}  // namespace

std::size_t wire_size(const Action& action) {
  return std::visit(ActionSizeVisitor{}, action);
}

std::vector<std::uint8_t> encode_match_bytes(const Match& match) {
  BufWriter w;
  encode_match(w, match);
  return w.take();
}

Result<Match> decode_match_bytes(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != 40) return Error{"ofp_match must be 40 bytes"};
  BufReader r(bytes);
  Match m = decode_match(r);
  if (r.failed()) return Error{"truncated match"};
  return m;
}

void encode_into(const Message& msg, std::vector<std::uint8_t>& out) {
  BufWriter w(out);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type_of(msg.body)));
  w.u16(0);  // length: patched below
  w.u32(msg.xid);
  std::visit(BodyEncodeVisitor{w}, msg.body);
  if (w.size() > kMaxFrameLen) {
    throw std::length_error("openflow frame of " + std::to_string(w.size()) +
                            " bytes overflows the 16-bit length field");
  }
  w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
}

std::vector<std::uint8_t> encode(const Message& msg) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(msg));
  encode_into(msg, out);
  return out;
}

std::size_t encode_batch(std::span<const Message> msgs,
                         std::vector<std::uint8_t>& out) {
  const std::size_t before = out.size();
  std::size_t total = 0;
  for (const auto& m : msgs) total += wire_size(m);
  out.reserve(before + total);
  for (const auto& m : msgs) encode_into(m, out);
  return out.size() - before;
}

std::vector<FlowStatsReply> split_flow_stats(FlowStatsReply reply) {
  constexpr std::size_t kPartOverhead = kHeaderLen + 4;
  std::vector<FlowStatsReply> parts(1);
  std::size_t size = kPartOverhead;
  for (auto& e : reply.entries) {
    const std::size_t len = 88 + actions_wire_size(e.actions);
    if (size + len > kMaxFrameLen) {
      parts.back().flags = kStatsReplyMore;
      parts.emplace_back();
      size = kPartOverhead;
    }
    parts.back().entries.push_back(std::move(e));
    size += len;
  }
  return parts;
}

std::size_t wire_size(const Message& msg) {
  return kHeaderLen + std::visit(BodySizeVisitor{}, msg.body);
}

Result<Message> decode(std::span<const std::uint8_t> frame) {
  if (frame.size() < kHeaderLen) return Error{"frame shorter than header"};
  BufReader r(frame);
  const auto version = r.u8();
  const auto type = static_cast<MsgType>(r.u8());
  const std::size_t length = r.u16();
  const auto xid = r.u32();
  if (version != kVersion) return Error{"unsupported OpenFlow version"};
  if (length != frame.size()) return Error{"frame length mismatch"};
  auto body = decode_body(type, r, length - kHeaderLen);
  if (!body) return Error{body.error()};
  if (r.failed()) return Error{"truncated message body"};
  return Message{xid, std::move(body.value())};
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> FrameAssembler::next_frame() {
  if (buffer_.size() < kHeaderLen) return {};
  const std::size_t length = (static_cast<std::size_t>(buffer_[2]) << 8) | buffer_[3];
  if (length < kHeaderLen || buffer_.size() < length) return {};
  std::vector<std::uint8_t> frame(buffer_.begin(),
                                  buffer_.begin() + static_cast<long>(length));
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(length));
  return frame;
}

}  // namespace tango::of
