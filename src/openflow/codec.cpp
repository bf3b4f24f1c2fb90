#include "openflow/codec.h"

#include <stdexcept>
#include <string>

#include "openflow/wire.h"

namespace tango::of {

// ---------------------------------------------------------------------------
// Field walks: the one description of each structure's wire layout. Encode,
// wire_size and decode all run these (see wire.h).
// ---------------------------------------------------------------------------

namespace {

/// ofp_header. encode_into patches the length once the body is written.
struct FrameHeader {
  std::uint8_t version = kVersion;
  MsgType type = MsgType::kHello;
  std::uint16_t length = 0;
  std::uint32_t xid = 0;
};

constexpr std::size_t kLengthOffset = 2;  // of FrameHeader::length

template <class Io>
void walk(Io& io, wire::Like<FrameHeader> auto& h) {
  io(h.version, h.type, h.length, h.xid);
}

/// ofp_action_header: type, then the action's length in bytes, header included.
struct ActionHeader {
  ActionType type = ActionType::kOutput;
  std::uint16_t len = 0;
};

/// ofp_action_header with its padding: no action is shorter.
constexpr std::size_t kMinActionLen = 8;

template <class Io>
void walk(Io& io, wire::Like<ActionHeader> auto& h) {
  io(h.type, h.len);
}

template <class T>
concept StatsBody = requires { T::kStats; };

}  // namespace

// ofp_match (40 bytes).
template <class Io>
void walk(Io& io, wire::Like<Match> auto& m) {
  io(m.wildcards, m.in_port, m.dl_src, m.dl_dst, m.dl_vlan, m.dl_vlan_pcp);
  io.pad(1);
  io(m.dl_type, m.nw_tos, m.nw_proto);
  io.pad(2);
  io(m.nw_src, m.nw_dst, m.tp_src, m.tp_dst);
}

// --- actions (the body after ofp_action_header) ------------------------------

template <class Io>
void walk(Io& io, wire::Like<ActionOutput> auto& a) {
  io(a.port, a.max_len);
}

template <class Io>
void walk(Io& io, wire::Like<ActionSetVlanVid> auto& a) {
  io(a.vlan_vid);
  io.pad(2);
}

template <class Io>
void walk(Io& io, wire::Like<ActionStripVlan> auto&) {
  io.pad(4);
}

template <class Io>
void walk(Io& io, wire::Like<ActionSetDlSrc, ActionSetDlDst> auto& a) {
  io(a.addr);
  io.pad(6);
}

template <class Io>
void walk(Io& io, wire::Like<ActionSetNwSrc, ActionSetNwDst> auto& a) {
  io(a.addr);
}

// An action: its header, then the alternative's own fields. Decoding checks
// the header length against the list but advances by the alternative's
// layout, not by that length.
template <class Io>
void walk(Io& io, wire::Like<Action> auto& action) {
  if constexpr (Io::kReads) {
    ActionHeader h;
    walk(io, h);
    if (h.len < kMinActionLen || h.len > wire::size_of(h) + io.remaining()) {
      return io.fail();
    }
    const bool known = wire::emplace_where(
        action, [&](auto alt) { return decltype(alt)::type::kType == h.type; });
    if (!known) return io.fail();
    std::visit([&](auto& a) { walk(io, a); }, action);
  } else {
    std::visit(
        [&](const auto& a) {
          ActionHeader h{a.kType, 0};
          h.len = static_cast<std::uint16_t>(wire::size_of(h) + wire::size_of(a));
          walk(io, h);
          walk(io, a);
        },
        action);
  }
}

// --- structures nested in message bodies -------------------------------------

// ofp_phy_port (48 bytes).
template <class Io>
void walk(Io& io, wire::Like<PhyPort> auto& p) {
  io(p.port_no, p.hw_addr);
  io.text(p.name, 16);
  io(p.config, p.state, p.curr, p.advertised, p.supported, p.peer);
}

// ofp_flow_stats: its u16 length counts the whole entry, the length included.
template <class Io>
void walk(Io& io, wire::Like<FlowStatsEntry> auto& e) {
  io.sized(2, [&](auto& in) {
    in(e.table_id);
    in.pad(1);
    walk(in, e.match);
    in(e.duration_sec, e.duration_nsec, e.priority, e.idle_timeout, e.hard_timeout);
    in.pad(6);
    in(e.cookie, e.packet_count, e.byte_count);
    in.list(e.actions);
  });
}

// ofp_table_stats (64 bytes).
template <class Io>
void walk(Io& io, wire::Like<TableStatsEntry> auto& e) {
  io(e.table_id);
  io.pad(3);
  io.text(e.name, 32);
  io(e.wildcards, e.max_entries, e.active_count, e.lookup_count, e.matched_count);
}

// ofp_port_stats (72 bytes).
template <class Io>
void walk(Io& io, wire::Like<PortStatsEntry> auto& e) {
  io(e.port_no);
  io.pad(6);
  io(e.rx_packets, e.tx_packets, e.rx_bytes, e.tx_bytes);
  io(e.rx_dropped, e.tx_dropped, e.rx_errors, e.tx_errors);
}

// --- message bodies (after ofp_header; stats bodies after the stats type) ----

// Hello's body is skipped on decode, like every fixed body's trailing bytes.
template <class Io>
void walk(Io&, wire::Like<Hello, FeaturesRequest, GetConfigRequest, BarrierRequest,
                         BarrierReply> auto&) {}

template <class Io>
void walk(Io& io, wire::Like<EchoRequest, EchoReply> auto& m) {
  io.bytes(m.payload);
}

template <class Io>
void walk(Io& io, wire::Like<ErrorMsg> auto& m) {
  io(m.type, m.code);
  io.bytes(m.data);
}

template <class Io>
void walk(Io& io, wire::Like<FeaturesReply> auto& m) {
  io(m.datapath_id, m.n_buffers, m.n_tables);
  io.pad(3);
  io(m.capabilities, m.actions);
  io.list(m.ports);
}

template <class Io>
void walk(Io& io, wire::Like<FlowMod> auto& m) {
  walk(io, m.match);
  io(m.cookie, m.command, m.idle_timeout, m.hard_timeout, m.priority);
  io(m.buffer_id, m.out_port, m.flags);
  io.list(m.actions);
}

template <class Io>
void walk(Io& io, wire::Like<FlowRemoved> auto& m) {
  walk(io, m.match);
  io(m.cookie, m.priority, m.reason);
  io.pad(1);
  io(m.duration_sec, m.duration_nsec, m.idle_timeout);
  io.pad(2);
  io(m.packet_count, m.byte_count);
}

template <class Io>
void walk(Io& io, wire::Like<PacketIn> auto& m) {
  io(m.buffer_id, m.total_len, m.in_port, m.reason);
  io.pad(1);
  io.bytes(m.data);
}

// actions_len counts the action list only.
template <class Io>
void walk(Io& io, wire::Like<PacketOut> auto& m) {
  io(m.buffer_id, m.in_port);
  io.sized(0, [&](auto& in) { in.list(m.actions); });
  io.bytes(m.data);
}

template <class Io>
void walk(Io& io, wire::Like<GetConfigReply, SetConfig> auto& m) {
  io(m.flags, m.miss_send_len);
}

template <class Io>
void walk(Io& io, wire::Like<PortStatus> auto& m) {
  io(m.reason);
  io.pad(7);
  walk(io, m.port);
}

template <class Io>
void walk(Io& io, wire::Like<PortMod> auto& m) {
  io(m.port_no, m.hw_addr, m.config, m.mask, m.advertise);
  io.pad(4);
}

template <class Io>
void walk(Io& io, wire::Like<Vendor> auto& m) {
  io(m.vendor_id);
  io.bytes(m.data);
}

// Stats bodies open with the u16 flags of ofp_stats_request/reply, which
// only FlowStatsReply keeps (requests send 0; decode ignores them).
template <class Io>
void walk(Io& io, wire::Like<FlowStatsRequest, AggregateStatsRequest> auto& m) {
  io.pad(2);
  walk(io, m.match);
  io(m.table_id);
  io.pad(1);
  io(m.out_port);
}

template <class Io>
void walk(Io& io, wire::Like<FlowStatsReply> auto& m) {
  io(m.flags);
  io.list(m.entries);
}

template <class Io>
void walk(Io& io, wire::Like<TableStatsRequest, DescStatsRequest> auto&) {
  io.pad(2);
}

template <class Io>
void walk(Io& io, wire::Like<TableStatsReply, PortStatsReply> auto& m) {
  io.pad(2);
  io.list(m.entries);
}

template <class Io>
void walk(Io& io, wire::Like<AggregateStatsReply> auto& m) {
  io.pad(2);
  io(m.packet_count, m.byte_count, m.flow_count);
  io.pad(4);
}

template <class Io>
void walk(Io& io, wire::Like<DescStatsReply> auto& m) {
  io.pad(2);
  io.text(m.mfr_desc, 256);
  io.text(m.hw_desc, 256);
  io.text(m.sw_desc, 256);
  io.text(m.serial_num, 32);
  io.text(m.dp_desc, 256);
}

template <class Io>
void walk(Io& io, wire::Like<PortStatsRequest> auto& m) {
  io.pad(2);
  io(m.port_no);
  io.pad(6);
}

namespace {

/// A whole frame: ofp_header, the stats type of a stats message, the body.
template <class Io, class T>
void walk_frame(Io& io, std::uint32_t xid, const T& body) {
  const FrameHeader h{kVersion, T::kType, 0, xid};
  walk(io, h);
  if constexpr (StatsBody<T>) io(T::kStats);
  walk(io, body);
}

}  // namespace

std::size_t wire_size(const Action& action) { return wire::size_of(action); }

std::size_t wire_size(const Message& msg) {
  return std::visit(
      [&](const auto& body) {
        wire::Sizer sizer;
        walk_frame(sizer, msg.xid, body);
        return sizer.size();
      },
      msg.body);
}

std::vector<std::uint8_t> encode_match_bytes(const Match& match) {
  return wire::to_bytes(match);
}

Result<Match> decode_match_bytes(std::span<const std::uint8_t> bytes) {
  Match m;
  if (bytes.size() != wire::size_of(m)) return Error{"ofp_match must be 40 bytes"};
  wire::read(bytes, m);
  return m;
}

void encode_into(const Message& msg, std::vector<std::uint8_t>& out) {
  BufWriter w(out);
  wire::Writer writer(w);
  std::visit([&](const auto& body) { walk_frame(writer, msg.xid, body); },
             msg.body);
  if (w.size() > kMaxFrameLen) {
    throw std::length_error("openflow frame of " + std::to_string(w.size()) +
                            " bytes overflows the 16-bit length field");
  }
  w.patch_u16(kLengthOffset, static_cast<std::uint16_t>(w.size()));
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
  const std::size_t part_overhead = wire_size(Message{0, FlowStatsReply{}});
  std::vector<FlowStatsReply> parts(1);
  std::size_t size = part_overhead;
  for (auto& e : reply.entries) {
    const std::size_t len = wire::size_of(e);
    if (size + len > kMaxFrameLen) {
      parts.back().flags = kStatsReplyMore;
      parts.emplace_back();
      size = part_overhead;
    }
    parts.back().entries.push_back(std::move(e));
    size += len;
  }
  return parts;
}

Result<Message> decode(std::span<const std::uint8_t> frame) {
  wire::Reader in(frame);
  FrameHeader h;
  walk(in, h);
  if (in.failed()) return Error{"frame shorter than header"};
  if (h.version != kVersion) return Error{"unsupported OpenFlow version"};
  if (h.length != frame.size()) return Error{"frame length mismatch"};
  StatsType stats{};
  if (h.type == MsgType::kStatsRequest || h.type == MsgType::kStatsReply) in(stats);
  Message msg{h.xid, Hello{}};
  const bool known = wire::emplace_where(msg.body, [&](auto alt) {
    using T = typename decltype(alt)::type;
    if constexpr (StatsBody<T>) return T::kType == h.type && T::kStats == stats;
    else return T::kType == h.type;
  });
  if (!known) {
    return Error{"unsupported message type " + std::to_string(static_cast<int>(h.type))};
  }
  std::visit([&](auto& body) { walk(in, body); }, msg.body);
  if (in.failed()) return Error{"malformed " + type_name(h.type) + " body"};
  return msg;
}

void FrameAssembler::feed(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> FrameAssembler::next_frame() {
  if (buffer_.size() < kHeaderLen) return {};
  const std::size_t length = (static_cast<std::size_t>(buffer_[kLengthOffset]) << 8) |
                             buffer_[kLengthOffset + 1];
  if (length < kHeaderLen || buffer_.size() < length) return {};
  std::vector<std::uint8_t> frame(buffer_.begin(),
                                  buffer_.begin() + static_cast<long>(length));
  buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<long>(length));
  return frame;
}

}  // namespace tango::of
