// Simulated data-plane packets.
//
// The probing engine sends packets via PACKET_OUT and receives them back via
// PACKET_IN; the payload on the wire is this fixed serialization of the
// header plus an opaque payload length (we never need payload bytes, only
// sizes, so the simulation carries lengths instead of buffers).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "openflow/match.h"
#include "openflow/wire.h"

namespace tango::of {

struct Packet {
  PacketHeader header;
  std::uint32_t payload_len = 64;

  bool operator==(const Packet&) const = default;

  [[nodiscard]] std::size_t total_len() const {
    return kWireHeaderLen + payload_len;
  }

  /// Serialized header size: the bytes the walk below covers.
  static const std::size_t kWireHeaderLen;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static Result<Packet> decode(std::span<const std::uint8_t> bytes);
};

// The wire form: a fixed-width dump of the header fields, then payload_len.
template <class Io>
constexpr void walk(Io& io, wire::Like<Packet> auto& p) {
  auto& h = p.header;
  io(h.in_port, h.dl_src, h.dl_dst, h.dl_vlan, h.dl_vlan_pcp, h.dl_type);
  io(h.nw_tos, h.nw_proto, h.nw_src, h.nw_dst, h.tp_src, h.tp_dst);
  io(p.payload_len);
}

inline constexpr std::size_t Packet::kWireHeaderLen = wire::size_of(Packet{});

}  // namespace tango::of
