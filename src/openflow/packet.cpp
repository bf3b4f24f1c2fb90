#include "openflow/packet.h"

namespace tango::of {

std::vector<std::uint8_t> Packet::encode() const { return wire::to_bytes(*this); }

Result<Packet> Packet::decode(std::span<const std::uint8_t> bytes) {
  Packet p;
  if (!wire::read(bytes, p)) return Error{"truncated packet"};
  return p;
}

}  // namespace tango::of
