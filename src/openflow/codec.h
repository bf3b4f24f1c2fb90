// OpenFlow 1.0 binary codec: Message <-> network-byte-order wire frames.
//
// Each structure's wire layout is written once, as a field walk in
// codec.cpp (wire.h describes the walk and its three archives); encode,
// wire_size and decode all derive from it, so wire_size(msg) ==
// encode(msg).size() holds by construction. Each message body declares its
// (MsgType, StatsType) tag once (messages.h) and decode picks the body by it.
//
// encode() always produces a frame whose length field equals the byte count
// (and throws std::length_error for a message too large for that field);
// decode() validates version, length, and bounds and returns an error string
// for malformed input instead of crashing. FrameAssembler reassembles
// messages from a byte stream (frames may arrive split or coalesced).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "openflow/messages.h"

namespace tango::of {

std::vector<std::uint8_t> encode(const Message& msg);

/// Append the encoded frame to `out` without clearing it. Byte-identical to
/// appending encode(msg); exists so hot paths can reuse one write buffer
/// across many frames instead of allocating per message.
void encode_into(const Message& msg, std::vector<std::uint8_t>& out);

/// Append all frames back-to-back to `out` (the stream form FrameAssembler
/// consumes). Returns the number of bytes appended.
std::size_t encode_batch(std::span<const Message> msgs,
                         std::vector<std::uint8_t>& out);

Result<Message> decode(std::span<const std::uint8_t> frame);

/// Split a flow-stats reply into parts whose frames each fit kMaxFrameLen,
/// keeping entry order; every part but the last carries kStatsReplyMore.
/// A reply that already fits comes back as the only part.
std::vector<FlowStatsReply> split_flow_stats(FlowStatsReply reply);

/// Standalone ofp_match wire form (40 bytes) — used by tooling that stores
/// matches outside full messages (e.g. trace files).
std::vector<std::uint8_t> encode_match_bytes(const Match& match);
Result<Match> decode_match_bytes(std::span<const std::uint8_t> bytes);

/// Serialized length of an encoded action (wire bytes).
std::size_t wire_size(const Action& action);

/// Serialized length of a whole message, computed without encoding (no
/// allocation). Equals encode(msg).size(): both run the same field walk.
std::size_t wire_size(const Message& msg);

/// Accumulates stream bytes and yields complete frames.
class FrameAssembler {
 public:
  void feed(std::span<const std::uint8_t> bytes);

  /// Pop the next complete frame, or empty if none is buffered yet.
  std::vector<std::uint8_t> next_frame();

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

}  // namespace tango::of
