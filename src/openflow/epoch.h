// Controller-epoch fencing for flow-mod cookies (HA failover safety).
//
// The transaction layer stamps every flow_mod with (txn << 32) | node. With
// a replicated controller pair a deposed primary can keep retrying frames it
// queued before losing mastership, so the cookie scheme grows a fence: the
// top byte carries the issuing controller's *epoch*, a number bumped by
// every takeover. A switch remembers the highest epoch that has claimed it
// and rejects fenced mutations from anything older (OFPET_FLOW_MOD_FAILED /
// OFPFMFC_EPERM) — the classic split-brain guard, same idea as the Nicira
// role-request generation id.
//
// Layout of a fenced cookie: [epoch:8][txn:24][node:32]. Epoch 0 is the
// legacy, unfenced encoding — every cookie produced before HA existed is
// bit-identical under this scheme (transaction ids stay far below 2^24),
// and unfenced flow_mods are never epoch-checked, so non-HA deployments
// see zero behavioural change.
//
// Epoch announcements ride an OFPT_VENDOR message (no new message type in
// the codec): payload = subtype, epoch, flags — all big-endian uint32.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "openflow/wire.h"

namespace tango::of {

inline constexpr int kCookieEpochShift = 56;
inline constexpr std::uint32_t kCookieTxnMask = 0x00ffffff;
inline constexpr std::uint64_t kCookieEpochMask = 0xffull << kCookieEpochShift;

/// Epoch carried by a cookie (0 = unfenced/legacy).
[[nodiscard]] constexpr std::uint32_t epoch_of_cookie(std::uint64_t cookie) {
  return static_cast<std::uint32_t>(cookie >> kCookieEpochShift);
}

/// Build a cookie: `low` in the bottom half, `txn` above it, `epoch` in the
/// top byte. epoch == 0 reproduces the legacy (txn << 32) | low layout
/// exactly; fenced cookies truncate txn to 24 bits to make room.
[[nodiscard]] constexpr std::uint64_t fenced_cookie(std::uint32_t epoch,
                                                    std::uint32_t txn,
                                                    std::uint32_t low) {
  if (epoch == 0) return (static_cast<std::uint64_t>(txn) << 32) | low;
  return (static_cast<std::uint64_t>(epoch & 0xff) << kCookieEpochShift) |
         (static_cast<std::uint64_t>(txn & kCookieTxnMask) << 32) | low;
}

/// Re-stamp a fenced cookie's epoch byte (takeover replay re-fences the
/// journal's cookies so repairs pass the new fence). Unfenced cookies pass
/// through untouched — they predate fencing and are never epoch-checked.
[[nodiscard]] constexpr std::uint64_t refence_cookie(std::uint64_t cookie,
                                                     std::uint32_t epoch) {
  if (epoch_of_cookie(cookie) == 0) return cookie;
  return (cookie & ~kCookieEpochMask) |
         (static_cast<std::uint64_t>(epoch & 0xff) << kCookieEpochShift);
}

/// Cookie with the epoch byte zeroed — equality modulo fencing, for oracles
/// comparing rules installed under different epochs.
[[nodiscard]] constexpr std::uint64_t cookie_sans_epoch(std::uint64_t cookie) {
  return cookie & ~kCookieEpochMask;
}

// --- epoch-claim vendor extension ------------------------------------------

/// Nicira's vendor id; the epoch claim is our stand-in for its role request.
inline constexpr std::uint32_t kTangoVendorId = 0x00002320;
inline constexpr std::uint32_t kEpochClaimSubtype = 10;
inline constexpr std::uint32_t kEpochClaimReplySubtype = 11;
/// Reply flag bit: the claim was accepted (epoch adopted or already held).
inline constexpr std::uint32_t kEpochClaimAccepted = 1u << 0;

struct EpochClaimPayload {
  std::uint32_t subtype = 0;
  std::uint32_t epoch = 0;
  std::uint32_t flags = 0;
};

template <class Io>
void walk(Io& io, wire::Like<EpochClaimPayload> auto& p) {
  io(p.subtype, p.epoch, p.flags);
}

[[nodiscard]] inline std::vector<std::uint8_t> encode_epoch_payload(
    std::uint32_t subtype, std::uint32_t epoch, std::uint32_t flags = 0) {
  return wire::to_bytes(EpochClaimPayload{subtype, epoch, flags});
}

[[nodiscard]] inline std::optional<EpochClaimPayload> decode_epoch_payload(
    const std::vector<std::uint8_t>& data) {
  EpochClaimPayload p;
  if (!wire::read(data, p)) return std::nullopt;
  return p;
}

}  // namespace tango::of
