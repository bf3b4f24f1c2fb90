// Seeded property fuzz for the OpenFlow 1.0 codec.
//
// Two properties, both required for the fault-injection layer to be safe:
//  * round trip — any valid message encodes, decodes to an equal message,
//    and re-encodes to byte-identical wire bytes (so a FaultInjector pass
//    that leaves bytes alone cannot change meaning);
//  * robustness — a corrupted buffer (bit flips on valid frames, truncation,
//    or plain garbage) either decodes or returns an error, but never
//    crashes or over-reads. The suite runs 10k corrupted buffers; combined
//    with the ASan/UBSan CI job this is the codec's memory-safety gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "openflow/codec.h"
#include "openflow/messages.h"

namespace tango::of {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xc0dec;

std::uint8_t byte(Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

std::uint16_t u16(Rng& rng) {
  return static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
}

std::uint32_t u32(Rng& rng) {
  return static_cast<std::uint32_t>(
      rng.uniform_int(0, std::int64_t{0xffffffff}));
}

std::uint64_t u64(Rng& rng) { return (std::uint64_t{u32(rng)} << 32) | u32(rng); }

std::vector<std::uint8_t> bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.index(max_len + 1));
  for (auto& b : out) b = byte(rng);
  return out;
}

std::string text(Rng& rng, std::size_t max_len) {
  std::string out(rng.index(max_len + 1), '\0');
  for (auto& c : out) c = static_cast<char>('a' + rng.index(26));
  return out;
}

MacAddr mac(Rng& rng) {
  return {byte(rng), byte(rng), byte(rng), byte(rng), byte(rng), byte(rng)};
}

Match random_match(Rng& rng) {
  Match m = Match::any();
  if (rng.chance(0.5)) m.with_in_port(u16(rng));
  if (rng.chance(0.5)) m.with_dl_src(mac(rng));
  if (rng.chance(0.5)) m.with_dl_dst(mac(rng));
  if (rng.chance(0.3)) m.with_dl_vlan(u16(rng));
  if (rng.chance(0.7)) {
    m.with_dl_type(0x0800);
    m.set_nw_src_prefix(u32(rng), static_cast<int>(rng.index(33)));
    m.set_nw_dst_prefix(u32(rng), static_cast<int>(rng.index(33)));
    if (rng.chance(0.5)) m.with_nw_proto(byte(rng));
    if (rng.chance(0.3)) m.with_tp_src(u16(rng));
    if (rng.chance(0.3)) m.with_tp_dst(u16(rng));
  } else if (rng.chance(0.5)) {
    m.with_dl_type(u16(rng));
  }
  return m;
}

ActionList random_actions(Rng& rng) {
  ActionList list;
  const std::size_t n = rng.index(4);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.index(7)) {
      case 0: list.push_back(ActionOutput{u16(rng), u16(rng)}); break;
      case 1: list.push_back(ActionSetVlanVid{u16(rng)}); break;
      case 2: list.push_back(ActionStripVlan{}); break;
      case 3: list.push_back(ActionSetDlSrc{mac(rng)}); break;
      case 4: list.push_back(ActionSetDlDst{mac(rng)}); break;
      case 5: list.push_back(ActionSetNwSrc{u32(rng)}); break;
      default: list.push_back(ActionSetNwDst{u32(rng)}); break;
    }
  }
  return list;
}

PhyPort random_port(Rng& rng) {
  PhyPort p;
  p.port_no = u16(rng);
  p.hw_addr = mac(rng);
  p.name = text(rng, 15);  // wire field is 16 bytes incl. NUL
  p.config = u32(rng);
  p.state = u32(rng);
  p.curr = u32(rng);
  p.advertised = u32(rng);
  p.supported = u32(rng);
  p.peer = u32(rng);
  return p;
}

/// One random valid message; `which` cycles through all 28 body types so
/// every encoder sees every round.
Message random_message(Rng& rng, std::size_t which) {
  Message msg;
  msg.xid = u32(rng);
  switch (which % 28) {
    case 0: msg.body = Hello{}; break;
    case 1: msg.body = EchoRequest{bytes(rng, 32)}; break;
    case 2: msg.body = EchoReply{bytes(rng, 32)}; break;
    case 3: {
      ErrorMsg e;
      e.type = static_cast<ErrorType>(rng.index(6));
      e.code = u16(rng);
      e.data = bytes(rng, 40);
      msg.body = e;
      break;
    }
    case 4: msg.body = FeaturesRequest{}; break;
    case 5: {
      FeaturesReply r;
      r.datapath_id = u64(rng);
      r.n_buffers = u32(rng);
      r.n_tables = byte(rng);
      r.capabilities = u32(rng);
      r.actions = u32(rng);
      const std::size_t n = rng.index(4);
      for (std::size_t i = 0; i < n; ++i) r.ports.push_back(random_port(rng));
      msg.body = r;
      break;
    }
    case 6: {
      FlowMod fm;
      fm.match = random_match(rng);
      fm.cookie = u64(rng);
      fm.command = static_cast<FlowModCommand>(rng.index(5));
      fm.idle_timeout = u16(rng);
      fm.hard_timeout = u16(rng);
      fm.priority = u16(rng);
      fm.buffer_id = u32(rng);
      fm.out_port = u16(rng);
      fm.flags = u16(rng);
      fm.actions = random_actions(rng);
      msg.body = fm;
      break;
    }
    case 7: {
      FlowRemoved fr;
      fr.match = random_match(rng);
      fr.cookie = u64(rng);
      fr.priority = u16(rng);
      fr.reason = static_cast<FlowRemovedReason>(rng.index(3));
      fr.duration_sec = u32(rng);
      fr.duration_nsec = u32(rng);
      fr.idle_timeout = u16(rng);
      fr.packet_count = u64(rng);
      fr.byte_count = u64(rng);
      msg.body = fr;
      break;
    }
    case 8: {
      PacketIn pi;
      pi.buffer_id = u32(rng);
      pi.total_len = u16(rng);
      pi.in_port = u16(rng);
      pi.reason = static_cast<PacketInReason>(rng.index(2));
      pi.data = bytes(rng, 64);
      msg.body = pi;
      break;
    }
    case 9: {
      PacketOut po;
      po.buffer_id = u32(rng);
      po.in_port = u16(rng);
      po.actions = random_actions(rng);
      po.data = bytes(rng, 64);
      msg.body = po;
      break;
    }
    case 10: msg.body = BarrierRequest{}; break;
    case 11: msg.body = BarrierReply{}; break;
    case 12: {
      FlowStatsRequest r;
      r.match = random_match(rng);
      r.table_id = byte(rng);
      r.out_port = u16(rng);
      msg.body = r;
      break;
    }
    case 13: {
      FlowStatsReply r;
      const std::size_t n = rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        FlowStatsEntry e;
        e.table_id = byte(rng);
        e.match = random_match(rng);
        e.duration_sec = u32(rng);
        e.duration_nsec = u32(rng);
        e.priority = u16(rng);
        e.idle_timeout = u16(rng);
        e.hard_timeout = u16(rng);
        e.cookie = u64(rng);
        e.packet_count = u64(rng);
        e.byte_count = u64(rng);
        e.actions = random_actions(rng);
        r.entries.push_back(e);
      }
      msg.body = r;
      break;
    }
    case 14: msg.body = TableStatsRequest{}; break;
    case 15: {
      TableStatsReply r;
      const std::size_t n = rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        TableStatsEntry e;
        e.table_id = byte(rng);
        e.name = text(rng, 31);
        e.wildcards = u32(rng);
        e.max_entries = u32(rng);
        e.active_count = u32(rng);
        e.lookup_count = u64(rng);
        e.matched_count = u64(rng);
        r.entries.push_back(e);
      }
      msg.body = r;
      break;
    }
    case 16: msg.body = GetConfigRequest{}; break;
    case 17: msg.body = GetConfigReply{u16(rng), u16(rng)}; break;
    case 18: msg.body = SetConfig{u16(rng), u16(rng)}; break;
    case 19: {
      PortStatus ps;
      ps.reason = static_cast<PortReason>(rng.index(3));
      ps.port = random_port(rng);
      msg.body = ps;
      break;
    }
    case 20: {
      PortMod pm;
      pm.port_no = u16(rng);
      pm.hw_addr = mac(rng);
      pm.config = u32(rng);
      pm.mask = u32(rng);
      pm.advertise = u32(rng);
      msg.body = pm;
      break;
    }
    case 21: msg.body = Vendor{u32(rng), bytes(rng, 48)}; break;
    case 22: {
      AggregateStatsRequest r;
      r.match = random_match(rng);
      r.table_id = byte(rng);
      r.out_port = u16(rng);
      msg.body = r;
      break;
    }
    case 23: {
      AggregateStatsReply r;
      r.packet_count = u64(rng);
      r.byte_count = u64(rng);
      r.flow_count = u32(rng);
      msg.body = r;
      break;
    }
    case 24: msg.body = DescStatsRequest{}; break;
    case 25: {
      DescStatsReply r;
      r.mfr_desc = text(rng, 255);
      r.hw_desc = text(rng, 255);
      r.sw_desc = text(rng, 255);
      r.serial_num = text(rng, 31);
      r.dp_desc = text(rng, 255);
      msg.body = r;
      break;
    }
    case 26: msg.body = PortStatsRequest{u16(rng)}; break;
    default: {
      PortStatsReply r;
      const std::size_t n = rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        PortStatsEntry e;
        e.port_no = u16(rng);
        e.rx_packets = u64(rng);
        e.tx_packets = u64(rng);
        e.rx_bytes = u64(rng);
        e.tx_bytes = u64(rng);
        e.rx_dropped = u64(rng);
        e.tx_dropped = u64(rng);
        e.rx_errors = u64(rng);
        e.tx_errors = u64(rng);
        r.entries.push_back(e);
      }
      msg.body = r;
      break;
    }
  }
  return msg;
}

TEST(CodecFuzzTest, RoundTripIsByteIdentical) {
  Rng rng(kFuzzSeed);
  for (std::size_t i = 0; i < 2000; ++i) {
    const Message msg = random_message(rng, i);
    const auto wire = encode(msg);
    ASSERT_GE(wire.size(), kHeaderLen);
    EXPECT_EQ(wire[0], kVersion);
    const auto decoded = decode(wire);
    ASSERT_TRUE(decoded.ok())
        << "round " << i << " type " << type_name(type_of(msg.body)) << ": "
        << decoded.error();
    EXPECT_EQ(decoded.value().xid, msg.xid);
    EXPECT_EQ(decoded.value().body, msg.body) << "round " << i;
    // Re-encoding the decoded message reproduces the wire bytes exactly.
    EXPECT_EQ(encode(decoded.value()), wire) << "round " << i;
  }
}

TEST(CodecFuzzTest, BitFlippedFramesNeverCrash) {
  Rng rng(kFuzzSeed + 1);
  std::size_t decoded_ok = 0;
  for (std::size_t i = 0; i < 5000; ++i) {
    auto wire = encode(random_message(rng, i));
    const std::size_t flips = 1 + rng.index(8);
    for (std::size_t k = 0; k < flips; ++k) {
      wire[rng.index(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    const auto result = decode(wire);  // must not crash or over-read
    if (result.ok()) ++decoded_ok;
  }
  // Some flips hit don't-care bytes and still decode; most must not.
  EXPECT_LT(decoded_ok, 5000u);
}

TEST(CodecFuzzTest, TruncatedFramesReturnErrors) {
  Rng rng(kFuzzSeed + 2);
  for (std::size_t i = 0; i < 2500; ++i) {
    const auto wire = encode(random_message(rng, i));
    const std::size_t keep = rng.index(wire.size());  // strictly shorter
    const std::vector<std::uint8_t> cut(wire.begin(),
                                        wire.begin() + static_cast<long>(keep));
    const auto result = decode(cut);
    // The length field no longer matches the buffer: always an error.
    EXPECT_FALSE(result.ok()) << "round " << i << " kept " << keep << " of "
                              << wire.size();
  }
}

TEST(CodecFuzzTest, GarbageBuffersNeverCrash) {
  Rng rng(kFuzzSeed + 3);
  for (std::size_t i = 0; i < 2500; ++i) {
    auto garbage = bytes(rng, 64);
    if (rng.chance(0.3) && garbage.size() >= 4) {
      // Make the header plausible so deeper body parsing is reached.
      garbage[0] = kVersion;
      garbage[1] = static_cast<std::uint8_t>(rng.index(20));
      garbage[2] = static_cast<std::uint8_t>(garbage.size() >> 8);
      garbage[3] = static_cast<std::uint8_t>(garbage.size());
    }
    (void)decode(garbage);  // any result is fine; crashing is not
  }
}

// Targeted fuzz for the reconciler's readback path: valid FlowStatsReply
// frames whose per-entry length fields are overwritten with random values.
// The outer header stays consistent, so every corruption lands in the
// entry-walking loop — it must stop with an error or a consistent parse,
// never over-read (ASan/UBSan job covers the memory side).
TEST(CodecFuzzTest, FlowStatsEntryLengthFuzzNeverOverReads) {
  Rng rng(kFuzzSeed + 5);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 2500; ++i) {
    FlowStatsReply reply;
    const std::size_t n = 1 + rng.index(3);
    for (std::size_t k = 0; k < n; ++k) {
      FlowStatsEntry e;
      e.match = random_match(rng);
      e.priority = u16(rng);
      e.cookie = u64(rng);
      e.actions = random_actions(rng);
      reply.entries.push_back(e);
    }
    auto wire = encode(Message{u32(rng), reply});
    // Walk to a random entry's length field (body starts at 8, entries at
    // 12; each entry is 88 + its actions) and scribble over it.
    std::size_t offset = 12;
    const std::size_t target = rng.index(n);
    for (std::size_t k = 0; k < target; ++k) {
      offset += 88;
      for (const auto& a : reply.entries[k].actions) offset += wire_size(a);
    }
    wire[offset] = byte(rng);
    wire[offset + 1] = byte(rng);
    const auto result = decode(wire);
    if (!result.ok()) ++rejected;
  }
  // Almost every random length is inconsistent; a handful may restate the
  // true length and decode fine.
  EXPECT_GT(rejected, 2000u);
}

// Pins the codec's accept set and decoded values on the seeded corruption
// corpora above (the bit-flip, garbage and flow-stats entry-length
// streams, regenerated from the same seeds). Each frame folds its ok bit
// and, when it decodes, the re-encoding of what it decoded into one
// FNV-1a 64 hash, so a codec change that accepts or rejects a different
// frame, or decodes one to a different value, moves the hash.
TEST(CodecFuzzTest, CorruptedCorporaDecodeToPinnedHash) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto fold = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  std::size_t frames = 0;
  const auto replay = [&](const std::vector<std::uint8_t>& frame) {
    ++frames;
    const auto result = decode(frame);
    fold(result.ok() ? 1 : 0);
    if (!result.ok()) return;
    for (const auto b : encode(result.value())) fold(b);
  };

  Rng flips(kFuzzSeed + 1);
  for (std::size_t i = 0; i < 5000; ++i) {
    auto wire = encode(random_message(flips, i));
    const std::size_t n = 1 + flips.index(8);
    for (std::size_t k = 0; k < n; ++k) {
      wire[flips.index(wire.size())] ^=
          static_cast<std::uint8_t>(1u << flips.index(8));
    }
    replay(wire);
  }

  Rng garbage_rng(kFuzzSeed + 3);
  for (std::size_t i = 0; i < 2500; ++i) {
    auto garbage = bytes(garbage_rng, 64);
    if (garbage_rng.chance(0.3) && garbage.size() >= 4) {
      garbage[0] = kVersion;
      garbage[1] = static_cast<std::uint8_t>(garbage_rng.index(20));
      garbage[2] = static_cast<std::uint8_t>(garbage.size() >> 8);
      garbage[3] = static_cast<std::uint8_t>(garbage.size());
    }
    replay(garbage);
  }

  Rng lengths(kFuzzSeed + 5);
  for (std::size_t i = 0; i < 2500; ++i) {
    FlowStatsReply reply;
    const std::size_t n = 1 + lengths.index(3);
    for (std::size_t k = 0; k < n; ++k) {
      FlowStatsEntry e;
      e.match = random_match(lengths);
      e.priority = u16(lengths);
      e.cookie = u64(lengths);
      e.actions = random_actions(lengths);
      reply.entries.push_back(e);
    }
    auto wire = encode(Message{u32(lengths), reply});
    std::size_t offset = 12;
    const std::size_t target = lengths.index(n);
    for (std::size_t k = 0; k < target; ++k) {
      offset += 88;
      for (const auto& a : reply.entries[k].actions) offset += wire_size(a);
    }
    wire[offset] = byte(lengths);
    wire[offset + 1] = byte(lengths);
    replay(wire);
  }

  EXPECT_EQ(frames, 10000u);
  EXPECT_EQ(h, 0x0766fb416fc115c3ull);
}

TEST(CodecFuzzTest, FrameAssemblerHandlesArbitraryChunking) {
  Rng rng(kFuzzSeed + 4);
  for (std::size_t round = 0; round < 50; ++round) {
    std::vector<Message> sent;
    std::vector<std::uint8_t> stream;
    for (std::size_t i = 0; i < 20; ++i) {
      sent.push_back(random_message(rng, rng.index(28)));
      const auto wire = encode(sent.back());
      stream.insert(stream.end(), wire.begin(), wire.end());
    }
    FrameAssembler assembler;
    std::vector<Message> received;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t chunk =
          std::min(stream.size() - offset, 1 + rng.index(24));
      assembler.feed(
          std::span<const std::uint8_t>(stream.data() + offset, chunk));
      offset += chunk;
      for (auto frame = assembler.next_frame(); !frame.empty();
           frame = assembler.next_frame()) {
        const auto decoded = decode(frame);
        ASSERT_TRUE(decoded.ok()) << decoded.error();
        received.push_back(decoded.value());
      }
    }
    ASSERT_EQ(received.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(received[i].xid, sent[i].xid);
      EXPECT_EQ(received[i].body, sent[i].body);
    }
  }
}

}  // namespace
}  // namespace tango::of
