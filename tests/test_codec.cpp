// Round-trip and robustness tests for the OpenFlow 1.0 wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "openflow/codec.h"
#include "openflow/epoch.h"
#include "openflow/packet.h"

namespace tango::of {
namespace {

Match sample_match() {
  Match m;
  m.with_in_port(7);
  m.with_dl_src({1, 2, 3, 4, 5, 6});
  m.with_dl_type(0x0800);
  m.with_nw_proto(6);
  m.set_nw_src_prefix(0x0a000000, 24);
  m.set_nw_dst_prefix(0xc0a80000, 16);
  m.with_tp_dst(443);
  return m;
}

template <typename Body>
Body roundtrip(const Body& body, std::uint32_t xid = 0x1234) {
  const auto frame = encode(Message{xid, body});
  // Header sanity: version, length field == frame size.
  EXPECT_EQ(frame[0], kVersion);
  EXPECT_EQ((static_cast<std::size_t>(frame[2]) << 8) | frame[3], frame.size());
  auto decoded = decode(frame);
  EXPECT_TRUE(decoded.ok()) << (decoded.ok() ? "" : decoded.error());
  EXPECT_EQ(decoded.value().xid, xid);
  const Body* out = std::get_if<Body>(&decoded.value().body);
  EXPECT_NE(out, nullptr);
  return out != nullptr ? *out : Body{};
}

TEST(Codec, Hello) { EXPECT_EQ(roundtrip(Hello{}), Hello{}); }

TEST(Codec, EchoCarriesPayload) {
  EchoRequest req;
  req.payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(roundtrip(req), req);
  EchoReply rep;
  rep.payload = {9, 8};
  EXPECT_EQ(roundtrip(rep), rep);
}

TEST(Codec, ErrorMessage) {
  ErrorMsg err;
  err.type = ErrorType::kFlowModFailed;
  err.code = static_cast<std::uint16_t>(FlowModFailedCode::kAllTablesFull);
  err.data = {'f', 'u', 'l', 'l'};
  EXPECT_EQ(roundtrip(err), err);
}

TEST(Codec, FeaturesRoundTrip) {
  EXPECT_EQ(roundtrip(FeaturesRequest{}), FeaturesRequest{});
  FeaturesReply reply;
  reply.datapath_id = 0xdeadbeefcafe;
  reply.n_buffers = 256;
  reply.n_tables = 3;
  reply.capabilities = 0xc7;
  reply.actions = 0xfff;
  PhyPort port;
  port.port_no = 4;
  port.hw_addr = {2, 0, 0, 0, 0, 4};
  port.name = "port4";
  port.curr = 0x40;
  reply.ports = {port, port};
  EXPECT_EQ(roundtrip(reply), reply);
}

TEST(Codec, FlowModAllFields) {
  FlowMod fm;
  fm.match = sample_match();
  fm.cookie = 0x1122334455667788ULL;
  fm.command = FlowModCommand::kModifyStrict;
  fm.idle_timeout = 30;
  fm.hard_timeout = 600;
  fm.priority = 4321;
  fm.buffer_id = 77;
  fm.out_port = 9;
  fm.flags = 1;
  fm.actions = {ActionOutput{2, 0xffff}, ActionSetVlanVid{100},
                ActionSetDlSrc{{9, 8, 7, 6, 5, 4}}, ActionSetNwDst{0x01020304},
                ActionStripVlan{}};
  EXPECT_EQ(roundtrip(fm), fm);
}

TEST(Codec, FlowModEmptyActionsIsDrop) {
  FlowMod fm;
  fm.match = sample_match();
  fm.actions = {};
  const auto out = roundtrip(fm);
  EXPECT_TRUE(out.actions.empty());
}

TEST(Codec, FlowRemoved) {
  FlowRemoved fr;
  fr.match = sample_match();
  fr.cookie = 42;
  fr.priority = 100;
  fr.reason = FlowRemovedReason::kIdleTimeout;
  fr.duration_sec = 12;
  fr.duration_nsec = 345;
  fr.idle_timeout = 30;
  fr.packet_count = 1000;
  fr.byte_count = 64000;
  EXPECT_EQ(roundtrip(fr), fr);
}

TEST(Codec, PacketInCarriesData) {
  PacketIn pin;
  pin.buffer_id = kNoBuffer;
  pin.total_len = 60;
  pin.in_port = 3;
  pin.reason = PacketInReason::kNoMatch;
  pin.data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(roundtrip(pin), pin);
}

TEST(Codec, PacketOutActionsAndData) {
  PacketOut po;
  po.buffer_id = kNoBuffer;
  po.in_port = 1;
  po.actions = {ActionOutput{kPortTable, 0}};
  po.data = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(roundtrip(po), po);
}

TEST(Codec, Barriers) {
  EXPECT_EQ(roundtrip(BarrierRequest{}), BarrierRequest{});
  EXPECT_EQ(roundtrip(BarrierReply{}), BarrierReply{});
}

TEST(Codec, FlowStats) {
  FlowStatsRequest req;
  req.match = sample_match();
  req.table_id = 0xff;
  req.out_port = kPortNone;
  EXPECT_EQ(roundtrip(req), req);

  FlowStatsReply reply;
  FlowStatsEntry e;
  e.table_id = 1;
  e.match = sample_match();
  e.duration_sec = 5;
  e.priority = 9;
  e.cookie = 0xabc;
  e.packet_count = 12;
  e.byte_count = 768;
  e.actions = {ActionOutput{2, 0xffff}};
  reply.entries = {e, e};
  EXPECT_EQ(roundtrip(reply), reply);
}

// The readback path of the crash reconciler: an empty table must decode as
// an empty reply, not an error (a freshly rebooted agent legitimately
// answers with zero entries besides whatever the reconciler filters out).
TEST(Codec, FlowStatsEmptyReply) {
  const auto out = roundtrip(FlowStatsReply{});
  EXPECT_TRUE(out.entries.empty());
}

TEST(Codec, FlowStatsMultiEntryDistinct) {
  FlowStatsReply reply;
  for (std::uint32_t i = 0; i < 5; ++i) {
    FlowStatsEntry e;
    e.table_id = static_cast<std::uint8_t>(i);
    e.match = Match::any().with_in_port(static_cast<std::uint16_t>(i + 1));
    e.priority = static_cast<std::uint16_t>(100 * i);
    e.cookie = (std::uint64_t{7} << 32) | i;  // txn-style cookie
    e.packet_count = i;
    if (i % 2 == 0) e.actions = {ActionOutput{static_cast<std::uint16_t>(i), 0}};
    reply.entries.push_back(e);
  }
  EXPECT_EQ(roundtrip(reply), reply);
}

// Multi-part replies (OFPSF_REPLY_MORE): the flag round-trips, and a reply
// under 64 KiB keeps the single-part bytes (flags 0).
TEST(Codec, FlowStatsReplyMoreFlagRoundTrips) {
  FlowStatsReply part;
  part.entries.resize(2);
  part.flags = kStatsReplyMore;
  EXPECT_EQ(roundtrip(part), part);
  const auto frame = encode(Message{1, part});
  EXPECT_EQ(frame[10], 0x00);
  EXPECT_EQ(frame[11], 0x01);
  part.flags = 0;
  EXPECT_EQ(encode(Message{1, part})[11], 0x00);
}

TEST(Codec, FlowStatsSplitKeepsEveryFrameUnder64KiB) {
  FlowStatsReply reply;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    FlowStatsEntry e;
    e.match = Match::any().with_in_port(static_cast<std::uint16_t>(i + 1));
    e.priority = static_cast<std::uint16_t>(i);
    e.actions = {ActionOutput{2, 0}};
    reply.entries.push_back(e);
  }
  // One frame cannot describe it: the 16-bit length would wrap.
  EXPECT_GT(wire_size(Message{1, reply}), kMaxFrameLen);
  EXPECT_THROW(encode(Message{1, reply}), std::length_error);

  const auto parts = split_flow_stats(reply);
  ASSERT_GT(parts.size(), 1u);
  FlowStatsReply joined;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const bool last = i + 1 == parts.size();
    EXPECT_EQ(parts[i].flags, last ? 0 : kStatsReplyMore);
    EXPECT_LE(wire_size(Message{1, parts[i]}), kMaxFrameLen);
    const auto decoded = roundtrip(parts[i]);
    EXPECT_EQ(decoded, parts[i]);
    joined.entries.insert(joined.entries.end(), decoded.entries.begin(),
                          decoded.entries.end());
  }
  EXPECT_EQ(joined, reply);

  // A reply that fits stays one part, unflagged.
  reply.entries.resize(10);
  const auto single = split_flow_stats(reply);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], reply);
}

// Per-entry truncation: the outer frame length is consistent, but an entry
// header lies about its own length. Offsets: OF header 8, stats type+flags
// 4, so the first entry's length field sits at bytes 12-13.
TEST(Codec, FlowStatsRejectsTruncatedEntry) {
  FlowStatsReply reply;
  FlowStatsEntry e;
  e.match = sample_match();
  e.priority = 9;
  reply.entries = {e};  // no actions: entry is exactly 88 bytes
  const auto frame = encode(Message{1, reply});
  ASSERT_EQ(frame.size(), 8u + 4u + 88u);

  // Entry claims fewer bytes than the fixed entry header.
  auto undersized = frame;
  undersized[12] = 0;
  undersized[13] = 40;
  EXPECT_FALSE(decode(undersized).ok());

  // Entry claims more bytes than the frame holds.
  auto oversized = frame;
  oversized[12] = 0;
  oversized[13] = 96;
  EXPECT_FALSE(decode(oversized).ok());

  // Frame cut mid-entry (header length field kept consistent): the decoder
  // must reject the partial entry rather than read past the buffer.
  auto cut = frame;
  cut.resize(frame.size() - 4);
  cut[2] = static_cast<std::uint8_t>(cut.size() >> 8);
  cut[3] = static_cast<std::uint8_t>(cut.size());
  EXPECT_FALSE(decode(cut).ok());
}

TEST(Codec, TableStats) {
  EXPECT_EQ(roundtrip(TableStatsRequest{}), TableStatsRequest{});
  TableStatsReply reply;
  TableStatsEntry e;
  e.table_id = 0;
  e.name = "tcam";
  e.wildcards = kWildcardAll;
  e.max_entries = 2048;
  e.active_count = 17;
  e.lookup_count = 123456;
  e.matched_count = 120000;
  reply.entries = {e};
  EXPECT_EQ(roundtrip(reply), reply);
}

TEST(Codec, ConfigMessages) {
  EXPECT_EQ(roundtrip(GetConfigRequest{}), GetConfigRequest{});
  GetConfigReply reply;
  reply.flags = 1;
  reply.miss_send_len = 512;
  EXPECT_EQ(roundtrip(reply), reply);
  SetConfig cfg;
  cfg.miss_send_len = 64;
  EXPECT_EQ(roundtrip(cfg), cfg);
}

TEST(Codec, PortStatusAndMod) {
  PortStatus status;
  status.reason = PortReason::kModify;
  status.port.port_no = 3;
  status.port.name = "port3";
  status.port.state = kPortStateLinkDown;
  EXPECT_EQ(roundtrip(status), status);

  PortMod pm;
  pm.port_no = 5;
  pm.hw_addr = {1, 2, 3, 4, 5, 6};
  pm.config = kPortConfigDown;
  pm.mask = kPortConfigDown | kPortConfigNoFlood;
  pm.advertise = 0x40;
  EXPECT_EQ(roundtrip(pm), pm);
}

TEST(Codec, VendorCarriesOpaqueData) {
  Vendor v;
  v.vendor_id = 0x00002320;
  v.data = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(roundtrip(v), v);
}

TEST(Codec, AggregateStats) {
  AggregateStatsRequest req;
  req.match = sample_match();
  EXPECT_EQ(roundtrip(req), req);
  AggregateStatsReply reply;
  reply.packet_count = 12345;
  reply.byte_count = 9876543;
  reply.flow_count = 42;
  EXPECT_EQ(roundtrip(reply), reply);
}

TEST(Codec, DescStats) {
  EXPECT_EQ(roundtrip(DescStatsRequest{}), DescStatsRequest{});
  DescStatsReply reply;
  reply.mfr_desc = "vendor1";
  reply.hw_desc = "HW Switch #1";
  reply.sw_desc = "tango-switchsim";
  reply.serial_num = "sim-1";
  reply.dp_desc = "datapath 1";
  EXPECT_EQ(roundtrip(reply), reply);
}

TEST(Codec, PortStats) {
  PortStatsRequest req;
  req.port_no = 7;
  EXPECT_EQ(roundtrip(req), req);
  PortStatsReply reply;
  PortStatsEntry e;
  e.port_no = 7;
  e.rx_packets = 100;
  e.tx_packets = 90;
  e.rx_bytes = 6400;
  e.tx_bytes = 5760;
  e.rx_dropped = 1;
  reply.entries = {e, e};
  EXPECT_EQ(roundtrip(reply), reply);
}

TEST(Codec, RejectsTruncatedFrame) {
  const auto frame = encode(Message{1, FlowMod{}});
  auto short_frame = frame;
  short_frame.resize(frame.size() - 4);
  EXPECT_FALSE(decode(short_frame).ok());
}

TEST(Codec, RejectsBadVersion) {
  auto frame = encode(Message{1, Hello{}});
  frame[0] = 0x04;
  EXPECT_FALSE(decode(frame).ok());
}

TEST(Codec, RejectsLengthMismatch) {
  auto frame = encode(Message{1, Hello{}});
  frame.push_back(0);  // extra trailing byte
  EXPECT_FALSE(decode(frame).ok());
}

TEST(Codec, RejectsBogusActionLength) {
  auto frame = encode(Message{1, []{
    FlowMod fm;
    fm.actions = {ActionOutput{1, 0}};
    return fm;
  }()});
  // Corrupt the action length field (offset: header 8 + body 64 + 2).
  frame[8 + 64 + 2] = 0;
  frame[8 + 64 + 3] = 3;  // len 3 < 8
  EXPECT_FALSE(decode(frame).ok());
}

TEST(Codec, WireSizeMatchesEncoding) {
  FlowMod fm;
  fm.actions = {ActionOutput{1, 0}, ActionSetDlDst{{1, 2, 3, 4, 5, 6}}};
  const Message msg{5, fm};
  EXPECT_EQ(wire_size(msg), encode(msg).size());
  EXPECT_EQ(wire_size(Action{ActionOutput{1, 0}}), 8u);
  EXPECT_EQ(wire_size(Action{ActionSetDlDst{}}), 16u);
}

/// One populated sample of every message type: the computed size must
/// agree with the byte count the encoder actually produces, or
/// batched buffers would carry wrong length pre-reservations and the
/// computed sizes could not be trusted for accounting.
std::vector<Message> all_message_samples() {
  std::vector<Message> msgs;
  std::uint32_t xid = 1;
  auto add = [&](MessageBody body) { msgs.push_back(Message{xid++, std::move(body)}); };

  add(Hello{});
  add(EchoRequest{{1, 2, 3}});
  add(EchoReply{{4, 5}});
  ErrorMsg err;
  err.code = 2;
  err.data = {9, 9, 9};
  add(err);
  add(FeaturesRequest{});
  FeaturesReply fr;
  fr.datapath_id = 42;
  fr.ports.resize(3);
  fr.ports[0].name = "eth0";
  add(fr);
  FlowMod fm;
  fm.match = sample_match();
  fm.actions = {ActionOutput{1, 64}, ActionSetDlSrc{{1, 2, 3, 4, 5, 6}},
                ActionSetNwDst{0x0a000001}};
  add(fm);
  FlowRemoved frm;
  frm.match = sample_match();
  frm.packet_count = 7;
  add(frm);
  PacketIn pin;
  pin.data = {1, 2, 3, 4, 5};
  add(pin);
  PacketOut pout;
  pout.actions = {ActionStripVlan{}, ActionSetVlanVid{12}};
  pout.data = {0xde, 0xad};
  add(pout);
  add(BarrierRequest{});
  add(BarrierReply{});
  FlowStatsRequest fsr;
  fsr.match = sample_match();
  add(fsr);
  FlowStatsReply fsrep;
  fsrep.entries.resize(2);
  fsrep.entries[0].match = sample_match();
  fsrep.entries[0].actions = {ActionOutput{2, 0}};
  add(fsrep);
  add(GetConfigRequest{});
  add(GetConfigReply{});
  add(SetConfig{});
  PortStatus ps;
  ps.port.name = "eth1";
  add(ps);
  add(PortMod{});
  Vendor vend;
  vend.vendor_id = 0x00002320;
  vend.data = {1, 2, 3, 4};
  add(vend);
  AggregateStatsRequest agg;
  agg.match = sample_match();
  add(agg);
  AggregateStatsReply aggr;
  aggr.flow_count = 3;
  add(aggr);
  add(DescStatsRequest{});
  DescStatsReply desc;
  desc.mfr_desc = "tango";
  desc.serial_num = "0001";
  add(desc);
  PortStatsRequest psr;
  add(psr);
  PortStatsReply psrep;
  psrep.entries.resize(4);
  add(psrep);
  add(TableStatsRequest{});
  TableStatsReply tsr;
  tsr.entries.resize(2);
  tsr.entries[0].name = "tcam";
  add(tsr);
  return msgs;
}

TEST(Codec, WireSizeMatchesEncodingForAllMessageTypes) {
  const auto msgs = all_message_samples();
  ASSERT_EQ(msgs.size(), 28u);  // one per MessageBody alternative
  for (const auto& msg : msgs) {
    EXPECT_EQ(wire_size(msg), encode(msg).size())
        << "message type " << static_cast<int>(type_of(msg.body));
  }
}

TEST(Codec, EncodeIntoAppendsIdenticalFrame) {
  const auto msgs = all_message_samples();
  std::vector<std::uint8_t> out = {0xaa, 0xbb};  // pre-existing bytes survive
  for (const auto& msg : msgs) {
    const auto expect = encode(msg);
    const std::size_t before = out.size();
    encode_into(msg, out);
    ASSERT_EQ(out.size(), before + expect.size());
    EXPECT_TRUE(std::equal(expect.begin(), expect.end(), out.begin() + before));
  }
  EXPECT_EQ(out[0], 0xaa);
  EXPECT_EQ(out[1], 0xbb);
}

TEST(Codec, EncodeBatchEqualsConcatenatedFramesAndReassembles) {
  const auto msgs = all_message_samples();
  std::vector<std::uint8_t> batch;
  const std::size_t bytes = encode_batch(msgs, batch);
  EXPECT_EQ(bytes, batch.size());

  std::vector<std::uint8_t> expect;
  for (const auto& msg : msgs) {
    const auto f = encode(msg);
    expect.insert(expect.end(), f.begin(), f.end());
  }
  EXPECT_EQ(batch, expect);

  // The stream form feeds straight back through the assembler + decoder.
  FrameAssembler assembler;
  assembler.feed(batch);
  for (const auto& msg : msgs) {
    const auto frame = assembler.next_frame();
    ASSERT_FALSE(frame.empty());
    auto decoded = decode(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().xid, msg.xid);
    EXPECT_EQ(type_of(decoded.value().body), type_of(msg.body));
  }
  EXPECT_TRUE(assembler.next_frame().empty());
}

// --- golden wire bytes -------------------------------------------------------
// A round trip cannot see a layout mistake that encode and decode share, so
// these cases pin absolute bytes: a length plus FNV-1a 64 per sample frame,
// and full hex for a few frames that cover every action and a stats walk.

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(CodecGolden, AllMessageSamplesEncodeToPinnedBytes) {
  struct Pinned {
    std::size_t len;
    std::uint64_t fnv;
  };
  static constexpr Pinned kPinned[] = {
      {8, 0x245618d532af9e3full},  // Hello
      {11, 0xe99855aa2e2eb30bull},  // EchoRequest
      {10, 0xb412e41f4b62346dull},  // EchoReply
      {15, 0xa343e7ef74663608ull},  // ErrorMsg
      {8, 0x9f4cdade122acf44ull},  // FeaturesRequest
      {176, 0x80518bce9eff54b3ull},  // FeaturesReply
      {104, 0x65b318d087e770a1ull},  // FlowMod
      {88, 0x9ffd911a695577aaull},  // FlowRemoved
      {23, 0x7eff297f45265ca7ull},  // PacketIn
      {34, 0x983716eff7506f06ull},  // PacketOut
      {8, 0x0422ce8ef3947bd7ull},  // BarrierRequest
      {8, 0x946369c11a5ed499ull},  // BarrierReply
      {56, 0xad22eb8f75bfd319ull},  // FlowStatsRequest
      {196, 0x893fbc5b2849198bull},  // FlowStatsReply
      {8, 0x29f1c7f2b5d263fcull},  // GetConfigRequest
      {12, 0xf1f02596e051c088ull},  // GetConfigReply
      {12, 0x4979e93b90919da0ull},  // SetConfig
      {64, 0x4f003d65f6b26582ull},  // PortStatus
      {32, 0x72d7757f25f41f68ull},  // PortMod
      {16, 0x837d9d616024540full},  // Vendor
      {56, 0xde7102c07afa2d90ull},  // AggregateStatsRequest
      {36, 0xca0a4f60f7512382ull},  // AggregateStatsReply
      {12, 0x0f984fda75d80635ull},  // DescStatsRequest
      {1068, 0x333d8dfd870e3823ull},  // DescStatsReply
      {20, 0x61e0aae6182a5e65ull},  // PortStatsRequest
      {300, 0x6a8f165844fcdee0ull},  // PortStatsReply
      {12, 0x28576b845c5db3c0ull},  // TableStatsRequest
      {140, 0x3e4763636addbae9ull},  // TableStatsReply
  };
  const auto msgs = all_message_samples();
  ASSERT_EQ(msgs.size(), std::size(kPinned));
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const auto wire = encode(msgs[i]);
    EXPECT_EQ(wire.size(), kPinned[i].len) << "sample " << i;
    EXPECT_EQ(fnv1a64(wire), kPinned[i].fnv) << "sample " << i;
  }
}

TEST(CodecGolden, FlowModWithEveryActionType) {
  FlowMod fm;
  fm.match = sample_match();
  fm.cookie = 0x0102030405060708ull;
  fm.command = FlowModCommand::kModifyStrict;
  fm.idle_timeout = 30;
  fm.hard_timeout = 600;
  fm.priority = 0x1234;
  fm.buffer_id = 0xdeadbeef;
  fm.out_port = 9;
  fm.flags = 1;
  fm.actions = {ActionOutput{3, 128},
                ActionSetVlanVid{0x0abc},
                ActionStripVlan{},
                ActionSetDlSrc{{0x10, 0x11, 0x12, 0x13, 0x14, 0x15}},
                ActionSetDlDst{{0x20, 0x21, 0x22, 0x23, 0x24, 0x25}},
                ActionSetNwSrc{0x0a000001},
                ActionSetNwDst{0xc0a80101}};
  EXPECT_EQ(hex(encode(Message{0x77, fm})),
            "010e0090000000770034084a0007010203040506000000000000000000000800"
            "000600000a000000c0a80000000001bb01020304050607080002001e02581234"
            "deadbeef000900010000000800030080000100080abc00000003000800000000"
            "0004001010111213141500000000000000050010202122232425000000000000"
            "000600080a00000100070008c0a80101");
}

TEST(CodecGolden, TwoEntryFlowStatsReply) {
  FlowStatsReply reply;
  reply.flags = kStatsReplyMore;
  FlowStatsEntry a;
  a.table_id = 1;
  a.match = sample_match();
  a.duration_sec = 5;
  a.duration_nsec = 500;
  a.priority = 0x8000;
  a.idle_timeout = 10;
  a.hard_timeout = 20;
  a.cookie = 0xabcdef;
  a.packet_count = 1000;
  a.byte_count = 64000;
  a.actions = {ActionOutput{2, 0}, ActionSetNwDst{0x0a0a0a0a}};
  FlowStatsEntry b;
  b.cookie = 2;
  reply.entries = {a, b};
  EXPECT_EQ(hex(encode(Message{0x99, reply})),
            "011100cc0000009900010001006801000034084a000701020304050600000000"
            "0000000000000800000600000a000000c0a80000000001bb00000005000001f4"
            "8000000a00140000000000000000000000abcdef00000000000003e800000000"
            "0000fa000000000800020000000700080a0a0a0a00580000003fffff00000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000200000000"
            "000000000000000000000000");
}

TEST(CodecGolden, ProbePacketHeader) {
  Packet p;
  p.header.in_port = 2;
  p.header.dl_src = {0, 1, 2, 3, 4, 5};
  p.header.dl_dst = {6, 7, 8, 9, 10, 11};
  p.header.nw_src = 0x0a000005;
  p.header.nw_dst = 0xc0a80005;
  p.header.tp_src = 1234;
  p.header.tp_dst = 8080;
  p.payload_len = 1400;
  EXPECT_EQ(hex(p.encode()),
            "0002000102030405060708090a0bffff00080000060a000005c0a8000504d21f9000000578");
}

TEST(CodecGolden, EpochClaimPayload) {
  EXPECT_EQ(hex(encode_epoch_payload(kEpochClaimSubtype, 7, kEpochClaimAccepted)),
            "0000000a0000000700000001");
}

TEST(FrameAssemblerTest, ReassemblesSplitFrames) {
  const auto f1 = encode(Message{1, Hello{}});
  const auto f2 = encode(Message{2, BarrierRequest{}});
  std::vector<std::uint8_t> stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());

  FrameAssembler asm_;
  // Feed byte by byte.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    asm_.feed(std::span(&stream[i], 1));
  }
  const auto out1 = asm_.next_frame();
  ASSERT_EQ(out1, f1);
  const auto out2 = asm_.next_frame();
  ASSERT_EQ(out2, f2);
  EXPECT_TRUE(asm_.next_frame().empty());
}

TEST(FrameAssemblerTest, PartialFrameYieldsNothing) {
  const auto f = encode(Message{1, FlowMod{}});
  FrameAssembler asm_;
  asm_.feed(std::span(f.data(), f.size() / 2));
  EXPECT_TRUE(asm_.next_frame().empty());
  asm_.feed(std::span(f.data() + f.size() / 2, f.size() - f.size() / 2));
  EXPECT_EQ(asm_.next_frame(), f);
}

TEST(PacketWire, RoundTrip) {
  Packet p;
  p.header.in_port = 2;
  p.header.nw_src = 0x0a000005;
  p.header.nw_dst = 0xc0a80005;
  p.header.tp_dst = 8080;
  p.payload_len = 1400;
  const auto bytes = p.encode();
  auto decoded = Packet::decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), p);
  EXPECT_EQ(p.total_len(), Packet::kWireHeaderLen + 1400);
}

TEST(PacketWire, RejectsShortBuffer) {
  std::vector<std::uint8_t> tiny(5, 0);
  EXPECT_FALSE(Packet::decode(tiny).ok());
}

}  // namespace
}  // namespace tango::of
