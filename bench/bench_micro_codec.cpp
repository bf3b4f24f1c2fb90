// OpenFlow wire codec microbenchmark: encode and decode throughput for the
// hot message types (flow_mod dominates probing and scheduling traffic),
// plus the match predicates and frame reassembly the channel runs per
// message. Writes BENCH_micro_codec.json; every *_ops_per_sec result is
// informational — it tracks the host, not the code — so nothing gates it.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "openflow/codec.h"
#include "tango/probe_engine.h"

namespace {

using namespace tango;
using bench::keep;
using bench::ops_per_sec;

of::Message flow_mod_message() {
  auto fm = core::ProbeEngine::probe_add(123, 456);
  fm.actions.push_back(of::ActionSetNwDst{0x01020304});
  return of::Message{42, fm};
}

void record(bench::BenchReport& report, const std::string& what, double rate) {
  report.json().set_result(what + "_ops_per_sec", rate);
  std::printf("  %-24s %14.0f/s\n", what.c_str(), rate);
}

}  // namespace

int main() {
  bench::print_header("bench_micro_codec: OpenFlow wire codec throughput",
                      "per-message control-channel cost; informational only");
  bench::BenchReport report("micro_codec");

  const auto flow_mod = flow_mod_message();
  const auto frame = of::encode(flow_mod);
  record(report, "encode_flow_mod", ops_per_sec([&] { keep(of::encode(flow_mod)); }));
  record(report, "decode_flow_mod", ops_per_sec([&] { keep(of::decode(frame)); }));

  for (const std::size_t bytes : {64, 512, 1500}) {
    of::PacketIn pin;
    pin.in_port = 3;
    pin.data.assign(bytes, 0xab);
    const of::Message msg{7, pin};
    record(report, "encode_packet_in_" + std::to_string(bytes),
           ops_per_sec([&] { keep(of::encode(msg)); }));
  }

  const auto match = core::ProbeEngine::probe_match(5);
  const auto pkt = core::ProbeEngine::probe_packet(5);
  record(report, "match_lookup", ops_per_sec([&] { keep(match.matches(pkt)); }));
  auto wide = of::Match::any();
  wide.set_nw_src_prefix(0x0a000000, 8);
  record(report, "match_overlap", ops_per_sec([&] { keep(match.overlaps(wide)); }));

  record(report, "frame_assembler", ops_per_sec([&] {
           of::FrameAssembler assembler;
           assembler.feed(frame);
           keep(assembler.next_frame());
         }));

  bench::print_footer();
  return 0;
}
