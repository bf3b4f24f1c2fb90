#include "tango/probe_engine.h"

#include <memory>

namespace tango::core {

ProbeEngine::ProbeEngine(net::Network& network, SwitchId switch_id)
    : network_(network), switch_id_(switch_id) {}

void ProbeEngine::count(telemetry::Counter& local, const char* global_name) {
  local.inc();
  if (auto* t = network_.telemetry()) t->metrics.counter(global_name).inc();
}

namespace {

of::MacAddr probe_mac(std::uint32_t index) {
  return {0x02, 0x10, static_cast<std::uint8_t>(index >> 16),
          static_cast<std::uint8_t>(index >> 8),
          static_cast<std::uint8_t>(index), 0x01};
}

}  // namespace

of::Match ProbeEngine::probe_match(std::uint32_t index, RuleShape shape) {
  of::Match m;
  if (shape != RuleShape::kL2Only) {
    m.with_dl_type(0x0800);
    m.set_nw_src_prefix(0x0a000000u + index, 32);   // 10.x.y.z
    m.set_nw_dst_prefix(0xc0a80000u + index, 32);   // 192.168+ offset
  }
  if (shape != RuleShape::kL3Only) {
    m.with_dl_dst(probe_mac(index));
  }
  return m;
}

of::PacketHeader ProbeEngine::probe_packet(std::uint32_t index, RuleShape shape) {
  of::PacketHeader h;
  h.in_port = 1;
  h.dl_type = 0x0800;
  h.nw_src = 0x0a000000u + index;
  h.nw_dst = 0xc0a80000u + index;
  h.nw_proto = 6;
  h.tp_src = 10000;
  h.tp_dst = 80;
  if (shape != RuleShape::kL3Only) h.dl_dst = probe_mac(index);
  return h;
}

of::FlowMod ProbeEngine::probe_add(std::uint32_t index, std::uint16_t priority,
                                   RuleShape shape) {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kAdd;
  fm.match = probe_match(index, shape);
  fm.priority = priority;
  fm.cookie = index;
  fm.actions = of::output_to(2);
  return fm;
}

bool ProbeEngine::install(std::uint32_t index, std::uint16_t priority,
                          RuleShape shape) {
  const auto fm = probe_add(index, priority, shape);
  for (std::size_t attempt = 0; attempt <= recovery_.max_install_retries;
       ++attempt) {
    const auto r = network_.install(switch_id_, fm, recovery_.sync_timeout);
    if (!r.lost) return r.accepted;
    count(lost_commands_, "probe.lost_commands");
  }
  count(abandoned_installs_, "probe.abandoned_installs");
  return false;
}

SimTime ProbeEngine::sync_barrier() {
  for (std::size_t attempt = 0; attempt <= recovery_.max_install_retries;
       ++attempt) {
    const auto arrival =
        network_.try_barrier_sync(switch_id_, recovery_.sync_timeout);
    if (arrival.has_value()) return *arrival;
    count(lost_commands_, "probe.lost_commands");
  }
  // Every barrier vanished; fall back to the clock so the caller can at
  // least make progress (the measurement is marked lossy regardless).
  count(abandoned_installs_, "probe.abandoned_installs");
  return network_.now();
}

void ProbeEngine::clear_rules() {
  of::FlowMod fm;
  fm.command = of::FlowModCommand::kDelete;
  fm.match = of::Match::any();
  for (std::size_t attempt = 0; attempt <= recovery_.max_install_retries;
       ++attempt) {
    const auto r = network_.install(switch_id_, fm, recovery_.sync_timeout);
    if (!r.lost) break;
    count(lost_commands_, "probe.lost_commands");
  }
  sync_barrier();
}

std::optional<SimDuration> ProbeEngine::try_probe(std::uint32_t index) {
  const auto header = probe_packet(index);
  for (std::size_t attempt = 0; attempt <= recovery_.max_probe_retries;
       ++attempt) {
    const auto r = network_.probe(switch_id_, header, recovery_.sync_timeout);
    if (!r.lost) return r.rtt;
    count(lost_probes_, "probe.lost_probes");
  }
  count(abandoned_probes_, "probe.abandoned_probes");
  return std::nullopt;
}

SimDuration ProbeEngine::probe_flow(std::uint32_t index) {
  return try_probe(index).value_or(SimDuration{});
}

SimDuration ProbeEngine::timed_batch(const std::vector<of::FlowMod>& commands,
                                     std::size_t* rejected) {
  const SimTime batch_begin = network_.now();
  const SimTime start = sync_barrier();
  // Heap-held counter: under faults a duplicated completion notice can
  // arrive after this function returned.
  auto rejections = std::make_shared<std::size_t>(0);
  network_.post_flow_mod_batch(
      switch_id_, commands,
      [rejections](const net::Network::FlowModResult& res) {
        if (!res.accepted) ++*rejections;
      });
  const SimTime done = sync_barrier();
  if (rejected != nullptr) *rejected = *rejections;
  if (auto* t = network_.telemetry()) {
    t->trace.span("probe", "timed_batch", switch_id_, batch_begin, done,
                  {telemetry::arg("commands", std::uint64_t{commands.size()}),
                   telemetry::arg("rejected", std::uint64_t{*rejections}),
                   telemetry::arg("span_ns", (done - start).ns())});
    t->metrics.counter("probe.timed_batches").inc();
  }
  return done - start;
}

PatternMeasurement ProbeEngine::apply(const TangoPattern& pattern, ScoreDb* scores) {
  const SimTime round_begin = network_.now();
  PatternMeasurement m;
  m.pattern = pattern.name;
  m.switch_id = switch_id_;
  m.install_time = timed_batch(pattern.commands, &m.rejected);
  m.rtts.reserve(pattern.traffic.size());
  const std::size_t lost_before = lost_probes() + abandoned_probes();
  for (const auto& header : pattern.traffic) {
    for (std::size_t attempt = 0;; ++attempt) {
      const auto r = network_.probe(switch_id_, header, recovery_.sync_timeout);
      if (!r.lost) {
        m.rtts.push_back(r.rtt);
        break;
      }
      count(lost_probes_, "probe.lost_probes");
      if (attempt >= recovery_.max_probe_retries) {
        count(abandoned_probes_, "probe.abandoned_probes");
        m.rtts.push_back(SimDuration{});
        break;
      }
    }
  }
  m.lost_probes = lost_probes() + abandoned_probes() - lost_before;
  if (auto* t = network_.telemetry()) {
    // One span per probe round: pattern application end-to-end (install,
    // barrier, traffic) on the probed switch's lane.
    t->trace.span("probe", "pattern", switch_id_, round_begin, network_.now(),
                  {telemetry::arg_str("pattern", pattern.name),
                   telemetry::arg("rtts", std::uint64_t{m.rtts.size()}),
                   telemetry::arg("lost", std::uint64_t{m.lost_probes}),
                   telemetry::arg("install_ns", m.install_time.ns())});
    t->metrics.counter("probe.pattern_rounds").inc();
    t->metrics.counter("probe.rtts_collected").inc(m.rtts.size());
  }
  if (scores != nullptr) scores->record(m);
  return m;
}

const net::ChannelStats& ProbeEngine::overhead() const {
  return network_.stats(switch_id_);
}

}  // namespace tango::core
