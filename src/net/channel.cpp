#include "net/channel.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "openflow/epoch.h"

namespace tango::net {

ControlChannel::ControlChannel(sim::EventQueue& events,
                               switchsim::SimulatedSwitch& sw,
                               SimDuration one_way_latency)
    : events_(events), switch_(sw), latency_(one_way_latency) {}

namespace {

const char* command_name(of::FlowModCommand c) {
  switch (c) {
    case of::FlowModCommand::kAdd: return "flow_mod:add";
    case of::FlowModCommand::kModify: return "flow_mod:modify";
    case of::FlowModCommand::kModifyStrict: return "flow_mod:modify_strict";
    case of::FlowModCommand::kDelete: return "flow_mod:delete";
    case of::FlowModCommand::kDeleteStrict: return "flow_mod:delete_strict";
  }
  return "flow_mod";
}

}  // namespace

void ControlChannel::set_telemetry(telemetry::Telemetry* t, SwitchId lane) {
  telemetry_ = t;
  lane_ = lane;
  if (t == nullptr) {
    ctr_flow_mods_ = nullptr;
    ctr_rejected_ = nullptr;
    hist_flow_mod_us_ = nullptr;
    return;
  }
  ctr_flow_mods_ = &t->metrics.counter("switch.flow_mods");
  ctr_rejected_ = &t->metrics.counter("switch.flow_mods_rejected");
  hist_flow_mod_us_ = &t->metrics.histogram(
      "switch.flow_mod_us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 50000});
}

void ControlChannel::send(of::Message msg) {
  // Round-trip through the codec: what arrives is what the wire carried.
  auto frame = of::encode(msg);
  stats_.messages_to_switch += 1;
  stats_.bytes_to_switch += frame.size();
  deliver_to_switch(std::move(frame));
}

void ControlChannel::send_batch(std::span<of::Message> msgs) {
  if (msgs.empty()) return;
  if (injector_ != nullptr) {
    // Fault plans are per frame (drop/duplicate/corrupt decide message by
    // message), so a faulted batch degenerates to sequential sends.
    for (auto& m : msgs) send(std::move(m));
    return;
  }
  auto buf = acquire_buffer();
  const std::size_t bytes = of::encode_batch(msgs, buf);
  stats_.messages_to_switch += msgs.size();
  stats_.bytes_to_switch += bytes;
  // One arrival event decodes the frames in order. Sequential send() calls
  // would schedule one event per frame at this same instant with ascending
  // sequence numbers; no other event can slot between them, so processing
  // all frames inside one event is observationally identical.
  events_.schedule_after(latency_, [this, f = std::move(buf)]() mutable {
    std::size_t offset = 0;
    while (offset + of::kHeaderLen <= f.size()) {
      const std::size_t len =
          (static_cast<std::size_t>(f[offset + 2]) << 8) | f[offset + 3];
      auto decoded = of::decode(
          std::span<const std::uint8_t>(f).subspan(offset, len));
      assert(decoded.ok());
      on_arrival(decoded.value());
      offset += len;
    }
    release_buffer(std::move(f));
  });
}

std::vector<std::uint8_t> ControlChannel::acquire_buffer() {
  if (spare_bufs_.empty()) return {};
  auto buf = std::move(spare_bufs_.back());
  spare_bufs_.pop_back();
  return buf;
}

void ControlChannel::release_buffer(std::vector<std::uint8_t> buf) {
  if (spare_bufs_.size() >= 4) return;  // cap pooled capacity
  buf.clear();
  spare_bufs_.push_back(std::move(buf));
}

void ControlChannel::deliver_to_switch(std::vector<std::uint8_t> frame) {
  if (injector_ == nullptr) {
    events_.schedule_after(latency_, [this, frame = std::move(frame)]() {
      auto decoded = of::decode(frame);
      assert(decoded.ok());
      on_arrival(decoded.value());
    });
    return;
  }
  for (auto& d : injector_->plan(FaultInjector::Direction::kToSwitch,
                                 std::move(frame), events_.now())) {
    const std::uint64_t epoch = epoch_;
    events_.schedule_after(
        latency_ + d.extra_delay, [this, epoch, f = std::move(d.frame)]() {
          if (epoch != epoch_) {
            if (injector_) ++injector_->mutable_stats().lost_to_crash;
            return;
          }
          if (agent_down(events_.now())) {
            if (injector_) ++injector_->mutable_stats().lost_to_down;
            return;
          }
          auto decoded = of::decode(f);
          if (!decoded.ok()) {
            if (injector_) ++injector_->mutable_stats().undecodable;
            log::warn("channel: discarding undecodable frame (" +
                      decoded.error() + ")");
            return;
          }
          on_arrival(decoded.value());
        });
  }
}

void ControlChannel::reply(of::Message msg, SimTime at) {
  auto frame = of::encode(msg);
  stats_.messages_to_controller += 1;
  stats_.bytes_to_controller += frame.size();
  if (injector_ == nullptr) {
    events_.schedule_at(at + latency_, [this, frame = std::move(frame)]() {
      auto decoded = of::decode(frame);
      assert(decoded.ok());
      if (on_message_) on_message_(decoded.value());
    });
    return;
  }
  for (auto& d : injector_->plan(FaultInjector::Direction::kToController,
                                 std::move(frame), at)) {
    const std::uint64_t epoch = epoch_;
    events_.schedule_at(
        at + latency_ + d.extra_delay, [this, epoch, f = std::move(d.frame)]() {
          // A crash loses replies still on the wire along with everything
          // else (the control connection resets).
          if (epoch != epoch_) {
            if (injector_) ++injector_->mutable_stats().lost_to_crash;
            return;
          }
          auto decoded = of::decode(f);
          if (!decoded.ok()) {
            if (injector_) ++injector_->mutable_stats().undecodable;
            return;
          }
          if (on_message_) on_message_(decoded.value());
        });
  }
}

void ControlChannel::notify(SimTime at, std::function<void()> fn) {
  SimDuration extra{};
  if (injector_ != nullptr) {
    const auto plan = injector_->plan_notification(at);
    if (!plan.has_value()) return;  // the controller never hears about it
    extra = *plan;
  }
  const std::uint64_t epoch = epoch_;
  events_.schedule_at(at + extra, [this, epoch, fn = std::move(fn)]() {
    if (epoch != epoch_) {
      if (injector_) ++injector_->mutable_stats().lost_to_crash;
      return;
    }
    fn();
  });
}

void ControlChannel::attach_fault_injector(FaultInjector* injector) {
  injector_ = injector;
  if (injector_ == nullptr) return;
  if (injector_->config().crash_at.ns() > 0) {
    const SimDuration downtime = injector_->config().crash_downtime;
    events_.schedule_at(injector_->config().crash_at,
                        [this, downtime]() { crash_agent(downtime); });
  }
  // Declaratively scheduled faults (chaos schedules drive these lists).
  const FaultInjector* expected = injector_;
  for (const auto& c : injector_->config().crashes) {
    events_.schedule_at(c.at, [this, expected, downtime = c.downtime]() {
      if (injector_ == expected) crash_agent(downtime);
    });
  }
  for (const auto& s : injector_->config().stalls) {
    events_.schedule_at(s.at, [this, expected, duration = s.duration]() {
      if (injector_ == expected) stall_agent(duration);
    });
  }
  for (const auto& p : injector_->config().partitions) {
    events_.schedule_at(p.at, [this, expected, duration = p.duration]() {
      if (injector_ != expected) return;
      ++injector_->mutable_stats().partitions;
      if (telemetry_ != nullptr) {
        telemetry_->trace.instant(
            "fault", "partition", lane_, events_.now(),
            {telemetry::arg("duration_ns", duration.ns())});
        telemetry_->metrics.counter("faults.partitions").inc();
      }
      log::warn("channel: control-channel partition for " +
                std::to_string(duration.ms()) + "ms");
    });
  }
}

void ControlChannel::crash_agent(SimDuration downtime) {
  ++epoch_;  // everything in flight (both directions) is lost
  switch_.reset();  // power-on state: tables wiped, counters cleared
  down_until_ = events_.now() + downtime;
  busy_until_ = down_until_;
  if (injector_) ++injector_->mutable_stats().crashes;
  if (telemetry_ != nullptr) {
    telemetry_->trace.instant(
        "fault", "crash", lane_, events_.now(),
        {telemetry::arg("downtime_ns", downtime.ns())});
    telemetry_->metrics.counter("faults.crashes").inc();
  }
  log::warn("channel: agent crashed; tables wiped, back at " +
            std::to_string(down_until_.ms()) + "ms");
  if (on_crash_) on_crash_();
}

void ControlChannel::stall_agent(SimDuration duration) {
  busy_until_ = std::max(busy_until_, events_.now() + duration);
  if (injector_) ++injector_->mutable_stats().stalls;
  if (telemetry_ != nullptr) {
    telemetry_->trace.instant(
        "fault", "stall", lane_, events_.now(),
        {telemetry::arg("duration_ns", duration.ns())});
    telemetry_->metrics.counter("faults.stalls").inc();
  }
}

void ControlChannel::on_arrival(const of::Message& msg) {
  // Lazy timeout processing: expiry is applied no later than the next
  // controller interaction with the switch.
  switch_.sweep_timeouts(events_.now());
  if (injector_ != nullptr) {
    const SimDuration stall = injector_->draw_stall();
    if (stall.ns() > 0) {
      busy_until_ = std::max(busy_until_, events_.now() + stall);
      if (telemetry_ != nullptr) {
        telemetry_->trace.instant(
            "fault", "stall", lane_, events_.now(),
            {telemetry::arg("duration_ns", stall.ns())});
        telemetry_->metrics.counter("faults.stalls").inc();
      }
    }
  }
  handle(msg);
  // Ship any FLOW_REMOVED / PORT_STATUS notices the sweep or handling
  // produced (unsolicited: xid 0).
  for (auto& fr : switch_.drain_removals()) {
    reply(of::Message{0, std::move(fr)}, events_.now());
  }
  for (auto& ps : switch_.drain_port_status()) {
    reply(of::Message{0, std::move(ps)}, events_.now());
  }
}

void ControlChannel::handle(const of::Message& msg) {
  const SimTime now = events_.now();

  if (const auto* fm = std::get_if<of::FlowMod>(&msg.body)) {
    stats_.flow_mods += 1;
    const SimTime start = std::max(now, busy_until_);
    // Table state mutates at completion time; completion drives callbacks.
    const of::FlowMod fm_copy = *fm;
    const std::uint32_t xid = msg.xid;
    // Reserve the agent: we must know the processing time, which requires
    // applying the command — apply lazily at start time via an event.
    // We approximate by applying now but time-stamping at start; since the
    // controller serializes commands per switch through this queue, the
    // application order equals the queue order.
    auto outcome = switch_.apply_flow_mod(fm_copy, start);
    busy_until_ = start + outcome.processing_time;
    const bool accepted = outcome.accepted;
    if (telemetry_ != nullptr) {
      // The agent's busy slice for this command: queue wait excluded, so
      // lanes show contention as gaps between arrival and start.
      telemetry_->trace.span("switch", command_name(fm_copy.command), lane_,
                             start, busy_until_,
                             {telemetry::arg("xid", std::uint64_t{xid}),
                              telemetry::arg("accepted", accepted)});
      ctr_flow_mods_->inc();
      if (!accepted) ctr_rejected_->inc();
      hist_flow_mod_us_->observe(outcome.processing_time.us());
    }
    if (outcome.error.has_value()) {
      reply(of::Message{xid, *outcome.error}, busy_until_);
    }
    const SimTime done = busy_until_;
    notify(done, [this, xid, accepted, done, err = outcome.error]() {
      if (on_flow_mod_) on_flow_mod_(xid, accepted, done, err);
    });
    return;
  }

  if (const auto* po = std::get_if<of::PacketOut>(&msg.body)) {
    stats_.packets_out += 1;
    auto pkt = of::Packet::decode(po->data);
    if (!pkt.ok()) {
      log::warn("channel: undecodable packet_out payload");
      return;
    }
    // Data plane: forwarded immediately, independent of the agent queue.
    const auto outcome = switch_.forward(pkt.value(), now);
    const std::uint32_t xid = msg.xid;
    if (outcome.kind == switchsim::ForwardOutcome::Kind::kToController) {
      // The packet comes back to the controller as a PACKET_IN.
      of::PacketIn pin;
      pin.in_port = pkt.value().header.in_port;
      pin.reason = of::PacketInReason::kNoMatch;
      pin.total_len = static_cast<std::uint16_t>(pkt.value().total_len());
      pin.data = pkt.value().encode();
      reply(of::Message{xid, pin}, now + outcome.delay);
    }
    notify(now + outcome.delay, [this, xid, outcome]() {
      if (on_probe_) on_probe_(xid, outcome);
    });
    return;
  }

  if (std::holds_alternative<of::BarrierRequest>(msg.body)) {
    // Replied only after every queued command completes.
    reply(of::Message{msg.xid, of::BarrierReply{}}, std::max(now, busy_until_));
    return;
  }

  if (const auto* echo = std::get_if<of::EchoRequest>(&msg.body)) {
    reply(of::Message{msg.xid, of::EchoReply{echo->payload}}, now);
    return;
  }

  if (std::holds_alternative<of::FeaturesRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.features()}, now + micros(200));
    return;
  }

  if (const auto* fsr = std::get_if<of::FlowStatsRequest>(&msg.body)) {
    // A table of more than ~680 rules overflows one frame: the reply goes
    // out in parts, flagged OFPSF_REPLY_MORE until the last.
    for (auto& part : of::split_flow_stats(switch_.flow_stats(fsr->match))) {
      reply(of::Message{msg.xid, std::move(part)}, now + micros(500));
    }
    return;
  }

  if (std::holds_alternative<of::TableStatsRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.table_stats()}, now + micros(300));
    return;
  }

  if (std::holds_alternative<of::GetConfigRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.config()}, now);
    return;
  }

  if (const auto* cfg = std::get_if<of::SetConfig>(&msg.body)) {
    switch_.set_config(*cfg);  // no reply, per OF 1.0
    return;
  }

  if (const auto* pm = std::get_if<of::PortMod>(&msg.body)) {
    switch_.apply_port_mod(*pm);
    return;
  }

  if (const auto* vendor = std::get_if<of::Vendor>(&msg.body)) {
    // Tango epoch-claim extension (HA failover fencing; openflow/epoch.h):
    // decode the claim, let the switch arbitrate monotonicity, and echo the
    // verdict plus its current epoch back on the same xid.
    if (vendor->vendor_id == of::kTangoVendorId) {
      if (const auto claim = of::decode_epoch_payload(vendor->data);
          claim.has_value() && claim->subtype == of::kEpochClaimSubtype) {
        const auto verdict = switch_.claim_epoch(claim->epoch);
        of::Vendor rep;
        rep.vendor_id = of::kTangoVendorId;
        rep.data = of::encode_epoch_payload(
            of::kEpochClaimReplySubtype, verdict.current_epoch,
            verdict.accepted ? of::kEpochClaimAccepted : 0);
        reply(of::Message{msg.xid, rep}, now);
        return;
      }
    }
    // Any other vendor extension: OFPBRC_BAD_VENDOR.
    of::ErrorMsg err;
    err.type = of::ErrorType::kBadRequest;
    err.code = 3;  // OFPBRC_BAD_VENDOR
    reply(of::Message{msg.xid, err}, now);
    return;
  }

  if (const auto* agg = std::get_if<of::AggregateStatsRequest>(&msg.body)) {
    reply(of::Message{msg.xid, switch_.aggregate_stats(agg->match)},
          now + micros(500));
    return;
  }

  if (std::holds_alternative<of::DescStatsRequest>(msg.body)) {
    reply(of::Message{msg.xid, switch_.description()}, now + micros(200));
    return;
  }

  if (const auto* psr = std::get_if<of::PortStatsRequest>(&msg.body)) {
    reply(of::Message{msg.xid, switch_.port_stats(psr->port_no)},
          now + micros(300));
    return;
  }

  if (std::holds_alternative<of::Hello>(msg.body)) {
    reply(of::Message{msg.xid, of::Hello{}}, now);
    return;
  }

  log::warn("channel: unhandled message type " +
            of::type_name(of::type_of(msg.body)));
}

}  // namespace tango::net
