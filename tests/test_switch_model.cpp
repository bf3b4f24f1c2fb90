// Behavioural tests for the simulated switch architectures: OVS microflow
// caching, Switch #1 FIFO promotion, TCAM-only rejection, and the general
// policy-cache model the inference algorithms target.
#include <gtest/gtest.h>

#include "switchsim/profiles.h"
#include "switchsim/switch_model.h"
#include "tango/probe_engine.h"

namespace tango::switchsim {
namespace {

using core::ProbeEngine;

of::FlowMod add_rule(std::uint32_t index, std::uint16_t priority = 0x8000) {
  return ProbeEngine::probe_add(index, priority);
}

of::Packet packet_for(std::uint32_t index) {
  of::Packet p;
  p.header = ProbeEngine::probe_packet(index);
  return p;
}

SimTime at(std::int64_t ms_value) { return SimTime{ms_value * 1000000}; }

// ---------------------------------------------------------------------------
// OVS
// ---------------------------------------------------------------------------

TEST(OvsSwitch, RulesLandInUserTable) {
  SimulatedSwitch sw(1, profiles::ovs());
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto out = sw.apply_flow_mod(add_rule(i), at(i));
    EXPECT_TRUE(out.accepted);
  }
  EXPECT_EQ(sw.software_size(), 10u);
  EXPECT_EQ(sw.microflow_size(), 0u);  // no traffic yet
}

TEST(OvsSwitch, FirstPacketSlowPathSecondFastPath) {
  SimulatedSwitch sw(1, profiles::ovs());
  sw.apply_flow_mod(add_rule(0), at(0));
  const auto first = sw.forward(packet_for(0), at(1));
  EXPECT_EQ(first.kind, ForwardOutcome::Kind::kForwarded);
  EXPECT_EQ(first.level, 1u);  // user-space slow path
  EXPECT_EQ(sw.microflow_size(), 1u);
  const auto second = sw.forward(packet_for(0), at(2));
  EXPECT_EQ(second.level, 0u);  // kernel microflow fast path
  EXPECT_LT(second.delay, first.delay);
}

TEST(OvsSwitch, UnmatchedPacketGoesToController) {
  SimulatedSwitch sw(1, profiles::ovs());
  const auto out = sw.forward(packet_for(999), at(0));
  EXPECT_EQ(out.kind, ForwardOutcome::Kind::kToController);
}

TEST(OvsSwitch, DeleteInvalidatesMicroflows) {
  SimulatedSwitch sw(1, profiles::ovs());
  sw.apply_flow_mod(add_rule(0), at(0));
  sw.forward(packet_for(0), at(1));
  ASSERT_EQ(sw.microflow_size(), 1u);
  auto del = add_rule(0);
  del.command = of::FlowModCommand::kDelete;
  sw.apply_flow_mod(del, at(2));
  EXPECT_EQ(sw.microflow_size(), 0u);
  EXPECT_EQ(sw.forward(packet_for(0), at(3)).kind,
            ForwardOutcome::Kind::kToController);
}

TEST(OvsSwitch, ModifyInvalidatesMicroflowsAndRetargets) {
  SimulatedSwitch sw(1, profiles::ovs());
  sw.apply_flow_mod(add_rule(0), at(0));
  sw.forward(packet_for(0), at(1));
  auto mod = add_rule(0);
  mod.command = of::FlowModCommand::kModify;
  mod.actions = of::output_to(5);
  sw.apply_flow_mod(mod, at(2));
  const auto out = sw.forward(packet_for(0), at(3));
  EXPECT_EQ(out.level, 1u);  // microflow was dropped: back to slow path once
  EXPECT_EQ(out.out_port, 5);
}

// ---------------------------------------------------------------------------
// Switch #1: FIFO two-level
// ---------------------------------------------------------------------------

SwitchProfile small_switch1(std::size_t tcam_entries) {
  auto p = profiles::switch1(tables::TcamMode::kSingleWide);
  p.cache_levels[0].capacity_slots = tcam_entries;
  p.install_default_route = false;
  return p;
}

TEST(FifoSwitch, OverflowGoesToSoftwareInOrder) {
  SimulatedSwitch sw(1, small_switch1(5));
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(sw.apply_flow_mod(add_rule(i), at(i)).accepted);
  }
  EXPECT_EQ(sw.level_size(0), 5u);
  EXPECT_EQ(sw.software_size(), 3u);
  // Placement is traffic-independent: first 5 are in TCAM.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sw.forward(packet_for(i), at(100 + i)).level, 0u) << i;
  }
  for (std::uint32_t i = 5; i < 8; ++i) {
    EXPECT_EQ(sw.forward(packet_for(i), at(100 + i)).level, 1u) << i;
  }
}

TEST(FifoSwitch, DeleteFromTcamPromotesOldestSoftwareEntry) {
  SimulatedSwitch sw(1, small_switch1(5));
  for (std::uint32_t i = 0; i < 8; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  auto del = add_rule(2);
  del.command = of::FlowModCommand::kDelete;
  sw.apply_flow_mod(del, at(50));
  EXPECT_EQ(sw.level_size(0), 5u);  // refilled
  EXPECT_EQ(sw.software_size(), 2u);
  // Flow 5 (oldest software entry) was promoted.
  EXPECT_EQ(sw.forward(packet_for(5), at(60)).level, 0u);
  EXPECT_EQ(sw.forward(packet_for(6), at(61)).level, 1u);
}

TEST(FifoSwitch, TrafficDoesNotReorderPlacement) {
  SimulatedSwitch sw(1, small_switch1(3));
  for (std::uint32_t i = 0; i < 6; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  // Hammer a software-resident flow; unlike a policy cache it must stay put.
  for (int k = 0; k < 20; ++k) sw.forward(packet_for(5), at(10 + k));
  EXPECT_EQ(sw.forward(packet_for(5), at(100)).level, 1u);
  EXPECT_EQ(sw.forward(packet_for(0), at(101)).level, 0u);
}

TEST(FifoSwitch, DefaultRouteOccupiesOneSlot) {
  auto profile = small_switch1(4);
  profile.install_default_route = true;
  SimulatedSwitch sw(1, profile);
  EXPECT_EQ(sw.level_size(0), 1u);
  for (std::uint32_t i = 0; i < 4; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  EXPECT_EQ(sw.level_size(0), 4u);  // 3 probe rules + default
  EXPECT_EQ(sw.software_size(), 1u);
  // Unmatched traffic hits the default route and goes to the controller.
  EXPECT_EQ(sw.forward(packet_for(77), at(10)).kind,
            ForwardOutcome::Kind::kToController);
}

// ---------------------------------------------------------------------------
// Switch #2/#3: TCAM only
// ---------------------------------------------------------------------------

TEST(TcamOnlySwitch, RejectsWhenFull) {
  auto profile = profiles::switch2();
  profile.cache_levels[0].capacity_slots = 8;  // 4 double-wide entries
  profile.install_default_route = false;
  SimulatedSwitch sw(1, profile);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sw.apply_flow_mod(add_rule(i), at(i)).accepted);
  }
  const auto out = sw.apply_flow_mod(add_rule(4), at(5));
  EXPECT_FALSE(out.accepted);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->type, of::ErrorType::kFlowModFailed);
  EXPECT_EQ(out.error->code,
            static_cast<std::uint16_t>(of::FlowModFailedCode::kAllTablesFull));
}

TEST(TcamOnlySwitch, TwoTierDelays) {
  auto profile = profiles::switch2();
  profile.install_default_route = false;
  SimulatedSwitch sw(1, profile);
  sw.apply_flow_mod(add_rule(0), at(0));
  const auto fast = sw.forward(packet_for(0), at(1));
  const auto ctrl = sw.forward(packet_for(1), at(2));
  EXPECT_EQ(fast.kind, ForwardOutcome::Kind::kForwarded);
  EXPECT_EQ(ctrl.kind, ForwardOutcome::Kind::kToController);
  EXPECT_GT(ctrl.delay.ms(), fast.delay.ms() * 5);
}

TEST(TcamOnlySwitch, Switch3AdaptiveCapacities) {
  // Table 1: 767 L3-only entries, 383 double-wide.
  SimulatedSwitch sw(1, profiles::switch3());
  std::size_t accepted = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    if (sw.apply_flow_mod(add_rule(i), at(i)).accepted) ++accepted;
  }
  EXPECT_EQ(accepted, 767u - 1);  // default route holds one slot
}

// ---------------------------------------------------------------------------
// Policy cache
// ---------------------------------------------------------------------------

SwitchProfile lru_cache_profile(std::size_t size) {
  return profiles::policy_cache("lru-test", {size}, tables::LexCachePolicy::lru());
}

TEST(PolicyCacheSwitch, InsertEvictsPolicyVictimDownward) {
  // FIFO policy: newest insertions stay in the fast level.
  auto profile = profiles::policy_cache("fifo-test", {3},
                                        tables::LexCachePolicy::fifo());
  SimulatedSwitch sw(1, profile);
  for (std::uint32_t i = 0; i < 6; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  EXPECT_EQ(sw.level_size(0), 3u);
  EXPECT_EQ(sw.software_size(), 3u);
  // Newest three (3,4,5) must be resident in level 0.
  for (std::uint32_t i = 3; i < 6; ++i) {
    EXPECT_TRUE(sw.resident_at_level(ProbeEngine::probe_match(i), 0x8000, 0)) << i;
  }
}

TEST(PolicyCacheSwitch, LruPromotesHotFlows) {
  SimulatedSwitch sw(1, lru_cache_profile(3));
  for (std::uint32_t i = 0; i < 6; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  // Touch an evicted flow: with LRU it must displace the coldest resident.
  const auto slow = sw.forward(packet_for(0), at(100));
  EXPECT_GE(slow.level, 1u);  // observed in the slow tier at probe time
  const auto again = sw.forward(packet_for(0), at(101));
  EXPECT_EQ(again.level, 0u);  // promoted
}

TEST(PolicyCacheSwitch, LruSteadyStateIsTopNByUse) {
  SimulatedSwitch sw(1, lru_cache_profile(4));
  for (std::uint32_t i = 0; i < 8; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  // Use flows 0..3 most recently.
  for (std::uint32_t i = 0; i < 4; ++i) sw.forward(packet_for(i), at(200 + i));
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sw.forward(packet_for(i), at(300 + i)).level, 0u) << i;
  }
}

TEST(PolicyCacheSwitch, CacheHitDoesNotChangeResidency) {
  // The size-probing algorithm's core assumption (§5.2).
  SimulatedSwitch sw(1, lru_cache_profile(4));
  for (std::uint32_t i = 0; i < 8; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  const auto levels_before = [&] {
    std::vector<std::size_t> v;
    for (std::uint32_t i = 0; i < 8; ++i) {
      v.push_back(sw.resident_at_level(ProbeEngine::probe_match(i), 0x8000, 0) ? 0 : 1);
    }
    return v;
  }();
  // Probe only resident flows.
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (levels_before[i] == 0) sw.forward(packet_for(i), at(500 + i));
  }
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(sw.resident_at_level(ProbeEngine::probe_match(i), 0x8000, 0),
              levels_before[i] == 0)
        << i;
  }
}

TEST(PolicyCacheSwitch, MultiLevelFillsTopDown) {
  auto profile = profiles::policy_cache("ml", {2, 3}, tables::LexCachePolicy::fifo());
  SimulatedSwitch sw(1, profile);
  for (std::uint32_t i = 0; i < 7; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  EXPECT_EQ(sw.level_size(0), 2u);
  EXPECT_EQ(sw.level_size(1), 3u);
  EXPECT_EQ(sw.software_size(), 2u);
}

TEST(PolicyCacheSwitch, NoBackingRejectsWhenAllLevelsFull) {
  auto profile = profiles::policy_cache("nb", {2}, tables::LexCachePolicy::fifo(),
                                        /*software_backing=*/false);
  SimulatedSwitch sw(1, profile);
  EXPECT_TRUE(sw.apply_flow_mod(add_rule(0), at(0)).accepted);
  EXPECT_TRUE(sw.apply_flow_mod(add_rule(1), at(1)).accepted);
  // With no backing store an eviction would drop an installed rule, so the
  // switch must reject instead of displacing.
  const auto out = sw.apply_flow_mod(add_rule(2), at(2));
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(sw.total_rules(), 2u);
}

// ---------------------------------------------------------------------------
// Generic OpenFlow semantics
// ---------------------------------------------------------------------------

TEST(SwitchSemantics, StrictDuplicateAddReplacesInPlace) {
  SimulatedSwitch sw(1, small_switch1(10));
  sw.apply_flow_mod(add_rule(0), at(0));
  auto replace = add_rule(0);
  replace.actions = of::output_to(7);
  sw.apply_flow_mod(replace, at(1));
  EXPECT_EQ(sw.total_rules(), 1u);
  EXPECT_EQ(sw.forward(packet_for(0), at(2)).out_port, 7);

  // The same ADD against a rule resident in the software table replaces it
  // there: no promotion, no second copy.
  SimulatedSwitch fifo(1, small_switch1(5));
  for (std::uint32_t i = 0; i < 8; ++i) fifo.apply_flow_mod(add_rule(i), at(i));
  ASSERT_EQ(fifo.software_size(), 3u);
  auto soft_replace = add_rule(6);
  soft_replace.actions = of::output_to(7);
  fifo.apply_flow_mod(soft_replace, at(10));
  EXPECT_EQ(fifo.software_size(), 3u);
  EXPECT_EQ(fifo.total_rules(), 8u);
  const auto out = fifo.forward(packet_for(6), at(11));
  EXPECT_EQ(out.level, 1u);
  EXPECT_EQ(out.out_port, 7);
}

TEST(SwitchSemantics, ModifyWithNoMatchActsAsAdd) {
  SimulatedSwitch sw(1, small_switch1(10));
  auto mod = add_rule(3);
  mod.command = of::FlowModCommand::kModify;
  mod.actions = of::output_to(4);
  EXPECT_TRUE(sw.apply_flow_mod(mod, at(0)).accepted);
  EXPECT_EQ(sw.total_rules(), 1u);
  EXPECT_EQ(sw.forward(packet_for(3), at(1)).out_port, 4);
}

TEST(SwitchSemantics, NonStrictDeleteUsesSubsumption) {
  SimulatedSwitch sw(1, small_switch1(10));
  for (std::uint32_t i = 0; i < 6; ++i) sw.apply_flow_mod(add_rule(i), at(i));
  of::FlowMod del;
  del.command = of::FlowModCommand::kDelete;
  del.match = of::Match::any();
  sw.apply_flow_mod(del, at(10));
  EXPECT_EQ(sw.total_rules(), 0u);
}

TEST(SwitchSemantics, StrictDeleteRemovesExactlyOne) {
  SimulatedSwitch sw(1, small_switch1(10));
  sw.apply_flow_mod(add_rule(0, 100), at(0));
  sw.apply_flow_mod(add_rule(1, 100), at(1));
  auto del = add_rule(0, 100);
  del.command = of::FlowModCommand::kDeleteStrict;
  sw.apply_flow_mod(del, at(2));
  EXPECT_EQ(sw.total_rules(), 1u);
  EXPECT_EQ(sw.forward(packet_for(1), at(3)).kind,
            ForwardOutcome::Kind::kForwarded);

  // A strict delete of a software-resident rule removes that rule only.
  SimulatedSwitch fifo(1, small_switch1(5));
  for (std::uint32_t i = 0; i < 8; ++i) fifo.apply_flow_mod(add_rule(i), at(i));
  ASSERT_EQ(fifo.software_size(), 3u);
  auto soft_del = add_rule(6);
  soft_del.command = of::FlowModCommand::kDeleteStrict;
  fifo.apply_flow_mod(soft_del, at(10));
  EXPECT_EQ(fifo.total_rules(), 7u);
  EXPECT_EQ(fifo.level_size(0), 5u);
  EXPECT_EQ(fifo.software_size(), 2u);
  EXPECT_EQ(fifo.forward(packet_for(6), at(11)).kind,
            ForwardOutcome::Kind::kToController);
  for (const std::uint32_t i : {5u, 7u}) {
    EXPECT_EQ(fifo.forward(packet_for(i), at(12 + i)).level, 1u) << i;
  }
}

TEST(SwitchSemantics, MaxTotalRulesIsEnforced) {
  auto profile = profiles::ovs();
  profile.max_total_rules = 3;
  SimulatedSwitch sw(1, profile);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(sw.apply_flow_mod(add_rule(i), at(i)).accepted);
  }
  EXPECT_FALSE(sw.apply_flow_mod(add_rule(3), at(3)).accepted);
}

TEST(SwitchSemantics, FlowStatsReportCountersAndPriorities) {
  SimulatedSwitch sw(1, small_switch1(10));
  sw.apply_flow_mod(add_rule(0, 123), at(0));
  sw.forward(packet_for(0), at(1));
  sw.forward(packet_for(0), at(2));
  const auto stats = sw.flow_stats(of::Match::any());
  ASSERT_EQ(stats.entries.size(), 1u);
  EXPECT_EQ(stats.entries[0].priority, 123);
  EXPECT_EQ(stats.entries[0].packet_count, 2u);
  EXPECT_GT(stats.entries[0].byte_count, 0u);
}

TEST(SwitchSemantics, TableStatsDescribeLevels) {
  SimulatedSwitch sw(1, small_switch1(10));
  sw.apply_flow_mod(add_rule(0), at(0));
  const auto stats = sw.table_stats();
  ASSERT_EQ(stats.entries.size(), 2u);  // TCAM + software
  EXPECT_EQ(stats.entries[0].active_count, 1u);
  EXPECT_EQ(stats.entries[1].name, "software");
}

TEST(SwitchSemantics, FeaturesReplyDescribesSwitch) {
  SimulatedSwitch sw(42, profiles::switch2());
  const auto f = sw.features();
  EXPECT_EQ(f.datapath_id, 42u);
  EXPECT_EQ(f.n_tables, 1);
  EXPECT_EQ(f.ports.size(), profiles::switch2().n_ports);
}

TEST(SwitchSemantics, ResetRestoresCleanState) {
  SimulatedSwitch sw(1, profiles::switch1());
  sw.apply_flow_mod(add_rule(0), at(0));
  sw.reset();
  EXPECT_EQ(sw.total_rules(), 1u);  // the reinstalled default route
  EXPECT_EQ(sw.forward(packet_for(0), at(1)).kind,
            ForwardOutcome::Kind::kToController);
}

TEST(SwitchSemantics, ProcessingTimeGrowsWithShifts) {
  auto profile = small_switch1(3000);
  profile.costs.jitter_frac = 0;  // deterministic for the comparison
  SimulatedSwitch sw(1, profile);
  // Fill with 2000 ascending entries.
  for (std::uint32_t i = 0; i < 2000; ++i) {
    sw.apply_flow_mod(add_rule(i, static_cast<std::uint16_t>(100 + i)), at(i));
  }
  // Appending above costs far less than inserting below everything.
  const auto cheap = sw.apply_flow_mod(add_rule(9000, 9000), at(3000));
  const auto expensive = sw.apply_flow_mod(add_rule(9001, 1), at(3001));
  EXPECT_GT(expensive.processing_time.ms(), cheap.processing_time.ms() * 10);
  EXPECT_EQ(expensive.shifts, 2001u);
}

}  // namespace
}  // namespace tango::switchsim
