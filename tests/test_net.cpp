// Tests for the network layer: topology routing, the control channel's
// queueing/barrier semantics, the Network facade, and the B4 graph.
#include <gtest/gtest.h>

#include <chrono>

#include "net/b4.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"
#include "scheduler/executor.h"
#include "scheduler/schedulers.h"
#include "switchsim/profiles.h"
#include "tango/probe_engine.h"

namespace tango::net {
namespace {

using core::ProbeEngine;
using switchsim::profiles::ovs;
using switchsim::profiles::switch1;
using switchsim::profiles::switch2;

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

Topology diamond() {
  // 0 - 1 - 3 with a slower detour 0 - 2 - 3.
  Topology t;
  for (int i = 0; i < 4; ++i) t.add_node("n" + std::to_string(i));
  t.add_link(0, 1, micros(10));
  t.add_link(1, 3, micros(10));
  t.add_link(0, 2, micros(100));
  t.add_link(2, 3, micros(100));
  return t;
}

TEST(TopologyTest, ShortestPathPrefersLowLatency) {
  const auto t = diamond();
  const auto path = t.shortest_path(0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 1u);
}

TEST(TopologyTest, FailoverReroutesThroughDetour) {
  auto t = diamond();
  ASSERT_TRUE(t.fail_link_between(0, 1).has_value());
  const auto path = t.shortest_path(0, 3);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 2u);
}

TEST(TopologyTest, UnreachableReturnsEmpty) {
  auto t = diamond();
  t.fail_link_between(0, 1);
  t.fail_link_between(0, 2);
  EXPECT_TRUE(t.shortest_path(0, 3).empty());
}

TEST(TopologyTest, TrivialPathToSelf) {
  const auto t = diamond();
  const auto path = t.shortest_path(2, 2);
  ASSERT_EQ(path.size(), 1u);
}

TEST(TopologyTest, DisjointPathsAreLinkDisjoint) {
  const auto t = diamond();
  const auto paths = t.disjoint_paths(0, 3, 3);
  ASSERT_EQ(paths.size(), 2u);  // only two exist
  EXPECT_EQ(paths[0][1], 1u);
  EXPECT_EQ(paths[1][1], 2u);
}

TEST(TopologyTest, NeighborsRespectLinkState) {
  auto t = diamond();
  EXPECT_EQ(t.neighbors(0).size(), 2u);
  t.fail_link_between(0, 1);
  EXPECT_EQ(t.neighbors(0).size(), 1u);
}

TEST(B4TopologyTest, TwelveSitesNineteenLinksConnected) {
  const auto t = b4_topology();
  EXPECT_EQ(t.node_count(), 12u);
  EXPECT_EQ(t.link_count(), 19u);
  for (NodeId a = 0; a < 12; ++a) {
    for (NodeId b = a + 1; b < 12; ++b) {
      EXPECT_FALSE(t.shortest_path(a, b).empty()) << a << "->" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Channel + Network facade
// ---------------------------------------------------------------------------

TEST(NetworkTest, InstallAcceptedAndRejected) {
  Network net;
  auto profile = switch2();
  profile.cache_levels[0].capacity_slots = 4;  // 2 entries
  profile.install_default_route = false;
  const auto sw = net.add_switch(profile);

  EXPECT_TRUE(net.install(sw, ProbeEngine::probe_add(0)).accepted);
  EXPECT_TRUE(net.install(sw, ProbeEngine::probe_add(1)).accepted);
  EXPECT_FALSE(net.install(sw, ProbeEngine::probe_add(2)).accepted);
  EXPECT_EQ(net.sw(sw).total_rules(), 2u);
}

TEST(NetworkTest, InstallAdvancesVirtualTime) {
  Network net;
  const auto sw = net.add_switch(switch1());
  const auto t0 = net.now();
  net.install(sw, ProbeEngine::probe_add(0));
  EXPECT_GT(net.now(), t0);
}

TEST(NetworkTest, CommandsProcessSequentially) {
  Network net;
  auto profile = switch1();
  profile.costs.jitter_frac = 0;
  const auto sw = net.add_switch(profile);

  std::vector<SimTime> completions;
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.post_flow_mod(sw, ProbeEngine::probe_add(i, 0x8000),
                      [&](const Network::FlowModResult& res) {
                        completions.push_back(res.completed_at);
                      });
  }
  net.run_all();
  ASSERT_EQ(completions.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GT(completions[i], completions[i - 1]);
  }
  // Back-to-back same-priority adds: roughly add_same + discounted
  // overhead apart.
  const auto gap = completions[2] - completions[1];
  EXPECT_NEAR(gap.ms(), 0.4 + 0.4 * 0.15, 0.08);
}

TEST(NetworkTest, BarrierWaitsForQueuedCommands) {
  Network net;
  const auto sw = net.add_switch(switch1());
  for (std::uint32_t i = 0; i < 20; ++i) {
    net.post_flow_mod(sw, ProbeEngine::probe_add(i), [](const Network::FlowModResult&) {});
  }
  const auto barrier_at = net.barrier_sync(sw);
  EXPECT_GE(barrier_at, net.channel(sw).agent_busy_until());
  EXPECT_EQ(net.sw(sw).total_rules(), 21u);  // 20 + default route
}

TEST(NetworkTest, ProbeMeasuresPathTiers) {
  Network net;
  const auto sw = net.add_switch(ovs());
  net.install(sw, ProbeEngine::probe_add(0));

  const auto miss = net.probe(sw, ProbeEngine::probe_packet(9));
  EXPECT_EQ(miss.outcome.kind, switchsim::ForwardOutcome::Kind::kToController);

  const auto slow = net.probe(sw, ProbeEngine::probe_packet(0));
  EXPECT_EQ(slow.outcome.level, 1u);
  const auto fast = net.probe(sw, ProbeEngine::probe_packet(0));
  EXPECT_EQ(fast.outcome.level, 0u);
  EXPECT_LT(fast.rtt, slow.rtt);
}

TEST(NetworkTest, ChannelStatsCountMessagesAndBytes) {
  Network net;
  const auto sw = net.add_switch(switch2());
  const auto before = net.stats(sw);
  net.install(sw, ProbeEngine::probe_add(0));
  net.probe(sw, ProbeEngine::probe_packet(0));
  net.barrier_sync(sw);
  const auto& after = net.stats(sw);
  EXPECT_EQ(after.flow_mods - before.flow_mods, 1u);
  EXPECT_EQ(after.packets_out - before.packets_out, 1u);
  EXPECT_GE(after.messages_to_switch - before.messages_to_switch, 3u);
  EXPECT_GT(after.bytes_to_switch, before.bytes_to_switch);
  EXPECT_GT(after.messages_to_controller, 0u);  // barrier reply
}

// A table past ~680 rules overflows one frame's 16-bit length: the agent
// replies in OFPSF_REPLY_MORE parts and both readback calls join them —
// with and without a (fault-free) injector on the channel.
TEST(NetworkTest, FlowStatsReadbackJoinsMultiPartReplies) {
  for (const bool injector : {false, true}) {
    Network net;
    const auto sw = net.add_switch(ovs());
    if (injector) net.enable_faults(sw, FaultConfig{});
    for (std::uint32_t i = 0; i < 2000; ++i) {
      net.post_flow_mod(sw, ProbeEngine::probe_add(i, static_cast<std::uint16_t>(i)),
                        [](const Network::FlowModResult&) {});
    }
    net.run_all();
    const auto truth = net.sw(sw).flow_stats(of::Match::any());
    ASSERT_GE(truth.entries.size(), 2000u);

    const auto replies_before = net.stats(sw).messages_to_controller;
    EXPECT_EQ(net.flow_stats_sync(sw, of::Match::any()), truth);
    EXPECT_GT(net.stats(sw).messages_to_controller - replies_before, 1u);
    const auto tried = net.try_flow_stats(sw, of::Match::any());
    ASSERT_TRUE(tried.has_value());
    EXPECT_EQ(*tried, truth);
    if (injector) {
      EXPECT_EQ(net.fault_injector(sw)->stats().undecodable, 0u);
    }
  }
}

// wall_ns() covers every stretch of event-loop stepping, including the
// synchronous stats and handshake requests.
TEST(NetworkTest, WallClockCountsSynchronousStatsRequests) {
  Network net;
  const auto sw = net.add_switch(switch1());
  const auto before = net.wall_ns();
  const auto reply = net.table_stats_sync(sw);
  EXPECT_FALSE(reply.entries.empty());
  EXPECT_GT(net.wall_ns(), before);
}

// The executor pumps the queue through Network::step(), so a commit's
// event-loop time lands in wall_ns() — once, never more than the wall time
// the whole call took.
TEST(NetworkTest, WallClockCountsCommitPath) {
  Network net;
  const auto sw = net.add_switch(switch1());
  sched::RequestDag dag;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    sched::SwitchRequest r;
    r.location = sw;
    r.type = sched::RequestType::kAdd;
    r.priority = 0x8000;
    r.match = ProbeEngine::probe_match(i);
    r.actions = of::output_to(2);
    dag.add(r);
  }
  sched::DionysusScheduler scheduler;
  const auto before = net.wall_ns();
  const auto t0 = std::chrono::steady_clock::now();
  const auto report = sched::execute(net, dag, scheduler);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(report.issued, 2000u);
  const auto counted = net.wall_ns() - before;
  EXPECT_GT(counted, 0u);
  EXPECT_LE(counted, static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                             .count()));
}

TEST(NetworkTest, SwitchesAreIndependentEndpoints) {
  Network net;
  const auto a = net.add_switch(switch1());
  const auto b = net.add_switch(ovs());
  net.install(a, ProbeEngine::probe_add(0));
  EXPECT_EQ(net.sw(b).total_rules(), 0u);
  EXPECT_EQ(net.sw(a).id(), a);
  EXPECT_EQ(net.sw(b).id(), b);
}

TEST(NetworkTest, ParallelSwitchesOverlapInTime) {
  // Two switches each processing a batch: makespan should be far below the
  // serial sum because agents run concurrently in simulated time.
  Network net;
  auto profile = switch1();
  profile.costs.jitter_frac = 0;
  const auto a = net.add_switch(profile);
  const auto b = net.add_switch(profile);
  for (std::uint32_t i = 0; i < 50; ++i) {
    net.post_flow_mod(a, ProbeEngine::probe_add(i), [](const Network::FlowModResult&) {});
    net.post_flow_mod(b, ProbeEngine::probe_add(i), [](const Network::FlowModResult&) {});
  }
  const auto t0 = net.now();
  net.run_all();
  const auto elapsed = net.now() - t0;
  const auto serial_one = millis(0.4 + 0.06) * 50;  // loose upper bound/switch
  EXPECT_LT(elapsed.ns(), (serial_one * 2).ns());
}

TEST(NetworkTest, Build4NetworkMirrorsTopology) {
  Network net;
  const auto ids = build_b4(net, ovs());
  EXPECT_EQ(ids.size(), 12u);
  EXPECT_EQ(net.topology().node_count(), 12u);
  EXPECT_EQ(net.topology().link_count(), 19u);
  EXPECT_FALSE(net.topology()
                   .shortest_path(Network::node_of(ids[0]), Network::node_of(ids[11]))
                   .empty());
}

}  // namespace
}  // namespace tango::net
