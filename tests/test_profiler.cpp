// Tests for the latency profiler (the measurement side of the Tango
// "rewriting patterns"): it must expose the priority-order asymmetry on
// hardware-style switches and the flatness of OVS, plus the score database
// plumbing.
#include <gtest/gtest.h>

#include "net/network.h"
#include "switchsim/profiles.h"
#include "tango/latency_profiler.h"
#include "tango/tango.h"

namespace tango::core {
namespace {

namespace profiles = switchsim::profiles;

OpCostEstimate profile_switch(const switchsim::SwitchProfile& profile,
                              ScoreDb* scores = nullptr) {
  net::Network net;
  const auto id = net.add_switch(profile);
  ProbeEngine probe(net, id);
  return profile_op_costs(probe, {}, scores);
}

TEST(PrioritySequences, GeneratorsProduceExpectedOrders) {
  const auto asc = ascending_priorities(5);
  EXPECT_EQ(asc, (std::vector<std::uint16_t>{100, 101, 102, 103, 104}));
  const auto desc = descending_priorities(5);
  EXPECT_EQ(desc, (std::vector<std::uint16_t>{104, 103, 102, 101, 100}));
  const auto same = constant_priorities(3, 42);
  EXPECT_EQ(same, (std::vector<std::uint16_t>{42, 42, 42}));
  Rng rng(1);
  auto rand = random_priorities(5, rng);
  std::sort(rand.begin(), rand.end());
  EXPECT_EQ(rand, asc);  // same multiset, shuffled
}

TEST(MakeAddBatch, BuildsSequentialProbeRules) {
  const auto batch = make_add_batch(10, 3, {7, 8, 9});
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].priority, 7);
  EXPECT_EQ(batch[2].priority, 9);
  EXPECT_EQ(batch[0].command, of::FlowModCommand::kAdd);
  EXPECT_NE(batch[0].match, batch[1].match);
}

TEST(Profiler, HardwareSwitchIsPrioritySensitive) {
  const auto est = profile_switch(profiles::switch1());
  EXPECT_GT(est.add_descending_ms, est.add_ascending_ms * 2)
      << "desc " << est.add_descending_ms << " asc " << est.add_ascending_ms;
  EXPECT_GT(est.add_random_ms, est.add_ascending_ms);
  EXPECT_LT(est.add_same_priority_ms, est.add_ascending_ms);
  EXPECT_TRUE(est.priority_sensitive());
  EXPECT_DOUBLE_EQ(est.best_add_ms(),
                   std::min(est.add_ascending_ms, est.add_same_priority_ms));
}

TEST(Profiler, OvsIsPriorityInsensitive) {
  const auto est = profile_switch(profiles::ovs());
  EXPECT_LT(est.add_descending_ms, est.add_ascending_ms * 1.3);
  EXPECT_FALSE(est.priority_sensitive());
  // OVS per-rule adds sit in the tens of microseconds (Fig 8 scale).
  EXPECT_LT(est.add_ascending_ms, 0.2);
}

TEST(Profiler, ModCheaperThanShiftingAddsOnHardware) {
  const auto est = profile_switch(profiles::switch1());
  // Fig 3(b): modifying existing entries avoids TCAM shifting and ends up
  // several times cheaper than random adds at depth.
  EXPECT_LT(est.mod_ms, est.add_random_ms);
}

TEST(Profiler, RecordsPatternsIntoScoreDb) {
  ScoreDb scores;
  profile_switch(profiles::switch1(), &scores);
  EXPECT_NE(scores.find(1, "add.ascending"), nullptr);
  EXPECT_NE(scores.find(1, "add.descending"), nullptr);
  EXPECT_NE(scores.find(1, "mod.existing"), nullptr);
  EXPECT_NE(scores.find(1, "del.existing"), nullptr);
  const auto* asc = scores.find(1, "add.ascending");
  EXPECT_GT(asc->install_time.ns(), 0);
  EXPECT_EQ(asc->switch_id, 1u);
}

TEST(ScoreDbTest, OverwritesAndQueriesPerSwitch) {
  ScoreDb db;
  PatternMeasurement m;
  m.pattern = "p";
  m.switch_id = 3;
  m.install_time = millis(5);
  db.record(m);
  m.install_time = millis(7);
  db.record(m);  // overwrite
  ASSERT_NE(db.find(3, "p"), nullptr);
  EXPECT_DOUBLE_EQ(db.find(3, "p")->install_time.ms(), 7.0);
  EXPECT_EQ(db.for_switch(3).size(), 1u);
  EXPECT_TRUE(db.for_switch(9).empty());
  EXPECT_EQ(db.size(), 1u);
}

TEST(ProbeEngineTest, ApplyPatternMeasuresInstallAndTraffic) {
  net::Network net;
  const auto id = net.add_switch(profiles::switch2());
  ProbeEngine probe(net, id);

  TangoPattern pattern;
  pattern.name = "probe.test";
  pattern.commands = make_add_batch(0, 10, constant_priorities(10));
  for (std::uint32_t i = 0; i < 10; ++i) {
    pattern.traffic.push_back(ProbeEngine::probe_packet(i));
  }
  ScoreDb scores;
  const auto m = probe.apply(pattern, &scores);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_GT(m.install_time.ms(), 0.0);
  ASSERT_EQ(m.rtts.size(), 10u);
  for (const auto& rtt : m.rtts) {
    EXPECT_NEAR(rtt.ms(), 0.4, 0.2);  // switch2 fast path
  }
  EXPECT_NE(scores.find(id, "probe.test"), nullptr);
}

TEST(ProbeEngineTest, ClearRulesEmptiesSwitch) {
  net::Network net;
  const auto id = net.add_switch(profiles::switch1());
  ProbeEngine probe(net, id);
  for (std::uint32_t i = 0; i < 5; ++i) probe.install(i);
  EXPECT_GT(net.sw(id).total_rules(), 0u);
  probe.clear_rules();
  EXPECT_EQ(net.sw(id).total_rules(), 0u);
}

TEST(ProbeEngineTest, TimedBatchReportsRejections) {
  net::Network net;
  auto profile = profiles::switch2();
  profile.cache_levels[0].capacity_slots = 8;  // 4 entries
  profile.install_default_route = false;
  const auto id = net.add_switch(profile);
  ProbeEngine probe(net, id);
  std::size_t rejected = 0;
  probe.timed_batch(make_add_batch(0, 10, constant_priorities(10)), &rejected);
  EXPECT_EQ(rejected, 6u);
}

// ---------------------------------------------------------------------------
// TangoController facade: full learn() pipeline
// ---------------------------------------------------------------------------

TEST(TangoControllerTest, LearnsPolicyCacheSwitchEndToEnd) {
  net::Network net;
  const auto id = net.add_switch(
      profiles::policy_cache("learned", {200}, tables::LexCachePolicy::lru()));
  TangoController tango(net);
  LearnOptions options;
  options.size.max_rules = 600;
  const auto& know = tango.learn(id, options);

  EXPECT_EQ(know.switch_id, id);
  ASSERT_EQ(know.sizes.clusters.size(), 2u);
  EXPECT_NEAR(know.sizes.layer_sizes[0], 200.0, 10.0);
  ASSERT_TRUE(know.policy.has_value());
  ASSERT_FALSE(know.policy->policy.keys().empty());
  EXPECT_EQ(know.policy->policy.keys()[0].attr, tables::Attribute::kUseTime);
  EXPECT_GT(know.costs.add_descending_ms, know.costs.add_ascending_ms);

  // learn() caches; a second call must not re-probe (same address back).
  const auto& again = tango.learn(id, options);
  EXPECT_EQ(&know, &again);
  EXPECT_TRUE(tango.knows(id));
  EXPECT_FALSE(tango.knows(id + 77));

  const auto text = know.summary();
  EXPECT_NE(text.find("use_time"), std::string::npos);
  EXPECT_NE(text.find("layers=["), std::string::npos);
}

TEST(TangoControllerTest, SkipsPolicyForUnboundedSwitch) {
  net::Network net;
  const auto id = net.add_switch(profiles::ovs());
  TangoController tango(net);
  LearnOptions options;
  options.size.max_rules = 256;
  const auto& know = tango.learn(id, options);
  EXPECT_FALSE(know.policy.has_value());
  EXPECT_EQ(know.fast_table_size(), 0u);  // unbounded
}

}  // namespace
}  // namespace tango::core
