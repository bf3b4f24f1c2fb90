// Figure 3(a) reproduction: total installation time for the six
// permutations of 200 adds, 200 modifications, and 200 deletions on HW
// Switch #1 (1000 random-priority rules preinstalled).
//
// Order matters because deletions shrink the TCAM before subsequent adds
// shift fewer entries (and type-grouped runs batch in the agent), so
// del-first permutations win — why the Tango scheduler always issues DEL
// first, then MOD, then ADD.
#include "bench/bench_util.h"
#include "switchsim/profiles.h"

namespace {

using namespace tango;
using core::ProbeEngine;

constexpr std::size_t kPreinstalled = 1000;
constexpr std::size_t kOps = 200;

std::vector<of::FlowMod> adds(Rng& rng) {
  std::vector<of::FlowMod> out;
  for (std::size_t i = 0; i < kOps; ++i) {
    out.push_back(ProbeEngine::probe_add(
        static_cast<std::uint32_t>(kPreinstalled + i),
        static_cast<std::uint16_t>(rng.uniform_int(1000, 1999))));
  }
  return out;
}

std::vector<of::FlowMod> dels(Rng& rng) {
  std::vector<of::FlowMod> out;
  for (std::size_t i = 0; i < kOps; ++i) {
    auto fm = ProbeEngine::probe_add(
        static_cast<std::uint32_t>(rng.uniform_int(0, kPreinstalled / 2 - 1)));
    fm.command = of::FlowModCommand::kDelete;
    out.push_back(std::move(fm));
  }
  return out;
}

std::vector<of::FlowMod> mods(Rng& rng) {
  std::vector<of::FlowMod> out;
  for (std::size_t i = 0; i < kOps; ++i) {
    auto fm = ProbeEngine::probe_add(static_cast<std::uint32_t>(
        rng.uniform_int(kPreinstalled / 2, kPreinstalled - 1)));
    fm.command = of::FlowModCommand::kModify;
    fm.actions = of::output_to(3);
    out.push_back(std::move(fm));
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 3(a): 200 adds + 200 mods + 200 dels in all six orders, HW #1",
      "permutation order changes total install time (roughly 10-15 s range); "
      "del-before-add orders are cheapest");

  const char* kNames[6] = {"add_del_mod", "add_mod_del", "mod_del_add",
                           "mod_add_del", "del_mod_add", "del_add_mod"};
  const int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {2, 1, 0},
                            {2, 0, 1}, {1, 2, 0}, {1, 0, 2}};
  constexpr int kTrials = 10;

  std::printf("%-12s | mean (s) | stddev | trials\n", "permutation");
  std::printf("-------------+----------+--------+-------\n");

  for (int p = 0; p < 6; ++p) {
    std::vector<double> times;
    for (int trial = 0; trial < kTrials; ++trial) {
      net::Network net;
      const auto id = net.add_switch(switchsim::profiles::switch1());
      core::ProbeEngine probe(net, id);
      Rng rng(1000 + trial);
      // Preinstall 1000 rules at random priorities.
      auto pre = core::random_priorities(kPreinstalled, rng, 1000);
      probe.timed_batch(core::make_add_batch(0, kPreinstalled, pre));

      // Build the three op groups (same rng stream per trial across perms
      // would be ideal; same seed per trial gives comparable groups).
      Rng op_rng(500 + trial);
      std::vector<std::vector<of::FlowMod>> groups;
      groups.push_back(adds(op_rng));
      groups.push_back(dels(op_rng));
      groups.push_back(mods(op_rng));

      std::vector<of::FlowMod> sequence;
      for (int g = 0; g < 3; ++g) {
        const auto& group = groups[static_cast<std::size_t>(kPerms[p][g])];
        sequence.insert(sequence.end(), group.begin(), group.end());
      }
      times.push_back(probe.timed_batch(sequence).sec());
    }
    const auto s = bench::stats_of(times);
    std::printf("%-12s | %8.3f | %6.3f | %d\n", kNames[p], s.mean, s.stddev,
                kTrials);
  }

  std::printf("\nShape check: del-first permutations should be fastest, add-first\n"
              "slowest (deletes shrink the table before the adds shift it).\n");
  bench::print_footer();
  return 0;
}
