// Indexed-vs-reference table microbenchmark: times the production (indexed)
// Tcam / SoftwareTable / MicroflowCache against the pre-index linear-scan
// reference implementations (tests/reference_table.h) in one process, and
// records both absolute throughputs and the machine-independent speedup
// ratios in BENCH_micro_tables.json. The speedup_* results are the CI
// perf gate (tools/bench_compare.py --tolerance 0.25 against
// bench/baselines/BENCH_micro_tables.json); the *_ops_per_sec results are
// informational — they track the host, not the code.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "tables/cache_policy.h"
#include "tables/software_table.h"
#include "tables/tcam.h"
#include "tango/probe_engine.h"
#include "tests/reference_table.h"

namespace {

using namespace tango;
using tables::testing::ReferenceMicroflowCache;
using tables::testing::ReferenceSoftwareTable;
using tables::testing::ReferenceTcam;
using bench::keep;
using bench::ops_per_sec;

tables::FlowEntry make_entry(std::uint32_t index, std::uint16_t priority) {
  tables::FlowEntry e;
  e.id = index;
  e.priority = priority;
  e.match = core::ProbeEngine::probe_match(index);
  e.attrs.insert_time = SimTime(static_cast<std::int64_t>(index) * 1000);
  e.attrs.last_use_time = SimTime(static_cast<std::int64_t>(index) * 1000);
  return e;
}

template <typename Table>
void fill(Table& t, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    t.insert(make_entry(static_cast<std::uint32_t>(i),
                        static_cast<std::uint16_t>(1000 + i)));
  }
}

struct Pair {
  double ref = 0;
  double idx = 0;
  [[nodiscard]] double speedup() const { return ref > 0 ? idx / ref : 0; }
};

void record(bench::BenchReport& report, const std::string& what, std::size_t n,
            const Pair& p) {
  const std::string suffix = what + "_" + std::to_string(n);
  report.json().set_result("ref_" + suffix + "_ops_per_sec", p.ref);
  report.json().set_result("idx_" + suffix + "_ops_per_sec", p.idx);
  report.json().set_result("speedup_" + suffix, p.speedup());
  std::printf("  %-28s n=%-6zu ref %12.0f/s   idx %12.0f/s   speedup %8.1fx\n",
              what.c_str(), n, p.ref, p.idx, p.speedup());
}

Pair bench_tcam_lookup(std::size_t n) {
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  fill(idx, n);
  // probe 0 sits at the bottom of the physical array: the linear scan from
  // the top walks all n entries before finding it (its worst case).
  const auto pkt = core::ProbeEngine::probe_packet(0);
  Pair p;
  p.ref = ops_per_sec([&] { keep(ref.lookup(pkt)); });
  p.idx = ops_per_sec([&] { keep(idx.lookup(pkt)); });
  return p;
}

Pair bench_tcam_churn(std::size_t n) {
  // Append-above-all install followed by delete of the same rule — the
  // probe-engine hot path. The reference delete re-finds the id linearly.
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  fill(idx, n);
  // 0xF000 stays above the fill priorities (1000..1000+n) for every n we
  // run, so the install really appends at the top instead of shifting the
  // middle of the array.
  std::uint32_t next = 1u << 20;
  Pair p;
  p.ref = ops_per_sec([&] {
    ref.insert(make_entry(next, 0xF000));
    ref.erase(next);
    ++next;
  });
  next = 1u << 20;
  p.idx = ops_per_sec([&] {
    idx.insert(make_entry(next, 0xF000));
    idx.erase(next);
    ++next;
  });
  return p;
}

Pair bench_victim_select(std::size_t n) {
  const auto policy = tables::LexCachePolicy::lru();
  ReferenceTcam ref({n + 16, tables::TcamMode::kSingleWide});
  tables::Tcam idx({n + 16, tables::TcamMode::kSingleWide});
  fill(ref, n);
  idx.set_eviction_policy(&policy);
  fill(idx, n);
  Pair p;
  p.ref = ops_per_sec([&] { keep(ref.victim_id(policy)); });
  p.idx = ops_per_sec([&] { keep(idx.victim_id()); });
  return p;
}

Pair bench_soft_lookup(std::size_t n) {
  ReferenceSoftwareTable ref(0);
  tables::SoftwareTable idx(0);
  fill(ref, n);
  fill(idx, n);
  const auto pkt = core::ProbeEngine::probe_packet(0);
  Pair p;
  p.ref = ops_per_sec([&] { keep(ref.lookup(pkt)); });
  p.idx = ops_per_sec([&] { keep(idx.lookup(pkt)); });
  return p;
}

Pair bench_soft_churn(std::size_t n) {
  // Install-then-remove cycles over a full software table: every cycle
  // appends a fresh rule, then a seeded draw removes one rule by id (the
  // fresh one), by non-strict delete of its exact match, or by pop_oldest
  // (Switch #1's FIFO promotion), keeping the table at n entries. Both
  // tables replay the same draw sequence; the reference scans for every
  // removal.
  ReferenceSoftwareTable ref(0);
  tables::SoftwareTable idx(0);
  fill(ref, n);
  fill(idx, n);
  auto cycle = [](auto& table, Rng& rng, std::uint32_t& next) {
    const auto fresh = make_entry(next, 0xF000);
    const of::Match match = fresh.match;
    table.insert(fresh);
    const std::size_t op = rng.index(10);
    if (op < 4) {
      keep(table.erase(next));
    } else if (op < 7) {
      keep(table.erase_matching(match).size());
    } else {
      keep(table.pop_oldest());
    }
    ++next;
  };
  Pair p;
  Rng ref_rng(0x50f7);
  std::uint32_t next = 1u << 20;
  p.ref = ops_per_sec([&] { cycle(ref, ref_rng, next); });
  Rng idx_rng(0x50f7);
  next = 1u << 20;
  p.idx = ops_per_sec([&] { cycle(idx, idx_rng, next); });
  return p;
}

Pair bench_microflow_invalidate(std::size_t n) {
  // Cache pre-loaded with n microflows spread over many rules; each cycle
  // installs 16 microflows for one hot rule and invalidates it. The
  // reference implementation sweeps the whole cache per invalidation.
  constexpr std::size_t kKeysPerCycle = 16;
  const FlowId hot_rule = 1u << 20;
  auto load = [&](auto& cache) {
    for (std::size_t i = 0; i < n; ++i) {
      cache.insert(core::ProbeEngine::probe_packet(static_cast<std::uint32_t>(i)),
                   /*source_rule=*/i / 8, of::output_to(2),
                   SimTime(static_cast<std::int64_t>(i)));
    }
  };
  ReferenceMicroflowCache ref(2 * n + 64);
  tables::MicroflowCache idx(2 * n + 64);
  load(ref);
  load(idx);
  auto cycle = [&](auto& cache) {
    for (std::size_t k = 0; k < kKeysPerCycle; ++k) {
      cache.insert(core::ProbeEngine::probe_packet(
                       static_cast<std::uint32_t>(3 * n + k)),
                   hot_rule, of::output_to(2), SimTime(1));
    }
    cache.invalidate_rule(hot_rule);
  };
  Pair p;
  p.ref = ops_per_sec([&] { cycle(ref); });
  p.idx = ops_per_sec([&] { cycle(idx); });
  return p;
}

}  // namespace

int main() {
  bench::print_header(
      "bench_micro_tables: indexed table core vs linear-scan reference",
      "table/data-structure scaling; observable behaviour is bit-identical "
      "(tests/test_table_diff.cpp), only the complexity changes");
  bench::BenchReport report("micro_tables");

  const std::vector<std::size_t> sizes = {1000, 10000, 50000};
  for (const std::size_t n : sizes) {
    record(report, "tcam_lookup", n, bench_tcam_lookup(n));
    record(report, "tcam_churn", n, bench_tcam_churn(n));
    record(report, "victim_select", n, bench_victim_select(n));
    record(report, "soft_lookup", n, bench_soft_lookup(n));
    record(report, "soft_churn", n, bench_soft_churn(n));
  }
  // The microflow cache sweep cost depends on cache size, not table size;
  // one representative size keeps the runtime bounded.
  record(report, "microflow_invalidate", 50000, bench_microflow_invalidate(50000));

  bench::print_footer();
  return 0;
}
