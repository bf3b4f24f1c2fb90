// Differential acceptance layer for the parallel seed-sweep engine: the
// same sweep config run with 1, 2, and 8 workers must produce
// byte-identical soak reports (the exact JSON the tools write),
// byte-identical console narratives, and the same sweep fingerprint —
// across all three harness families (chaos, HA, tenant isolation). Plus
// unit properties of the pool itself (index-ordered results regardless of
// completion order, deterministic exception propagation) and of the one
// sweep collector (console lines of any length arrive whole).
//
// This test is also the ThreadSanitizer workload for the runner: it
// drives every harness through real concurrent workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/logging.h"
#include "runner/pool.h"
#include "runner/soak.h"

namespace tango::runner {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Chaos runs log fault storms; keep test output clean like the tools.
    log::set_threshold(log::Level::kError);
    log::set_rate_limit(20);
  }
};

// ---------------------------------------------------------------------------
// Pool properties
// ---------------------------------------------------------------------------

TEST_F(RunnerTest, PoolReturnsResultsInIndexOrder) {
  // Early jobs sleep longest, so completion order is roughly reversed —
  // the output order must not care.
  const auto out = run_indexed(16, 8, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
    return i * 10;
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
}

TEST_F(RunnerTest, PoolRunsEveryJobExactlyOnce) {
  std::atomic<std::uint64_t> sum{0};
  const auto out = run_indexed(100, 8, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
    return i;
  });
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(sum.load(), 4950u);
}

TEST_F(RunnerTest, PoolRethrowsLowestIndexedFailure) {
  // Jobs 3 and 7 throw; job 3's exception must surface regardless of
  // scheduling, and the healthy jobs must still have run.
  std::atomic<int> ran{0};
  try {
    run_indexed(10, 4, [&](std::size_t i) -> int {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("three");
      if (i == 7) throw std::runtime_error("seven");
      return static_cast<int>(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST_F(RunnerTest, PoolSerialPathMatchesParallel) {
  const auto serial = run_indexed(9, 1, [](std::size_t i) { return i * i; });
  const auto parallel = run_indexed(9, 3, [](std::size_t i) { return i * i; });
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Differential sweeps: serial vs 2 vs 8 workers, byte for byte
// ---------------------------------------------------------------------------

void expect_identical(const SweepOutcome& a, const SweepOutcome& b,
                      const char* what) {
  EXPECT_EQ(a.report.to_json(), b.report.to_json()) << what;
  EXPECT_EQ(a.text, b.text) << what;
  EXPECT_EQ(a.sweep_fingerprint, b.sweep_fingerprint) << what;
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
}

TEST_F(RunnerTest, ChaosSweepIsWorkerCountInvariant) {
  ChaosSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 3;  // x 3 workloads x 2 policies = 18 runs
  cfg.out_dir.clear();
  SweepOptions serial;
  serial.workers = 1;
  serial.verbose = true;  // ok-lines carry fingerprints: compare them too
  const auto base = run_chaos_sweep(cfg, serial);
  EXPECT_EQ(base.runs, 18u);
  for (const std::size_t w : {2u, 8u}) {
    SweepOptions opt = serial;
    opt.workers = w;
    expect_identical(base, run_chaos_sweep(cfg, opt),
                     ("chaos workers=" + std::to_string(w)).c_str());
  }
}

TEST_F(RunnerTest, HaSweepIsWorkerCountInvariant) {
  ChaosSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 5;  // seeds 1..5 cover all five failover scenarios
  cfg.workloads = {chaos::Workload::kFig10};
  cfg.out_dir.clear();
  SweepOptions serial;
  serial.workers = 1;
  serial.verbose = true;
  const auto base = run_ha_sweep(cfg, serial);
  EXPECT_EQ(base.runs, 10u);
  for (const std::size_t w : {2u, 8u}) {
    SweepOptions opt = serial;
    opt.workers = w;
    expect_identical(base, run_ha_sweep(cfg, opt),
                     ("ha workers=" + std::to_string(w)).c_str());
  }
}

TEST_F(RunnerTest, ServiceSweepIsWorkerCountInvariant) {
  ServiceSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 8;
  cfg.tenants = 3;
  cfg.intents = 2;
  SweepOptions serial;
  serial.workers = 1;
  serial.verbose = true;
  const auto base = run_service_sweep(cfg, serial);
  EXPECT_EQ(base.runs, 8u);
  for (const std::size_t w : {2u, 8u}) {
    SweepOptions opt = serial;
    opt.workers = w;
    expect_identical(base, run_service_sweep(cfg, opt),
                     ("service workers=" + std::to_string(w)).c_str());
  }
}

// ---------------------------------------------------------------------------
// The collector itself
// ---------------------------------------------------------------------------

TEST_F(RunnerTest, CollectorPrintsLongViolationLinesInFull) {
  // A detail longer than any fixed formatting buffer, then a second failing
  // run: both FAIL blocks must reach the narrative whole, with no stray
  // bytes.
  const std::string detail(600, 'x');
  SweepOutcome out("TEST_soak");
  SweepOptions opt;
  collect_sweep(
      out, "test", 1, 2, std::vector<std::uint64_t>{1, 2}, opt,
      [&](std::uint64_t seed) {
        SweepRun run;
        run.label = "seed " + std::to_string(seed);
        run.violations.push_back({"image-agreement", detail});
        return run;
      },
      [](const SweepRun&, telemetry::RunReport::Row&) {});
  const std::string block = ": 1 violation(s)\n      image-agreement: " +
                            detail + "\n";
  EXPECT_EQ(out.text, "FAIL  seed 1" + block + "FAIL  seed 2" + block);
  EXPECT_EQ(out.violations, 2u);
}

TEST_F(RunnerTest, CollectorNamesFiredOraclesOnViolatingRowsOnly) {
  SweepOutcome out("TEST_soak");
  collect_sweep(
      out, "test", 1, 2, std::vector<std::uint64_t>{1, 2}, SweepOptions{},
      [](std::uint64_t seed) {
        SweepRun run;
        run.row.col("seed", static_cast<double>(seed));
        if (seed == 2) {
          run.violations = {{"verifier", "a"},
                            {"image-agreement", "b"},
                            {"verifier", "c"}};
        }
        return run;
      },
      [](const SweepRun&, telemetry::RunReport::Row&) {});
  const auto json = out.report.to_json();
  EXPECT_NE(json.find("{\"seed\": 1}"), std::string::npos) << json;
  EXPECT_NE(json.find("{\"seed\": 2, \"oracles\": \"verifier,image-agreement\"}"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Wall-clock surfacing
// ---------------------------------------------------------------------------

TEST_F(RunnerTest, WallClockIsOptInAndOutsideTheFingerprint) {
  ChaosSweepConfig cfg;
  cfg.seed_lo = 1;
  cfg.seed_hi = 1;
  cfg.workloads = {chaos::Workload::kFig10};
  cfg.out_dir.clear();
  SweepOptions plain;
  plain.workers = 1;
  const auto base = run_chaos_sweep(cfg, plain);
  SweepOptions wall = plain;
  wall.wall = true;
  const auto timed = run_chaos_sweep(cfg, wall);
  // Same simulated behaviour…
  EXPECT_EQ(base.sweep_fingerprint, timed.sweep_fingerprint);
  // …but the timed report carries the extra columns/keys.
  const auto json = timed.report.to_json();
  EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos.wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"chaos.sweep_wall_ms\""), std::string::npos);
  EXPECT_EQ(base.report.to_json().find("wall_ms"), std::string::npos);
  // And the sweep wall is measured whether or not it is reported.
  EXPECT_GT(base.total_wall_ns, 0u);
  EXPECT_GT(timed.total_wall_ns, 0u);
}

}  // namespace
}  // namespace tango::runner
