// fig4 sharding contract: run_healing_experiment points fanned out across
// the SweepRunner thread pool must be bit-identical to the serial loop.
//
// Each healing repetition builds its own SimBackend from a (config, seed)
// pair and never touches another point's state, so the result is a pure
// function of its inputs — the sharded sweep may only change wall-clock
// order. This is the same determinism contract sweep_runner_test pins for
// fig2/fig3; here it covers the fig4 driver's HealingResult aggregation
// (baseline reliability, per-cycle trajectories, cycles-to-heal, event
// counts). The TSan CI job runs this binary to race-check the pool under
// the healing workload.
#include <gtest/gtest.h>

#include <functional>

#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/sweep_runner.hpp"

namespace hyparview::harness {
namespace {

bool identical(const HealingResult& a, const HealingResult& b) {
  return a.baseline_reliability == b.baseline_reliability &&
         a.per_cycle_reliability == b.per_cycle_reliability &&
         a.cycles_to_heal == b.cycles_to_heal && a.recovered == b.recovered &&
         a.events_processed == b.events_processed;
}

/// The fig4 grid at test scale: (fraction × kind) points, row-major — the
/// exact sharding shape of bench/fig4_healing_time.cpp.
std::vector<std::pair<double, ProtocolKind>> test_points() {
  std::vector<std::pair<double, ProtocolKind>> points;
  for (const double fraction : {0.3, 0.6}) {
    for (const auto kind :
         {ProtocolKind::kHyParView, ProtocolKind::kCyclonAcked}) {
      points.emplace_back(fraction, kind);
    }
  }
  return points;
}

HealingResult run_point(double fraction, ProtocolKind kind) {
  auto cfg = NetworkConfig::defaults_for(
      kind, 128, 42 + static_cast<std::uint64_t>(fraction * 100));
  HealingConfig hcfg;
  hcfg.fail_fraction = fraction;
  hcfg.probes_per_cycle = 3;
  hcfg.max_cycles = 8;
  hcfg.stabilization_cycles = 5;
  return run_healing_experiment(cfg, hcfg);
}

TEST(HealingShardTest, ShardedRepetitionsBitIdenticalToSerialLoop) {
  const auto points = test_points();

  // Serial reference: the plain loop, in index order.
  std::vector<HealingResult> serial;
  serial.reserve(points.size());
  for (const auto& [fraction, kind] : points) {
    serial.push_back(run_point(fraction, kind));
  }

  // Sharded: one job per point, results into pre-sized slots, aggregated
  // in index order after run() returns (the SweepRunner contract).
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<HealingResult> sharded(points.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      jobs.push_back([&, i] {
        sharded[i] = run_point(points[i].first, points[i].second);
      });
    }
    SweepRunner runner(threads);
    const auto seconds = runner.run(jobs);
    ASSERT_EQ(seconds.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_TRUE(identical(serial[i], sharded[i]))
          << "point " << i << " diverged at " << threads << " threads: "
          << "serial(cycles=" << serial[i].cycles_to_heal
          << ", events=" << serial[i].events_processed << ") vs sharded(cycles="
          << sharded[i].cycles_to_heal
          << ", events=" << sharded[i].events_processed << ")";
    }
  }
}

TEST(HealingShardTest, HealingResultIsAPureFunctionOfConfigAndSeed) {
  // The premise the sharding rests on: repeated runs of one point agree
  // exactly, including the full per-cycle reliability trajectory.
  const auto a = run_point(0.5, ProtocolKind::kHyParView);
  const auto b = run_point(0.5, ProtocolKind::kHyParView);
  EXPECT_TRUE(identical(a, b));
  EXPECT_GT(a.baseline_reliability, 0.9);  // sane healing experiment
}

}  // namespace
}  // namespace hyparview::harness
