// fig4 sharding contract: the points of specs/fig4.json fanned out across
// the SweepRunner thread pool must be bit-identical to the serial loop.
//
// Each healing point builds its own SimBackend from a (config, seed) pair
// and never touches another point's state, so its result is a pure function
// of its inputs — the sharded sweep may only change wall-clock order. This
// is the contract hpv_run relies on when it runs a sweep on HPV_THREADS;
// here it covers the heal_until aggregation (baseline reliability,
// per-cycle trajectories, cycles-to-heal, event counts) over the committed
// Figure 4 grid. The TSan CI job runs this binary to race-check the pool
// under the healing workload.
#include <gtest/gtest.h>

#include <functional>

#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/sweep_runner.hpp"

namespace hyparview::harness {
namespace {

struct HealDigest {
  double baseline = 0.0;
  std::vector<double> per_cycle;
  std::size_t cycles_to_heal = 0;
  bool recovered = false;
  std::uint64_t events = 0;

  friend bool operator==(const HealDigest&, const HealDigest&) = default;
};

/// specs/fig4.json's points at test scale: 128 nodes, 5 stabilization
/// rounds, 3 probes per heal cycle and at most 8 heal cycles.
std::vector<SweepPoint> test_points() {
  ScalePatch scale;
  scale.nodes = 128;
  scale.messages = 3;
  std::vector<SweepPoint> points =
      load_sweep_file(spec_path("fig4"), /*runs=*/1, scale);
  for (SweepPoint& point : points) {
    for (Experiment::Phase& phase : point.spec.experiment.mutable_phases()) {
      if (phase.kind == Experiment::PhaseKind::kCycles) phase.cycles = 5;
      if (phase.kind == Experiment::PhaseKind::kHealUntil) phase.cycles = 8;
    }
  }
  return points;
}

HealDigest run_point(const SweepPoint& point) {
  auto cluster = Cluster::sim(point.spec.net);
  const ExperimentResult result = cluster.run(point.spec.experiment);
  const PhaseResult& heal = result.phase("heal");
  return {result.phase("baseline").avg_reliability(), heal.reliabilities,
          heal.cycles_to_heal, heal.recovered, cluster->events_processed()};
}

TEST(HealingShardTest, ShardedFig4PointsBitIdenticalToSerialLoop) {
  const std::vector<SweepPoint> points = test_points();
  ASSERT_EQ(points.size(), 27u);  // 9 failure fractions x 3 protocols

  // Serial reference: the plain loop, in index order.
  std::vector<HealDigest> serial;
  serial.reserve(points.size());
  for (const SweepPoint& point : points) serial.push_back(run_point(point));

  // Sharded: one job per point, results into pre-sized slots, compared in
  // index order after run() returns (the SweepRunner contract).
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<HealDigest> sharded(points.size());
    std::vector<std::function<void()>> jobs;
    jobs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      jobs.push_back([&, i] { sharded[i] = run_point(points[i]); });
    }
    const auto seconds = SweepRunner(threads).run(jobs);
    ASSERT_EQ(seconds.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_TRUE(serial[i] == sharded[i])
          << "point " << i << " " << points[i].patches.dump()
          << " diverged at " << threads << " threads: serial(cycles="
          << serial[i].cycles_to_heal << ", events=" << serial[i].events
          << ") vs sharded(cycles=" << sharded[i].cycles_to_heal
          << ", events=" << sharded[i].events << ")";
    }
  }
}

TEST(HealingShardTest, HealingPointIsAPureFunctionOfConfigAndSeed) {
  // The premise the sharding rests on: repeated runs of one point agree
  // exactly, including the full per-cycle reliability trajectory.
  const std::vector<SweepPoint> points = test_points();
  const SweepPoint& hyparview_50 = points[4 * 3];  // 50% failures, HyParView
  ASSERT_EQ(hyparview_50.spec.net.kind, ProtocolKind::kHyParView);
  const HealDigest a = run_point(hyparview_50);
  EXPECT_TRUE(a == run_point(hyparview_50));
  EXPECT_GT(a.baseline, 0.9);  // sane healing experiment
}

}  // namespace
}  // namespace hyparview::harness
