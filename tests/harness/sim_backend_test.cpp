#include "hyparview/harness/experiment.hpp"

#include <gtest/gtest.h>

#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/scale.hpp"

namespace hyparview::harness {
namespace {

TEST(NetworkConfigTest, DefaultsMatchPaperSection51) {
  const auto cfg =
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 10'000, 42);
  EXPECT_EQ(cfg.gossip.fanout, 4u);
  EXPECT_EQ(cfg.hyparview.active_capacity, 5u);   // fanout + 1
  EXPECT_EQ(cfg.hyparview.passive_capacity, 30u);
  EXPECT_EQ(cfg.hyparview.arwl, 6);
  EXPECT_EQ(cfg.hyparview.prwl, 3);
  EXPECT_EQ(cfg.hyparview.shuffle_ka, 3u);
  EXPECT_EQ(cfg.hyparview.shuffle_kp, 4u);
  EXPECT_EQ(cfg.cyclon.view_capacity, 35u);  // active + passive
  EXPECT_EQ(cfg.cyclon.shuffle_length, 14u);
  EXPECT_EQ(cfg.cyclon.join_walk_ttl, 5);
  EXPECT_EQ(cfg.scamp.c, 4u);
  EXPECT_EQ(cfg.gossip.mode, gossip::Mode::kFlood);
}

TEST(NetworkConfigTest, GossipModePerProtocol) {
  EXPECT_EQ(NetworkConfig::defaults_for(ProtocolKind::kCyclon, 100, 1)
                .gossip.mode,
            gossip::Mode::kRandomFanout);
  EXPECT_EQ(NetworkConfig::defaults_for(ProtocolKind::kCyclonAcked, 100, 1)
                .gossip.mode,
            gossip::Mode::kRandomFanoutAcked);
  EXPECT_TRUE(NetworkConfig::defaults_for(ProtocolKind::kCyclonAcked, 100, 1)
                  .cyclon.purge_on_unreachable);
  EXPECT_FALSE(NetworkConfig::defaults_for(ProtocolKind::kCyclon, 100, 1)
                   .cyclon.purge_on_unreachable);
  EXPECT_EQ(NetworkConfig::defaults_for(ProtocolKind::kScamp, 100, 1)
                .gossip.mode,
            gossip::Mode::kRandomFanout);
}

TEST(SimBackendTest, BuildJoinsEveryNode) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 1);
  SimBackend net(cfg);
  net.build();
  EXPECT_EQ(net.node_count(), 100u);
  EXPECT_EQ(net.alive_count(), 100u);
  // Every node ends up with a non-empty active view.
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    EXPECT_FALSE(net.protocol(i).dissemination_view().empty()) << i;
  }
}

TEST(SimBackendTest, FailRandomFractionCrashesExactCount) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 2);
  SimBackend net(cfg);
  net.build();
  net.fail_random_fraction(0.3);
  EXPECT_EQ(net.alive_count(), 70u);
  net.fail_random_fraction(0.5);
  EXPECT_EQ(net.alive_count(), 35u);
}

TEST(SimBackendTest, FailZeroAndValidation) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 3);
  SimBackend net(cfg);
  net.build();
  net.fail_random_fraction(0.0);
  EXPECT_EQ(net.alive_count(), 64u);
  EXPECT_THROW(net.fail_random_fraction(1.5), CheckError);
}

TEST(SimBackendTest, BroadcastRecordsReliability) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 128, 4);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);
  const auto result = net.broadcast_one();
  EXPECT_EQ(result.alive_nodes, 128u);
  EXPECT_EQ(result.delivered, 128u);
  EXPECT_DOUBLE_EQ(result.reliability(), 1.0);
  EXPECT_GT(result.max_hops, 0u);
}

TEST(SimBackendTest, BroadcastManyCollectsSequentialResults) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kCyclon, 128, 5);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);
  const auto results = net.broadcast_many(5);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) {
    EXPECT_GT(r.delivered, 0u);
    EXPECT_EQ(r.alive_nodes, 128u);
  }
}

TEST(SimBackendTest, DissemGraphAliveOnlyFiltersDead) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 6);
  SimBackend net(cfg);
  net.build();
  net.fail_random_fraction(0.5);
  const auto full = net.dissemination_graph(false);
  const auto alive = net.dissemination_graph(true);
  EXPECT_EQ(full.node_count(), 64u);
  EXPECT_EQ(alive.node_count(), 64u);
  EXPECT_LT(alive.edge_count(), full.edge_count());
}

TEST(SimBackendTest, ViewAccuracyDropsAfterFailures) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kCyclon, 128, 7);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);
  EXPECT_NEAR(net.view_accuracy(), 1.0, 1e-9);
  net.fail_random_fraction(0.5);
  const double acc = net.view_accuracy();
  // Plain Cyclon keeps dead entries: accuracy ≈ fraction alive.
  EXPECT_NEAR(acc, 0.5, 0.12);
}

TEST(SimBackendTest, AliveMaskMatchesSimulator) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 32, 8);
  SimBackend net(cfg);
  net.build();
  net.fail_random_fraction(0.25);
  const auto mask = net.alive_mask();
  std::size_t alive = 0;
  for (const bool b : mask) alive += b ? 1 : 0;
  EXPECT_EQ(alive, net.alive_count());
}

TEST(SimBackendTest, AddNodeFailsFastWhenNoAliveContactExists) {
  // Regression: add_node used to spin forever in its contact-selection
  // loop when the joiner was the only alive node (every draw came back as
  // the joiner itself). It must fail fast instead.
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 4, 3);
  SimBackend net(cfg);
  net.build();
  net.fail_random_fraction(1.0);
  ASSERT_EQ(net.alive_count(), 0u);
  EXPECT_THROW(net.add_node(), CheckError);
  // The failed join must not have registered a zombie node.
  EXPECT_EQ(net.node_count(), 4u);
}

TEST(SimBackendTest, AddNodeStillWorksWithOneSurvivor) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 4, 3);
  SimBackend net(cfg);
  net.build();
  // Kill everyone but node 0: the joiner's only possible contact.
  for (std::size_t i = 1; i < net.node_count(); ++i) {
    net.simulator().crash(net.id_of(i));
  }
  const std::size_t joined = net.add_node();
  EXPECT_TRUE(net.alive(joined));
  EXPECT_FALSE(
      net.protocol(joined).dissemination_view().empty());
}

TEST(SimBackendTest, RejectsTinyNetworks) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 1, 9);
  EXPECT_THROW(SimBackend net(cfg), CheckError);
}

/// The Figure 4 pipeline: stabilize, 10 baseline probes, crash, then heal
/// with 10 probes per cycle.
ExperimentResult run_healing(ProtocolKind kind, std::size_t nodes,
                             std::uint64_t seed, double fail_fraction,
                             std::size_t stabilize, std::size_t max_cycles) {
  auto cluster = Cluster::sim(NetworkConfig::defaults_for(kind, nodes, seed));
  return cluster.run(Experiment("healing")
                         .stabilize(stabilize)
                         .broadcast(10, "baseline")
                         .crash(fail_fraction)
                         .heal_until("baseline", max_cycles, 10, "heal"));
}

TEST(HealingTest, HealthyNetworkHealsInstantly) {
  const auto result =
      run_healing(ProtocolKind::kHyParView, 128, 10, 0.0, 3, 5);
  const PhaseResult& heal = result.phase("heal");
  EXPECT_TRUE(heal.recovered);
  EXPECT_EQ(heal.cycles_to_heal, 1u);
  EXPECT_DOUBLE_EQ(result.phase("baseline").avg_reliability(), 1.0);
}

TEST(HealingTest, HyParViewHealsQuicklyAfterModerateFailure) {
  const auto result =
      run_healing(ProtocolKind::kHyParView, 256, 11, 0.4, 5, 10);
  const PhaseResult& heal = result.phase("heal");
  EXPECT_TRUE(heal.recovered);
  EXPECT_LE(heal.cycles_to_heal, 3u);
}

TEST(HealingTest, CyclonAckedHealsWithinAFewCyclesAtModerateFailure) {
  const auto result =
      run_healing(ProtocolKind::kCyclonAcked, 256, 12, 0.4, 5, 15);
  const PhaseResult& heal = result.phase("heal");
  EXPECT_TRUE(heal.recovered);
  EXPECT_LE(heal.cycles_to_heal, 10u);
}

TEST(SimBackendTest, SetFanoutRaisesRandomGossipReliability) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kCyclon, 400, 13);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);

  const auto average = [&](std::size_t fanout) {
    net.set_fanout(fanout);
    double sum = 0.0;
    constexpr int kMsgs = 15;
    for (int i = 0; i < kMsgs; ++i) sum += net.broadcast_one().reliability();
    return sum / kMsgs;
  };
  const double low = average(1);
  const double high = average(6);
  EXPECT_LT(low, 0.9);
  EXPECT_GT(high, 0.98);
  EXPECT_EQ(net.config().gossip.fanout, 6u);
}

TEST(BenchScaleTest, QuickModeShrinks) {
  ::setenv("HPV_QUICK", "1", 1);
  const auto s = BenchScale::from_env(1000);
  EXPECT_EQ(s.nodes, 1000u);
  EXPECT_EQ(s.messages, 100u);
  ::unsetenv("HPV_QUICK");
}

TEST(BenchScaleTest, EnvOverrides) {
  ::setenv("HPV_NODES", "2500", 1);
  ::setenv("HPV_MSGS", "77", 1);
  ::setenv("HPV_RUNS", "3", 1);
  ::setenv("HPV_SEED", "99", 1);
  const auto s = BenchScale::from_env(1000);
  EXPECT_EQ(s.nodes, 2500u);
  EXPECT_EQ(s.messages, 77u);
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.seed, 99u);
  ::unsetenv("HPV_NODES");
  ::unsetenv("HPV_MSGS");
  ::unsetenv("HPV_RUNS");
  ::unsetenv("HPV_SEED");
}

TEST(BenchScaleTest, DefaultsArePaperScale) {
  const auto s = BenchScale::from_env(1000);
  EXPECT_EQ(s.nodes, 10'000u);
  EXPECT_EQ(s.messages, 1000u);
  EXPECT_EQ(s.runs, 1u);
}

TEST(KindNameTest, AllKindsNamed) {
  EXPECT_STREQ(kind_name(ProtocolKind::kHyParView), "HyParView");
  EXPECT_STREQ(kind_name(ProtocolKind::kCyclon), "Cyclon");
  EXPECT_STREQ(kind_name(ProtocolKind::kCyclonAcked), "CyclonAcked");
  EXPECT_STREQ(kind_name(ProtocolKind::kScamp), "Scamp");
  EXPECT_EQ(all_protocol_kinds().size(), 4u);
}

}  // namespace
}  // namespace hyparview::harness
