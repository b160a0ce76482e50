// Reproducibility: identical seeds give identical experiments; different
// seeds give different (but statistically similar) ones.
#include <gtest/gtest.h>

#include "hyparview/harness/experiment.hpp"

namespace hyparview::harness {
namespace {

struct RunDigest {
  std::vector<double> reliabilities;
  std::uint64_t messages_sent = 0;
  TimePoint final_time = 0;

  friend bool operator==(const RunDigest&, const RunDigest&) = default;
};

RunDigest run_experiment(ProtocolKind kind, std::uint64_t seed) {
  auto cfg = NetworkConfig::defaults_for(kind, 200, seed);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  net.fail_random_fraction(0.4);
  RunDigest digest;
  for (int i = 0; i < 10; ++i) {
    digest.reliabilities.push_back(net.broadcast_one().reliability());
  }
  digest.messages_sent = net.simulator().messages_sent();
  digest.final_time = net.simulator().now();
  return digest;
}

class DeterminismTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(DeterminismTest, SameSeedSameRun) {
  EXPECT_EQ(run_experiment(GetParam(), 77), run_experiment(GetParam(), 77));
}

TEST_P(DeterminismTest, DifferentSeedDifferentRun) {
  EXPECT_NE(run_experiment(GetParam(), 77), run_experiment(GetParam(), 78));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DeterminismTest,
    ::testing::Values(ProtocolKind::kHyParView, ProtocolKind::kCyclon,
                      ProtocolKind::kCyclonAcked, ProtocolKind::kScamp),
    [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
      return kind_name(param_info.param);
    });

TEST(DeterminismTest2, HealingExperimentReproducible) {
  const auto run = [] {
    auto cluster = Cluster::sim(
        NetworkConfig::defaults_for(ProtocolKind::kHyParView, 150, 55));
    return cluster.run(Experiment("healing")
                           .stabilize(4)
                           .broadcast(10, "baseline")
                           .crash(0.5)
                           .heal_until("baseline", 10, 10, "heal"));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.phase("heal").cycles_to_heal, b.phase("heal").cycles_to_heal);
  EXPECT_EQ(a.phase("heal").reliabilities, b.phase("heal").reliabilities);
  EXPECT_DOUBLE_EQ(a.phase("baseline").avg_reliability(),
                   b.phase("baseline").avg_reliability());
}

TEST(DeterminismTest2, ChurnRunReproducible) {
  const auto run = [] {
    auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 150, 56);
    SimBackend net(cfg);
    net.build();
    net.run_cycles(3);
    ChurnConfig churn;
    churn.cycles = 8;
    churn.joins_per_cycle = 4;
    churn.leaves_per_cycle = 4;
    churn.probes_per_cycle = 2;
    return run_experiment(net, Experiment("churn").churn(churn)).phase("churn");
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.reliabilities, b.reliabilities);
  EXPECT_EQ(a.counters.joins, b.counters.joins);
  EXPECT_EQ(a.counters.graceful_leaves, b.counters.graceful_leaves);
  EXPECT_EQ(a.counters.crashes, b.counters.crashes);
}

TEST(DeterminismTest2, HeterogeneousClassAssignmentReproducible) {
  const auto classes = [] {
    auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 200, 57);
    cfg.hyparview_classes = {{0.10, 13, 60}, {0.90, 4, 30}};
    SimBackend net(cfg);
    net.build();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      out.push_back(net.node_class(i));
    }
    return out;
  };
  EXPECT_EQ(classes(), classes());
}

TEST(TrafficConservationTest, FloodFrameCountMatchesDeliveriesPlusDuplicates) {
  // On a stable overlay with zero failures, every gossip frame sent is
  // either a first delivery or a counted duplicate; the source delivers
  // locally without a frame.
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 300, 58);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  const PhaseResult flood =
      run_experiment(net, Experiment("flood").broadcast(1)).phase("broadcast");
  const analysis::MessageResult& result = flood.broadcasts.front();
  const auto gossip_tag = wire::type_tag(wire::Message{wire::Gossip{}});
  EXPECT_EQ(flood.counters.frames_by_type[gossip_tag],
            (result.delivered - 1) + result.duplicates);
  EXPECT_EQ(flood.counters.send_failures, 0u);
}

TEST(TrafficConservationTest, ExplicitAcksChangeTrafficButNotOutcomes) {
  // CyclonAcked's acks are modeled implicitly by default; flipping
  // explicit_acks must ship one GOSSIP_ACK per received gossip frame and
  // change nothing about delivery or detection.
  const auto run = [](bool explicit_acks) {
    auto cfg =
        NetworkConfig::defaults_for(ProtocolKind::kCyclonAcked, 300, 61);
    cfg.gossip.explicit_acks = explicit_acks;
    SimBackend net(cfg);
    net.build();
    net.run_cycles(5);
    net.fail_random_fraction(0.3);
    std::vector<double> reliabilities;
    for (int i = 0; i < 10; ++i) {
      reliabilities.push_back(net.broadcast_one().reliability());
    }
    const auto ack_tag = wire::type_tag(wire::Message{wire::GossipAck{}});
    const auto gossip_tag = wire::type_tag(wire::Message{wire::Gossip{}});
    const auto& sim = net.simulator();
    return std::tuple(reliabilities, sim.sent_by_type()[ack_tag],
                      sim.sent_by_type()[gossip_tag],
                      sim.sent_by_type()[gossip_tag] - sim.sends_failed());
  };
  const auto [rel_implicit, acks_implicit, gossip_implicit, del_i] =
      run(false);
  const auto [rel_explicit, acks_explicit, gossip_explicit, del_e] =
      run(true);
  // Ack frames perturb message interleavings (they consume latency draws),
  // so runs are not bitwise identical — but the outcome must be
  // statistically indistinguishable.
  const auto avg = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double r : v) s += r;
    return s / static_cast<double>(v.size());
  };
  EXPECT_NEAR(avg(rel_implicit), avg(rel_explicit), 0.02)
      << "acks must not affect delivery";
  EXPECT_EQ(acks_implicit, 0u);
  // Within the explicit run: exactly one ack per gossip frame that
  // actually arrived (acks to dead peers cannot happen — the dead do not
  // receive, so they never ack).
  EXPECT_EQ(acks_explicit, del_e);
  (void)gossip_implicit;
  (void)del_i;
}

TEST(TrafficConservationTest, ByteCountersSumAcrossTypes) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 200, 59);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  for (int i = 0; i < 5; ++i) net.broadcast_one();
  const auto& sim = net.simulator();
  std::uint64_t type_sum = 0;
  for (const auto b : sim.bytes_by_type()) type_sum += b;
  EXPECT_EQ(type_sum, sim.bytes_sent());
  std::uint64_t count_sum = 0;
  for (const auto c : sim.sent_by_type()) count_sum += c;
  EXPECT_EQ(count_sum, sim.messages_sent());
  EXPECT_GT(sim.bytes_sent(), sim.messages_sent());  // every frame has bytes
}

}  // namespace
}  // namespace hyparview::harness
