// Heterogeneous-capacity overlays (§6 "adaptive fanout" extension): nodes
// of different classes run HyParView with different view capacities; the
// flood and the repair machinery must keep working across class borders.
#include <gtest/gtest.h>

#include <algorithm>

#include "hyparview/core/hyparview.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/experiment.hpp"

namespace hyparview::harness {
namespace {

NetworkConfig hetero_config(std::size_t nodes, std::uint64_t seed) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, nodes, seed);
  cfg.hyparview_classes = {{0.10, 13, 60}, {0.90, 4, 30}};
  return cfg;
}

TEST(HeterogeneousTest, ClassAssignmentMatchesFractions) {
  SimBackend net(hetero_config(1000, 51));
  net.build();
  std::size_t hubs = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (net.node_class(i) == 0) ++hubs;
  }
  // 10% ± a generous binomial tolerance.
  EXPECT_GT(hubs, 60u);
  EXPECT_LT(hubs, 140u);
}

TEST(HeterogeneousTest, NodesRunTheirClassCapacities) {
  SimBackend net(hetero_config(400, 52));
  net.build();
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto* hpv = dynamic_cast<const core::HyParView*>(&net.protocol(i));
    ASSERT_NE(hpv, nullptr);
    const auto& cls = net.config().hyparview_classes[net.node_class(i)];
    EXPECT_EQ(hpv->config().active_capacity, cls.active_capacity);
    EXPECT_EQ(hpv->config().passive_capacity, cls.passive_capacity);
  }
}

TEST(HeterogeneousTest, HomogeneousNetworksReportClassZero) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 53);
  SimBackend net(cfg);
  net.build();
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    EXPECT_EQ(net.node_class(i), 0u);
  }
}

TEST(HeterogeneousTest, FloodStaysAtomicAcrossClasses) {
  SimBackend net(hetero_config(600, 54));
  net.build();
  net.run_cycles(10);
  EXPECT_TRUE(graph::is_weakly_connected(net.dissemination_graph(false)));
  for (int m = 0; m < 10; ++m) {
    EXPECT_DOUBLE_EQ(net.broadcast_one().reliability(), 1.0);
  }
}

TEST(HeterogeneousTest, SymmetryHoldsAcrossClassBorders) {
  SimBackend net(hetero_config(400, 55));
  net.build();
  net.run_cycles(10);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    for (const NodeId& n : net.protocol(i).dissemination_view()) {
      const auto peer_view = net.protocol(n.ip).dissemination_view();
      EXPECT_TRUE(std::find(peer_view.begin(), peer_view.end(),
                            net.id_of(i)) != peer_view.end())
          << i << " -> " << n.to_string() << " one-sided";
    }
  }
}

TEST(HeterogeneousTest, HubsCarryHigherDegreeAndLoad) {
  SimBackend net(hetero_config(800, 56));
  net.build();
  net.run_cycles(20);
  for (int m = 0; m < 20; ++m) net.broadcast_one();

  double hub_degree = 0.0;
  double leaf_degree = 0.0;
  double hub_forwarded = 0.0;
  double leaf_forwarded = 0.0;
  std::size_t hubs = 0;
  std::size_t leaves = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const double deg =
        static_cast<double>(net.protocol(i).dissemination_view().size());
    const double fwd =
        static_cast<double>(net.runtime(i).gossip().messages_forwarded());
    if (net.node_class(i) == 0) {
      hub_degree += deg;
      hub_forwarded += fwd;
      ++hubs;
    } else {
      leaf_degree += deg;
      leaf_forwarded += fwd;
      ++leaves;
    }
  }
  ASSERT_GT(hubs, 0u);
  ASSERT_GT(leaves, 0u);
  hub_degree /= static_cast<double>(hubs);
  leaf_degree /= static_cast<double>(leaves);
  hub_forwarded /= static_cast<double>(hubs);
  leaf_forwarded /= static_cast<double>(leaves);
  EXPECT_GT(hub_degree, 1.8 * leaf_degree);
  EXPECT_GT(hub_forwarded, 1.5 * leaf_forwarded);
}

TEST(HeterogeneousTest, SurvivesMassFailureIncludingHubs) {
  SimBackend net(hetero_config(800, 57));
  net.build();
  net.run_cycles(20);
  net.fail_random_fraction(0.6);
  double sum = 0.0;
  constexpr int kMsgs = 60;
  for (int m = 0; m < kMsgs; ++m) sum += net.broadcast_one().reliability();
  EXPECT_GT(sum / kMsgs, 0.97);
}

TEST(HeterogeneousTest, ChurnedJoinersGetClassAssignments) {
  SimBackend net(hetero_config(300, 58));
  net.build();
  net.run_cycles(3);
  ChurnConfig churn;
  churn.cycles = 5;
  churn.joins_per_cycle = 10;
  churn.leaves_per_cycle = 10;
  churn.probes_per_cycle = 1;
  const ExperimentResult churned =
      run_experiment(net, Experiment("churn").churn(churn));
  EXPECT_GT(churned.phase("churn").avg_reliability(), 0.99);
  // The joiners (indices >= 300) were classed too.
  std::size_t joiner_hubs = 0;
  for (std::size_t i = 300; i < net.node_count(); ++i) {
    if (net.node_class(i) == 0) ++joiner_hubs;
  }
  EXPECT_GT(net.node_count(), 300u);
  // With 50 joiners at 10% hub rate, zero hubs has probability ~0.5%;
  // mostly this asserts node_class() stays in range for appended nodes.
  for (std::size_t i = 300; i < net.node_count(); ++i) {
    EXPECT_LT(net.node_class(i), 2u);
  }
}

}  // namespace
}  // namespace hyparview::harness
