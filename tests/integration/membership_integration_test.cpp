// End-to-end behaviour of all four protocols on mid-sized simulated
// networks: join, stabilize, connectivity, dissemination.
#include <gtest/gtest.h>

#include <algorithm>

#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/experiment.hpp"

namespace hyparview::harness {
namespace {

class AllProtocolsTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocolsTest, OverlayConnectedAfterJoinAndStabilization) {
  auto cfg = NetworkConfig::defaults_for(GetParam(), 500, 21);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  const auto g = net.dissemination_graph(false);
  EXPECT_TRUE(graph::is_weakly_connected(g))
      << kind_name(GetParam()) << ": largest component "
      << graph::largest_weakly_connected_component(g) << "/500";
}

TEST_P(AllProtocolsTest, StableBroadcastReachesAlmostEveryone) {
  auto cfg = NetworkConfig::defaults_for(GetParam(), 500, 22);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  double sum = 0.0;
  constexpr int kMsgs = 20;
  for (int i = 0; i < kMsgs; ++i) sum += net.broadcast_one().reliability();
  const double avg = sum / kMsgs;
  if (GetParam() == ProtocolKind::kHyParView) {
    EXPECT_DOUBLE_EQ(avg, 1.0);  // deterministic flood on connected overlay
  } else {
    EXPECT_GT(avg, 0.85);  // fanout-4 gossip on 500 nodes
  }
}

TEST_P(AllProtocolsTest, NoSelfLoopsOrDuplicatesInViews) {
  auto cfg = NetworkConfig::defaults_for(GetParam(), 300, 23);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto view = net.protocol(i).dissemination_view();
    EXPECT_TRUE(std::find(view.begin(), view.end(), net.id_of(i)) ==
                view.end())
        << kind_name(GetParam()) << " self-loop at " << i;
    std::vector<NodeId> sorted(view.begin(), view.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << kind_name(GetParam()) << " duplicate at " << i;
  }
}

TEST_P(AllProtocolsTest, HopCountsAreBoundedByLogDiameter) {
  auto cfg = NetworkConfig::defaults_for(GetParam(), 500, 24);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  const auto result = net.broadcast_one();
  // Gossip on expander-like overlays delivers within a few multiples of
  // log2(n) ≈ 9 hops.
  EXPECT_LE(result.max_hops, 40u) << kind_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocolsTest,
    ::testing::Values(ProtocolKind::kHyParView, ProtocolKind::kCyclon,
                      ProtocolKind::kCyclonAcked, ProtocolKind::kScamp),
    [](const ::testing::TestParamInfo<ProtocolKind>& param_info) {
      return kind_name(param_info.param);
    });

TEST(HyParViewIntegrationTest, InDegreeConcentratesAtActiveCapacity) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 500, 25);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(10);
  const auto g = net.dissemination_graph(false);
  const auto indeg = g.in_degrees();
  std::size_t at_capacity = 0;
  for (const auto d : indeg) {
    EXPECT_LE(d, cfg.hyparview.active_capacity);  // symmetry bound
    if (d == cfg.hyparview.active_capacity) ++at_capacity;
  }
  // Figure 5: "almost all nodes are known by the maximum amount possible".
  EXPECT_GT(static_cast<double>(at_capacity) / 500.0, 0.85);
}

TEST(HyParViewIntegrationTest, ClusteringFarBelowCyclon) {
  auto hv_cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 500, 26);
  SimBackend hv(hv_cfg);
  hv.build();
  hv.run_cycles(10);
  auto cy_cfg = NetworkConfig::defaults_for(ProtocolKind::kCyclon, 500, 26);
  SimBackend cy(cy_cfg);
  cy.build();
  cy.run_cycles(10);

  const double hv_cc =
      graph::average_clustering(hv.dissemination_graph(false).undirected_closure());
  const double cy_cc =
      graph::average_clustering(cy.dissemination_graph(false).undirected_closure());
  // Table 1 ordering: HyParView's clustering is far below Cyclon's.
  EXPECT_LT(hv_cc, cy_cc);
}

TEST(HyParViewIntegrationTest, PassiveViewsFillDuringStabilization) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 300, 27);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(10);
  std::size_t total = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    total += net.protocol(i).backup_view().size();
  }
  const double mean = static_cast<double>(total) / 300.0;
  EXPECT_GT(mean, static_cast<double>(cfg.hyparview.passive_capacity) * 0.8);
}

TEST(ScampIntegrationTest, StabilizationPreservesConnectivity) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kScamp, 300, 28);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(10);  // heartbeats + isolation recovery active
  EXPECT_TRUE(graph::is_weakly_connected(net.dissemination_graph(false)));
}

TEST(TrafficTest, ShuffleTrafficFlowsEveryCycle) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 29);
  SimBackend net(cfg);
  net.build();
  const ExperimentResult round =
      run_experiment(net, Experiment("round").cycles(1));
  const auto& by_type = round.phase("cycles").counters.frames_by_type;
  const auto shuffles =
      by_type[wire::type_tag(wire::Message{wire::Shuffle{}})];
  // Every alive node initiates one shuffle; walks add more traffic.
  EXPECT_GE(shuffles, 100u);
  const auto replies =
      by_type[wire::type_tag(wire::Message{wire::ShuffleReply{}})];
  EXPECT_GT(replies, 0u);
}

}  // namespace
}  // namespace hyparview::harness
