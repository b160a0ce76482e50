// Continuous churn: joins and departures (graceful and crashes) while the
// application keeps broadcasting. Exercises Protocol::leave, the harness
// add_node/leave_node/run_churn drivers, and the view invariants that must
// survive membership turnover.
#include <gtest/gtest.h>

#include <algorithm>

#include "hyparview/core/hyparview.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/experiment.hpp"

namespace hyparview::harness {
namespace {

bool contains(std::span<const NodeId> v, const NodeId& id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

/// One churn phase on the built cluster: its per-cycle reliability and the
/// joins/leaves/crashes it performed.
PhaseResult churn_phase(SimBackend& net, const ChurnConfig& cfg) {
  return run_experiment(net, Experiment("churn").churn(cfg)).phases.front();
}

TEST(AddNodeTest, NewcomerIsIntegratedAndReachable) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 31);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  const std::size_t newcomer = net.add_node();
  EXPECT_EQ(newcomer, 100u);
  EXPECT_TRUE(net.alive(newcomer));
  const auto view = net.protocol(newcomer).dissemination_view();
  EXPECT_FALSE(view.empty()) << "joiner got no active neighbors";

  // Symmetry: every neighbor of the newcomer knows it back.
  for (const NodeId& n : view) {
    EXPECT_TRUE(contains(net.protocol(n.ip).dissemination_view(),
                         net.id_of(newcomer)))
        << "asymmetric link to " << n.to_string();
  }

  // And a flood reaches it (reliability counts all alive nodes).
  EXPECT_DOUBLE_EQ(net.broadcast_one().reliability(), 1.0);
}

TEST(GracefulLeaveTest, HyParViewGoodbyeClearsActiveViewsImmediately) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 32);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  const std::size_t leaver = 17;
  const NodeId leaver_id = net.id_of(leaver);
  net.leave_node(leaver, /*graceful=*/true);
  EXPECT_FALSE(net.alive(leaver));

  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i)) continue;
    EXPECT_FALSE(contains(net.protocol(i).dissemination_view(), leaver_id))
        << "node " << i << " still floods to the departed node";
  }
  // The overlay heals around the hole without needing a membership cycle.
  EXPECT_DOUBLE_EQ(net.broadcast_one().reliability(), 1.0);
}

TEST(GracefulLeaveTest, CrashLeaveKeepsStaleEntriesUntilDetected) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 33);
  cfg.sim.notify_on_crash = false;  // pure detect-on-send
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  const std::size_t leaver = 17;
  const NodeId leaver_id = net.id_of(leaver);
  net.leave_node(leaver, /*graceful=*/false);

  // Nobody has been told: the crashed node is still in some active view.
  std::size_t holders = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (net.alive(i) &&
        contains(net.protocol(i).dissemination_view(), leaver_id)) {
      ++holders;
    }
  }
  EXPECT_GT(holders, 0u) << "silent crash should leave stale view entries";

  // The first flood both detects and repairs (TCP-as-failure-detector).
  net.broadcast_one();
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i)) continue;
    EXPECT_FALSE(contains(net.protocol(i).dissemination_view(), leaver_id));
  }
}

TEST(GracefulLeaveTest, ScampUnsubscribePatchesPartialViews) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kScamp, 100, 34);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  const std::size_t leaver = 11;
  const NodeId leaver_id = net.id_of(leaver);
  net.leave_node(leaver, /*graceful=*/true);

  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i)) continue;
    EXPECT_FALSE(contains(net.protocol(i).dissemination_view(), leaver_id))
        << "node " << i << " still gossips to the unsubscribed node";
  }
}

TEST(GracefulLeaveTest, LeaveNodeIsIdempotentOnDeadNodes) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 50, 35);
  SimBackend net(cfg);
  net.build();
  net.leave_node(3, true);
  const std::size_t alive_before = net.alive_count();
  net.leave_node(3, true);   // no-op
  net.leave_node(3, false);  // no-op
  EXPECT_EQ(net.alive_count(), alive_before);
}

class ChurnAllProtocolsTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ChurnAllProtocolsTest, SystemSurvivesSustainedChurn) {
  auto cfg = NetworkConfig::defaults_for(GetParam(), 300, 36);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);

  ChurnConfig churn;
  churn.cycles = 15;
  churn.joins_per_cycle = 6;
  churn.leaves_per_cycle = 6;
  churn.graceful_fraction = 0.5;
  churn.probes_per_cycle = 2;
  const PhaseResult churned = churn_phase(net, churn);

  EXPECT_EQ(churned.counters.joins, 90u);
  EXPECT_EQ(churned.counters.graceful_leaves + churned.counters.crashes, 90u);
  EXPECT_EQ(churned.reliabilities.size(), 15u);

  // Reliability under churn: HyParView's reactive repair keeps the flood
  // near-atomic; the cyclic baselines degrade but must not collapse at
  // this modest (2%/cycle) turnover.
  if (GetParam() == ProtocolKind::kHyParView) {
    EXPECT_GT(churned.avg_reliability(), 0.99);
    EXPECT_GT(churned.min_reliability(), 0.95);
  } else {
    EXPECT_GT(churned.avg_reliability(), 0.70) << kind_name(GetParam());
  }

  // The alive part of the overlay must remain one component.
  const auto g = net.dissemination_graph(/*alive_only=*/true);
  std::size_t alive = net.alive_count();
  EXPECT_GE(graph::largest_weakly_connected_component(g), alive - alive / 20)
      << kind_name(GetParam());
}

TEST_P(ChurnAllProtocolsTest, ViewInvariantsHoldAfterChurn) {
  auto cfg = NetworkConfig::defaults_for(GetParam(), 200, 37);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  ChurnConfig churn;
  churn.cycles = 10;
  churn.joins_per_cycle = 4;
  churn.leaves_per_cycle = 4;
  churn.probes_per_cycle = 1;
  net.run_churn(churn);

  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i)) continue;
    const auto view = net.protocol(i).dissemination_view();
    EXPECT_FALSE(contains(view, net.id_of(i)))
        << kind_name(GetParam()) << " self-loop at " << i;
    std::vector<NodeId> sorted(view.begin(), view.end());
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << kind_name(GetParam()) << " duplicate at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChurnAllProtocolsTest,
                         ::testing::Values(ProtocolKind::kHyParView,
                                           ProtocolKind::kCyclonAcked,
                                           ProtocolKind::kCyclon,
                                           ProtocolKind::kScamp),
                         [](const auto& param_info) {
                           return std::string(kind_name(param_info.param));
                         });

TEST(ChurnHyParViewTest, ActiveViewSymmetryHoldsAfterChurn) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 200, 38);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  ChurnConfig churn;
  churn.cycles = 10;
  churn.joins_per_cycle = 5;
  churn.leaves_per_cycle = 5;
  churn.probes_per_cycle = 1;
  net.run_churn(churn);
  // A probe flood lets traffic-driven asymmetry healing finish its work.
  net.broadcast_one();

  std::size_t asymmetric = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i)) continue;
    for (const NodeId& n : net.protocol(i).dissemination_view()) {
      if (!net.alive(n.ip)) continue;
      if (!contains(net.protocol(n.ip).dissemination_view(), net.id_of(i))) {
        ++asymmetric;
      }
    }
  }
  // Symmetry is an eventual property under churn; demand near-total.
  EXPECT_LE(asymmetric, 2u);
}

TEST(ChurnHyParViewTest, WarmCacheSurvivesChurn) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 200, 39);
  cfg.hyparview.warm_cache_size = 3;
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);

  ChurnConfig churn;
  churn.cycles = 8;
  churn.joins_per_cycle = 5;
  churn.leaves_per_cycle = 5;
  churn.probes_per_cycle = 1;
  EXPECT_GT(churn_phase(net, churn).avg_reliability(), 0.99);

  // Invariant: warm ⊆ passive everywhere, all cycle long.
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i)) continue;
    const auto* hpv = dynamic_cast<const core::HyParView*>(&net.protocol(i));
    ASSERT_NE(hpv, nullptr);
    for (const NodeId& w : hpv->warm_cache()) {
      EXPECT_TRUE(contains(hpv->passive_view(), w));
    }
  }
}

}  // namespace
}  // namespace hyparview::harness
