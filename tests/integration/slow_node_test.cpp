// §5.5: slow nodes that stop consuming messages must not freeze the overlay
// through TCP backpressure — after a bounded buffer fills, senders treat
// them as failed and expel them from all active views.
#include <gtest/gtest.h>

#include <algorithm>

#include "hyparview/core/hyparview.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/sim/simulator.hpp"

namespace hyparview {
namespace {

// --- Simulator-level semantics ----------------------------------------------

class NullEndpoint final : public membership::Endpoint {
 public:
  void deliver(const NodeId& from, const wire::Message& msg) override {
    deliveries.emplace_back(from, msg);
  }
  void send_failed(const NodeId& to, const wire::Message& msg) override {
    failures.emplace_back(to, msg);
  }
  void link_closed(const NodeId&) override {}

  std::vector<std::pair<NodeId, wire::Message>> deliveries;
  std::vector<std::pair<NodeId, wire::Message>> failures;
};

TEST(SlowNodeSimTest, BlockedNodeBuffersInsteadOfDelivering) {
  sim::SimConfig cfg;
  sim::Simulator sim(cfg);
  NullEndpoint ha;
  NullEndpoint hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  EXPECT_TRUE(sim.blocked(b));
  sim.env(a).send(b, wire::Gossip{1, 0, 0});
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  EXPECT_TRUE(ha.failures.empty());  // buffered, not failed
}

TEST(SlowNodeSimTest, UnblockDeliversBacklogInOrder) {
  sim::SimConfig cfg;
  sim::Simulator sim(cfg);
  NullEndpoint ha;
  NullEndpoint hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  for (std::uint64_t i = 0; i < 5; ++i) {
    sim.env(a).send(b, wire::Gossip{i, 0, 0});
  }
  sim.run_until_quiescent();
  sim.unblock(b);
  sim.run_until_quiescent();
  ASSERT_EQ(hb.deliveries.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(std::get<wire::Gossip>(hb.deliveries[i].second).msg_id, i);
  }
}

TEST(SlowNodeSimTest, BufferOverflowFailsBackToSender) {
  sim::SimConfig cfg;
  cfg.link_send_buffer = 3;
  sim::Simulator sim(cfg);
  NullEndpoint ha;
  NullEndpoint hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  for (std::uint64_t i = 0; i < 5; ++i) {
    sim.env(a).send(b, wire::Gossip{i, 0, 0});
  }
  sim.run_until_quiescent();
  // 3 buffered, 2 bounced.
  EXPECT_EQ(ha.failures.size(), 2u);
}

TEST(SlowNodeSimTest, BufferIsPerSender) {
  sim::SimConfig cfg;
  cfg.link_send_buffer = 2;
  sim::Simulator sim(cfg);
  NullEndpoint ha;
  NullEndpoint hb;
  NullEndpoint hc;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  const NodeId c = sim.add_node(&hc);
  sim.block(c);
  sim.env(a).send(c, wire::Gossip{1, 0, 0});
  sim.env(a).send(c, wire::Gossip{2, 0, 0});
  sim.env(b).send(c, wire::Gossip{3, 0, 0});
  sim.env(b).send(c, wire::Gossip{4, 0, 0});
  sim.run_until_quiescent();
  EXPECT_TRUE(ha.failures.empty());
  EXPECT_TRUE(hb.failures.empty());
  sim.unblock(c);
  sim.run_until_quiescent();
  EXPECT_EQ(hc.deliveries.size(), 4u);
}

TEST(SlowNodeSimTest, BlockedNodeInitiatesNothing) {
  sim::SimConfig cfg;
  sim::Simulator sim(cfg);
  NullEndpoint ha;
  NullEndpoint hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(a);
  sim.env(a).send(b, wire::Gossip{1, 0, 0});
  int fired = 0;
  sim.env(a).schedule(milliseconds(1), [&] { ++fired; });
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  EXPECT_EQ(fired, 0);
}

TEST(SlowNodeSimTest, CrashWhileBlockedDropsBacklog) {
  sim::SimConfig cfg;
  sim::Simulator sim(cfg);
  NullEndpoint ha;
  NullEndpoint hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  sim.env(a).send(b, wire::Gossip{1, 0, 0});
  sim.run_until_quiescent();
  sim.crash(b);
  sim.unblock(b);  // no-op: dead
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  EXPECT_FALSE(sim.blocked(b));
}

// --- Protocol-level behaviour (§5.5 expulsion) --------------------------------

TEST(SlowNodeExpulsionTest, SlowNodeExpelledFromAllActiveViews) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 64, 91);
  cfg.sim.link_send_buffer = 4;
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  const NodeId victim = net.id_of(10);
  net.simulator().block(victim);
  // Drive enough broadcasts to overflow every neighbor's buffer toward the
  // blocked node.
  for (int i = 0; i < 12; ++i) net.broadcast_one();

  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (i == 10) continue;
    const auto view = net.protocol(i).dissemination_view();
    EXPECT_TRUE(std::find(view.begin(), view.end(), victim) == view.end())
        << "blocked node still in active view of " << i;
  }
}

TEST(SlowNodeExpulsionTest, OverlayStaysLiveAroundSlowNode) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 64, 92);
  cfg.sim.link_send_buffer = 4;
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(3);
  net.simulator().block(net.id_of(5));
  for (int i = 0; i < 12; ++i) net.broadcast_one();

  // Everyone except the slow node keeps delivering.
  const auto result = net.broadcast_one();
  EXPECT_GE(result.delivered, net.alive_count() - 1);
}

TEST(SlowNodeExpulsionTest, UnblockedNodeReintegrates) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 64, 93);
  cfg.sim.link_send_buffer = 4;
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(3);

  const NodeId victim = net.id_of(7);
  net.simulator().block(victim);
  for (int i = 0; i < 12; ++i) net.broadcast_one();
  net.simulator().unblock(victim);
  net.simulator().run_until_quiescent();  // backlog drains, repairs run
  net.run_cycles(2);                      // shuffles re-knit

  // The recovered node must deliver broadcasts again.
  const auto result = net.broadcast_one();
  EXPECT_EQ(result.delivered, net.alive_count());
}

}  // namespace
}  // namespace hyparview
