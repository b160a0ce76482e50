// End-to-end HyParView over real TCP sockets: an in-process cluster on the
// loopback interface, sharing one event loop.
//
// Every step drains the loop to quiescence (EventLoop::run_until_quiescent),
// as TcpBackend does, instead of sleeping for a fixed window.
//
// Two tiers: the default CTest registration runs with HPV_QUICK=1 and keeps
// the three core scenarios (join symmetry, flood delivery, crash repair).
// The remaining scenarios run in the `full` tier (-DHPV_FULL_TESTS=ON +
// `ctest -L full`, exercised in CI, including under TSan).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "hyparview/core/hyparview.hpp"
#include "hyparview/gossip/node_runtime.hpp"
#include "hyparview/net/tcp_transport.hpp"

#include "support/test_tiers.hpp"

namespace hyparview::net {
namespace {

class ClusterObserver final : public gossip::DeliveryObserver {
 public:
  void on_deliver(const NodeId& node, std::uint64_t msg_id,
                  std::uint16_t /*hops*/) override {
    deliveries[msg_id].insert(node.raw());
  }
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      deliveries;
};

/// One HyParView node over TCP: transport + protocol + gossip runtime.
struct TcpNode {
  TcpNode(EventLoop& loop, gossip::DeliveryObserver* observer,
          std::uint64_t seed, std::size_t warm_cache = 0) {
    TcpTransportConfig tcfg;
    tcfg.rng_seed = seed;
    transport = std::make_unique<TcpTransport>(loop, nullptr, tcfg);
    core::Config pcfg;
    pcfg.active_capacity = 4;
    pcfg.passive_capacity = 12;
    pcfg.warm_cache_size = warm_cache;
    gossip::GossipConfig gcfg;
    gcfg.mode = gossip::Mode::kFlood;
    runtime = std::make_unique<gossip::NodeRuntime>(
        *transport, std::make_unique<core::HyParView>(*transport, pcfg), gcfg,
        observer);
    transport->set_endpoint(runtime.get());
  }

  [[nodiscard]] NodeId id() const { return transport->local_id(); }
  [[nodiscard]] core::HyParView& protocol() {
    return static_cast<core::HyParView&>(runtime->protocol());
  }

  std::unique_ptr<TcpTransport> transport;
  std::unique_ptr<gossip::NodeRuntime> runtime;
};

class TcpClusterTest : public ::testing::Test {
 protected:
  void build_cluster(std::size_t n, std::size_t warm_cache = 0) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(
          std::make_unique<TcpNode>(loop_, &observer_, 1000 + i, warm_cache));
    }
    nodes_[0]->protocol().start(std::nullopt);
    for (std::size_t i = 1; i < n; ++i) {
      nodes_[i]->protocol().start(nodes_[0]->id());
      // Each join settles before the next, the one-by-one join of §5.
      drain();
    }
    run_cycles(3);
  }

  void run_cycles(int cycles) {
    for (int c = 0; c < cycles; ++c) {
      for (auto& node : nodes_) node->protocol().on_cycle();
      drain();
    }
  }

  /// Runs the loop until nothing is in flight. HyParView over a flood
  /// engine schedules no timer, so on loopback this ends in milliseconds.
  void drain() { EXPECT_TRUE(loop_.run_until_quiescent(seconds(5))); }

  /// Waits until `msg_id` reached `expect` nodes (or times out).
  bool await_delivery(std::uint64_t msg_id, std::size_t expect,
                      Duration timeout = seconds(10)) {
    return loop_.run_until(
        [&] { return observer_.deliveries[msg_id].size() >= expect; },
        timeout);
  }

  EventLoop loop_;
  ClusterObserver observer_;
  std::vector<std::unique_ptr<TcpNode>> nodes_;
};

TEST_F(TcpClusterTest, JoinFormsSymmetricActiveViews) {
  build_cluster(8);
  // Symmetry is maintained under traffic (asymmetry left by join races is
  // healed by the DISCONNECT-on-foreign-flood rule); run a few broadcasts
  // and shuffle rounds before asserting the invariant.
  for (std::uint64_t id = 900; id < 904; ++id) {
    nodes_[id % nodes_.size()]->runtime->gossip().broadcast(id);
    drain();
  }
  run_cycles(2);
  for (auto& node : nodes_) {
    EXPECT_FALSE(node->protocol().active_view().empty())
        << node->id().to_string();
  }
  // Symmetry check across the cluster.
  for (auto& node : nodes_) {
    for (const NodeId& peer : node->protocol().active_view()) {
      auto it = std::find_if(
          nodes_.begin(), nodes_.end(),
          [&](const auto& other) { return other->id() == peer; });
      ASSERT_NE(it, nodes_.end());
      const auto& peer_view = (*it)->protocol().active_view();
      EXPECT_TRUE(std::find(peer_view.begin(), peer_view.end(), node->id()) !=
                  peer_view.end())
          << "asymmetric TCP link " << node->id().to_string() << " <-> "
          << peer.to_string();
    }
  }
}

TEST_F(TcpClusterTest, BroadcastFloodsWholeCluster) {
  build_cluster(8);
  nodes_[3]->runtime->gossip().broadcast(42);
  EXPECT_TRUE(await_delivery(42, nodes_.size()));
}

TEST_F(TcpClusterTest, SequentialBroadcastsAllDelivered) {
  HPV_FULL_TIER_ONLY();
  build_cluster(6);
  for (std::uint64_t id = 100; id < 110; ++id) {
    nodes_[id % nodes_.size()]->runtime->gossip().broadcast(id);
    EXPECT_TRUE(await_delivery(id, nodes_.size())) << "msg " << id;
  }
}

TEST_F(TcpClusterTest, NodeCrashDetectedAndRepairedByTraffic) {
  build_cluster(8);
  // Hard-kill one node (no DISCONNECTs): neighbors must detect via TCP.
  const NodeId victim = nodes_[4]->id();
  nodes_[4]->transport->shutdown();
  auto dead = std::move(nodes_[4]);
  nodes_.erase(nodes_.begin() + 4);

  // Drive traffic so the failure detector and repair run.
  for (std::uint64_t id = 200; id < 206; ++id) {
    nodes_[id % nodes_.size()]->runtime->gossip().broadcast(id);
    drain();
  }
  run_cycles(2);

  // The dead node must be gone from every active view...
  for (auto& node : nodes_) {
    const auto& view = node->protocol().active_view();
    EXPECT_TRUE(std::find(view.begin(), view.end(), victim) == view.end())
        << node->id().to_string();
  }
  // ...and broadcasts still reach all survivors.
  nodes_[0]->runtime->gossip().broadcast(999);
  EXPECT_TRUE(await_delivery(999, nodes_.size()));
}

TEST_F(TcpClusterTest, ShufflePopulatesPassiveViews) {
  HPV_FULL_TIER_ONLY();
  build_cluster(10);
  run_cycles(5);
  std::size_t with_passive = 0;
  for (auto& node : nodes_) {
    if (!node->protocol().passive_view().empty()) ++with_passive;
  }
  // Shuffles + join walks must have spread backup knowledge to most nodes.
  EXPECT_GE(with_passive, nodes_.size() / 2);
}

TEST_F(TcpClusterTest, WarmCacheOpensRealConnectionsToPassiveMembers) {
  HPV_FULL_TIER_ONLY();
  build_cluster(10, /*warm_cache=*/2);
  run_cycles(6);
  std::size_t warmed = 0;
  for (auto& node : nodes_) {
    const auto& warm = node->protocol().warm_cache();
    const auto& passive = node->protocol().passive_view();
    for (const NodeId& w : warm) {
      EXPECT_TRUE(std::find(passive.begin(), passive.end(), w) !=
                  passive.end())
          << "warm entry outside passive view over TCP";
    }
    if (!warm.empty()) ++warmed;
  }
  EXPECT_GE(warmed, nodes_.size() / 2) << "warm cache never filled over TCP";
  // The cluster still floods correctly with the extra standing links.
  nodes_[1]->runtime->gossip().broadcast(777);
  EXPECT_TRUE(await_delivery(777, nodes_.size()));
}

TEST_F(TcpClusterTest, GracefulLeaveRemovesNodeWithoutFailureDetection) {
  HPV_FULL_TIER_ONLY();
  build_cluster(8);
  const NodeId leaver = nodes_[2]->id();
  // Say goodbye, let the DISCONNECTs flush, then kill the process.
  nodes_[2]->protocol().leave();
  drain();
  nodes_[2]->transport->shutdown();
  auto dead = std::move(nodes_[2]);
  nodes_.erase(nodes_.begin() + 2);
  drain();

  // Every survivor dropped the leaver from its active view *before* any
  // broadcast traffic could trigger the failure detector.
  for (auto& node : nodes_) {
    const auto& view = node->protocol().active_view();
    EXPECT_TRUE(std::find(view.begin(), view.end(), leaver) == view.end())
        << node->id().to_string() << " kept the leaver";
  }
  nodes_[0]->runtime->gossip().broadcast(888);
  EXPECT_TRUE(await_delivery(888, nodes_.size()));
}

}  // namespace
}  // namespace hyparview::net
