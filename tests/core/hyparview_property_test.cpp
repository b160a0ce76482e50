// Property-based tests: protocol invariants under randomized operation
// sequences (unit level) and randomized small networks (system level).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../support/fake_env.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/sim_backend.hpp"

namespace hyparview::core {
namespace {

using test::FakeEnv;

NodeId nid(std::uint32_t i) { return NodeId::from_index(i); }

/// Drives a single HyParView instance with a random message soup and checks
/// the local view invariants after every step.
class HyParViewLocalInvariants : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HyParViewLocalInvariants, RandomMessageSoupKeepsViewsConsistent) {
  const std::uint64_t seed = GetParam();
  Rng fuzz(seed);
  FakeEnv env(nid(0), seed);
  Config cfg;
  // Half the seeds fuzz with the warm cache enabled so its bookkeeping is
  // exposed to the same message soup.
  if (seed % 2 == 0) cfg.warm_cache_size = 3;
  HyParView proto(env, cfg);
  proto.start(nid(1));

  const auto random_peer = [&] {
    return nid(1 + static_cast<std::uint32_t>(fuzz.below(60)));
  };

  for (int step = 0; step < 2000; ++step) {
    const NodeId from = random_peer();
    if (from == nid(0)) continue;
    switch (fuzz.below(12)) {
      case 0:
        proto.handle(from, wire::Join{});
        break;
      case 1:
        proto.handle(from, wire::ForwardJoin{
                               random_peer(),
                               static_cast<std::uint8_t>(fuzz.below(8))});
        break;
      case 2:
        proto.handle(from, wire::Disconnect{});
        break;
      case 3:
        proto.handle(from, wire::Neighbor{fuzz.chance(0.5)});
        break;
      case 4:
        proto.handle(from, wire::NeighborReply{fuzz.chance(0.5)});
        break;
      case 5: {
        wire::Shuffle sh;
        sh.origin = random_peer();
        sh.ttl = static_cast<std::uint8_t>(fuzz.below(7));
        for (std::uint64_t i = 0; i < fuzz.below(9); ++i) {
          sh.entries.push_back(random_peer());
        }
        proto.handle(from, sh);
        break;
      }
      case 6: {
        wire::ShuffleReply sr;
        for (std::uint64_t i = 0; i < fuzz.below(9); ++i) {
          sr.entries.push_back(random_peer());
        }
        proto.handle(from, sr);
        break;
      }
      case 7:
        proto.peer_unreachable(from);
        break;
      case 8:
        proto.on_cycle();
        break;
      case 9:
        proto.handle(from, wire::ForwardJoinAccept{});
        break;
      case 10:
        proto.on_link_closed(from);
        break;
      case 11:
        proto.leave();
        // A fresh identity rejoins through a random contact, reusing the
        // same instance (the soup keeps flowing either way).
        proto.start(random_peer());
        break;
    }
    // Complete any outstanding connect with a random outcome.
    for (auto& c : env.connects) {
      if (!c.completed && fuzz.chance(0.8)) {
        c.completed = true;
        c.cb(fuzz.chance(0.7));
      }
    }

    // --- Invariants ---------------------------------------------------------
    const auto& active = proto.active_view();
    const auto& passive = proto.passive_view();
    ASSERT_LE(active.size(), cfg.active_capacity);
    ASSERT_LE(passive.size(), cfg.passive_capacity);
    ASSERT_FALSE(std::count(active.begin(), active.end(), nid(0)))
        << "self in active view";
    ASSERT_FALSE(std::count(passive.begin(), passive.end(), nid(0)))
        << "self in passive view";
    const std::set<NodeId> active_set(active.begin(), active.end());
    const std::set<NodeId> passive_set(passive.begin(), passive.end());
    ASSERT_EQ(active_set.size(), active.size()) << "duplicate in active view";
    ASSERT_EQ(passive_set.size(), passive.size())
        << "duplicate in passive view";
    for (const NodeId& n : active) {
      ASSERT_FALSE(passive_set.contains(n)) << "view overlap: "
                                            << n.to_string();
    }
    const auto& warm = proto.warm_cache();
    ASSERT_LE(warm.size(), cfg.warm_cache_size);
    for (const NodeId& w : warm) {
      ASSERT_TRUE(passive_set.contains(w))
          << "warm entry outside the passive view: " << w.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyParViewLocalInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// System-level properties on small simulated networks.
class HyParViewNetworkProperties
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HyParViewNetworkProperties, StabilizedOverlayIsSymmetricAndConnected) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 128, GetParam());
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(10);

  // Symmetry: p in active(q) <=> q in active(p).
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto view = net.protocol(i).dissemination_view();
    for (const NodeId& peer : view) {
      const auto peer_view = net.protocol(peer.ip).dissemination_view();
      EXPECT_TRUE(std::find(peer_view.begin(), peer_view.end(), net.id_of(i)) !=
                  peer_view.end())
          << "asymmetric link " << i << " -> " << peer.to_string();
    }
  }

  // Connectivity of the active-view overlay.
  const auto g = net.dissemination_graph(/*alive_only=*/true);
  EXPECT_TRUE(graph::is_weakly_connected(g));

  // No self loops, views within capacity.
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto view = net.protocol(i).dissemination_view();
    EXPECT_LE(view.size(), cfg.hyparview.active_capacity);
    EXPECT_TRUE(std::find(view.begin(), view.end(), net.id_of(i)) ==
                view.end());
  }
}

TEST_P(HyParViewNetworkProperties, BroadcastReachesEveryNodeWhenStable) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 128, GetParam());
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  for (int i = 0; i < 10; ++i) {
    const auto result = net.broadcast_one();
    EXPECT_EQ(result.delivered, net.alive_count())
        << "flood must reach every node on a connected stable overlay";
  }
}

TEST_P(HyParViewNetworkProperties, ActivePassiveDisjointAcrossNetwork) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 96, GetParam());
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(8);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto active = net.protocol(i).dissemination_view();
    const auto passive = net.protocol(i).backup_view();
    for (const NodeId& a : active) {
      EXPECT_TRUE(std::find(passive.begin(), passive.end(), a) ==
                  passive.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HyParViewNetworkProperties,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace hyparview::core
