// Cluster-scale HyParView over real TCP sockets through the backend-
// agnostic harness: 32 nodes, each with its own listening socket and
// connection cache, driven by the same declarative Experiment spec the sim
// backend runs — the §5 reliability pipeline (stabilize → crash a fraction
// → probe broadcasts) with the protocol code unchanged.
//
// Registered under the `net` label, so the TSan CI job covers it.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/tcp_backend.hpp"

#include "support/test_tiers.hpp"

namespace hyparview::harness {
namespace {

/// The shared reliability scenario: warm probes on the stable overlay, a
/// 25% crash wave, traffic-driven repair, then the probes that must reach
/// every survivor again. One spec object, two backends.
Experiment reliability_spec() {
  Experiment spec("cross_backend_reliability");
  spec.stabilize(3)
      .broadcast(3, "warm")
      .crash(0.25)
      .broadcast(6, "repair")
      .cycles(2)
      .broadcast(4, "probe");
  return spec;
}

TEST(TcpBackendTest, ThirtyTwoNodeReliabilityScenario) {
  auto cluster = Cluster::tcp(
      TcpBackendConfig::defaults_for(ProtocolKind::kHyParView, 32, 1234));
  const ExperimentResult result = cluster.run(reliability_spec());

  EXPECT_EQ(result.backend, std::string("tcp"));
  EXPECT_EQ(cluster->alive_count(), 24u);  // 32 - ⌊0.25·32⌋

  // Stable overlay: the flood reaches every node over real sockets.
  EXPECT_GE(result.phase("warm").avg_reliability(), 0.99);
  // After the crash wave + repair traffic + two shuffle rounds, probes
  // must reach (essentially) every survivor again. Real-socket timing is
  // not deterministic, so the floor is a hair under the sim's 100%.
  EXPECT_GE(result.phase("probe").last_reliability(), 0.95);
  EXPECT_GT(cluster->events_processed(), 0u);
}

TEST(TcpBackendTest, SameSpecSameProtocolCodeOnSimBackend) {
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 32, 1234));
  const ExperimentResult result = cluster.run(reliability_spec());

  EXPECT_EQ(result.backend, std::string("sim"));
  EXPECT_EQ(cluster->alive_count(), 24u);
  EXPECT_GE(result.phase("warm").avg_reliability(), 0.99);
  // The deterministic substrate holds the paper's full promise.
  EXPECT_GE(result.phase("probe").avg_reliability(), 0.99);
}

TEST(TcpBackendTest, GracefulLeavePurgesActiveViewsWithoutFailureDetection) {
  auto cluster = Cluster::tcp(
      TcpBackendConfig::defaults_for(ProtocolKind::kHyParView, 12, 77));
  cluster.run(Experiment("stabilize_only").stabilize(3));

  Backend& b = cluster.backend();
  // Three graceful departures (Protocol::leave): goodbyes must flush and
  // survivors must drop the leavers before any failure detector could run.
  std::vector<NodeId> leavers;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t victim : {std::size_t{2}, std::size_t{5}, std::size_t{9}}) {
    leavers.push_back(b.id_of(victim));
    b.leave_node(victim, /*graceful=*/true);
  }
  // Every close cancels its half-close reaper (5 s): one left live would
  // hold each leave's drains until it fired, about 5 s per leave.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  for (std::size_t i = 0; i < b.node_count(); ++i) {
    if (!b.alive(i)) continue;
    for (const NodeId& peer : b.protocol(i).dissemination_view()) {
      for (const NodeId& leaver : leavers) {
        EXPECT_NE(peer, leaver) << "node " << i << " kept a graceful leaver";
      }
    }
  }
  // And the smaller cluster still floods completely.
  const auto probe = b.broadcast_one();
  EXPECT_EQ(probe.delivered, b.alive_count());
}

TEST(TcpBackendTest, ElasticGrowthJoinsThroughRandomContacts) {
  HPV_FULL_TIER_ONLY();
  auto cluster = Cluster::tcp(
      TcpBackendConfig::defaults_for(ProtocolKind::kHyParView, 8, 5));
  cluster.run(Experiment("stabilize_only").stabilize(2));
  Backend& b = cluster.backend();
  const std::size_t added_a = b.add_node();
  const std::size_t added_b = b.add_node();
  b.run_cycles(2);
  EXPECT_EQ(b.alive_count(), 10u);
  EXPECT_FALSE(b.protocol(added_a).dissemination_view().empty());
  EXPECT_FALSE(b.protocol(added_b).dissemination_view().empty());
  const auto probe = b.broadcast_one();
  EXPECT_EQ(probe.delivered, 10u);
}

/// A 4-node Cyclon cluster at fanout 0 (random-fanout gossip with zero
/// targets; HyParView would flood its active view regardless): a
/// broadcast delivers at its source and then goes nowhere.
TcpBackendConfig stalled_flood_config(std::uint64_t seed,
                                      Duration broadcast_timeout) {
  TcpBackendConfig config =
      TcpBackendConfig::defaults_for(ProtocolKind::kCyclon, 4, seed);
  config.broadcast_timeout = broadcast_timeout;
  return config;
}

TEST(TcpBackendTest, StalledFloodEndsAtQuiescenceWellBeforeBackstop) {
  // Nothing is in flight once the source delivered locally, so the drain
  // ends at quiescence instead of waiting for the 30 s backstop: a
  // partial flood must not cost the whole timeout per probe.
  TcpBackend backend(stalled_flood_config(11, seconds(30)));
  backend.build();
  backend.settle();
  backend.set_fanout(0);

  const auto start = std::chrono::steady_clock::now();
  const analysis::MessageResult result = backend.broadcast_from(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(result.delivered, backend.alive_count());
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(TcpBackendTest, LoopThatNeverQuiescesEndsAtBackstop) {
  // A timer that re-arms itself every 1 ms keeps a live timer due before
  // the deadline, so the loop never quiesces: the same stalled flood must
  // end at broadcast_timeout, neither sooner nor never.
  TcpBackend backend(stalled_flood_config(9, milliseconds(300)));
  backend.build();
  backend.settle();
  backend.set_fanout(0);

  struct Ticker {
    net::EventLoop& loop;
    void arm() {
      loop.schedule(milliseconds(1), [this] { arm(); });
    }
  } ticker{backend.loop()};
  ticker.arm();

  const auto start = std::chrono::steady_clock::now();
  const analysis::MessageResult result = backend.broadcast_from(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(result.delivered, backend.alive_count());
  // The tick re-armed in the last millisecond falls due after the
  // deadline, so the drain may end up to 1 ms before it.
  EXPECT_GE(elapsed, std::chrono::milliseconds(290));
  // Generous bound for loaded CI machines.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace hyparview::harness
