// Failure-injection scenarios: the paper's core claims at test scale.
//
// Two tiers: the default CTest registration runs with HPV_QUICK=1 and keeps
// a representative core (50% survival, crashed-contact joins, notify-mode
// healing); the 500-node recovery sweeps run in the `full` tier
// (-DHPV_FULL_TESTS=ON + `ctest -L full`, exercised in CI).
#include <gtest/gtest.h>

#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "support/test_tiers.hpp"

namespace hyparview::harness {
namespace {

/// Builds + stabilizes a network of `n` nodes.
std::unique_ptr<SimBackend> make_stable(ProtocolKind kind, std::size_t n,
                                     std::uint64_t seed,
                                     std::size_t cycles = 10) {
  auto cfg = NetworkConfig::defaults_for(kind, n, seed);
  auto net = std::make_unique<SimBackend>(cfg);
  net->build();
  net->run_cycles(cycles);
  return net;
}

TEST(FailureInjectionTest, HyParViewSurvives50PercentFailures) {
  auto net = make_stable(ProtocolKind::kHyParView, 500, 31);
  net->fail_random_fraction(0.5);
  // Reliability of the burst right after the failure (reactive repair only).
  double sum = 0.0;
  constexpr int kMsgs = 30;
  for (int i = 0; i < kMsgs; ++i) sum += net->broadcast_one().reliability();
  EXPECT_GT(sum / kMsgs, 0.95);
}

TEST(FailureInjectionTest, HyParViewRecoversFrom80PercentFailures) {
  HPV_FULL_TIER_ONLY();
  auto net = make_stable(ProtocolKind::kHyParView, 500, 32);
  net->fail_random_fraction(0.8);
  // Let the reactive mechanism work through a burst of traffic...
  for (int i = 0; i < 30; ++i) net->broadcast_one();
  // ...then reliability must be restored to (near) 100%.
  double sum = 0.0;
  for (int i = 0; i < 10; ++i) sum += net->broadcast_one().reliability();
  EXPECT_GT(sum / 10, 0.95);
}

TEST(FailureInjectionTest, PlainCyclonDegradesUnderMassiveFailure) {
  HPV_FULL_TIER_ONLY();
  auto net = make_stable(ProtocolKind::kCyclon, 500, 33);
  net->fail_random_fraction(0.6);
  double sum = 0.0;
  constexpr int kMsgs = 30;
  for (int i = 0; i < kMsgs; ++i) sum += net->broadcast_one().reliability();
  // Figure 2: Cyclon's reliability collapses above 50% failures; without a
  // failure detector the burst cannot repair anything.
  EXPECT_LT(sum / kMsgs, 0.8);
}

TEST(FailureInjectionTest, CyclonAckedRecoversWithinTensOfMessages) {
  HPV_FULL_TIER_ONLY();
  auto net = make_stable(ProtocolKind::kCyclonAcked, 500, 34);
  net->fail_random_fraction(0.5);
  // Paper fig. 3: CyclonAcked recovers after ~25 messages.
  for (int i = 0; i < 40; ++i) net->broadcast_one();
  double sum = 0.0;
  for (int i = 0; i < 10; ++i) sum += net->broadcast_one().reliability();
  EXPECT_GT(sum / 10, 0.9);
}

TEST(FailureInjectionTest, CyclonAckedBeatsPlainCyclonAfterFailures) {
  HPV_FULL_TIER_ONLY();
  auto plain = make_stable(ProtocolKind::kCyclon, 400, 35);
  auto acked = make_stable(ProtocolKind::kCyclonAcked, 400, 35);
  plain->fail_random_fraction(0.6);
  acked->fail_random_fraction(0.6);
  double plain_sum = 0.0;
  double acked_sum = 0.0;
  constexpr int kMsgs = 50;
  for (int i = 0; i < kMsgs; ++i) {
    plain_sum += plain->broadcast_one().reliability();
    acked_sum += acked->broadcast_one().reliability();
  }
  EXPECT_GT(acked_sum, plain_sum);
}

TEST(FailureInjectionTest, HyParViewAccuracyRestoredByTraffic) {
  HPV_FULL_TIER_ONLY();
  auto net = make_stable(ProtocolKind::kHyParView, 400, 36);
  net->fail_random_fraction(0.5);
  const double before = net->view_accuracy();
  for (int i = 0; i < 20; ++i) net->broadcast_one();
  const double after = net->view_accuracy();
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.98);  // dead entries purged by the failure detector
}

TEST(FailureInjectionTest, CrashedContactNodeDoesNotBlockJoins) {
  // Kill the bootstrap contact, then verify the overlay still serves joins
  // through other nodes (the contact is only a bootstrap convenience).
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 100, 37);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(3);
  net.simulator().crash(net.id_of(0));
  for (int i = 0; i < 10; ++i) net.broadcast_one();
  double sum = 0.0;
  for (int i = 0; i < 5; ++i) sum += net.broadcast_one().reliability();
  EXPECT_GT(sum / 5, 0.99);
}

TEST(FailureInjectionTest, OverlayConnectivityAmongSurvivors) {
  HPV_FULL_TIER_ONLY();
  auto net = make_stable(ProtocolKind::kHyParView, 500, 38);
  net->fail_random_fraction(0.7);
  for (int i = 0; i < 30; ++i) net->broadcast_one();  // reactive repair
  net->run_cycles(2);                                 // plus two rounds
  const auto g = net->dissemination_graph(/*alive_only=*/true);
  std::vector<bool> keep = net->alive_mask();
  const auto sub = g.induced_subgraph(keep);
  EXPECT_GE(graph::largest_weakly_connected_component(sub),
            static_cast<std::size_t>(0.99 * static_cast<double>(net->alive_count())));
}

TEST(FailureInjectionTest, RepeatedFailureWavesSurvivable) {
  HPV_FULL_TIER_ONLY();
  auto net = make_stable(ProtocolKind::kHyParView, 400, 39);
  for (int wave = 0; wave < 3; ++wave) {
    net->fail_random_fraction(0.3);
    for (int i = 0; i < 20; ++i) net->broadcast_one();
    net->run_cycles(2);
  }
  double sum = 0.0;
  for (int i = 0; i < 10; ++i) sum += net->broadcast_one().reliability();
  EXPECT_GT(sum / 10, 0.9);
}

TEST(FailureInjectionTest, NotifyOnCrashModeHealsEvenFaster) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 300, 40);
  cfg.sim.notify_on_crash = true;
  SimBackend net(cfg);
  net.build();
  net.run_cycles(5);
  net.fail_random_fraction(0.5);
  net.simulator().run_until_quiescent();  // crash notifications + repairs
  const auto result = net.broadcast_one();
  EXPECT_GT(result.reliability(), 0.98);
}

}  // namespace
}  // namespace hyparview::harness
