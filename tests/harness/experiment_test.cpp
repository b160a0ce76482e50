// Declarative Experiment specs vs the hand-rolled legacy loops, the
// per-phase counter deltas, and the run_cycles contract.
//
// The experiment runner promises that a spec executed on the sim backend is
// *bit-identical* to the historical driver loop it replaced at a fixed seed
// (same RNG draws, same event sequence). These tests pin that promise for
// fig1- and fig2-shaped pipelines, for the healing experiment, and pin
// run_cycles event-for-event to the PeerSim per-node-drain loop.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/spec_json.hpp"

namespace hyparview::harness {
namespace {

constexpr std::size_t kNodes = 150;
constexpr std::uint64_t kSeed = 7;

std::vector<double> phase_rels(const ExperimentResult& result,
                               const std::string& label) {
  return result.phase(label).reliabilities;
}

TEST(ExperimentSpecTest, Fig1SpecBitIdenticalToLegacyLoop) {
  const std::vector<std::size_t> fanouts = {2, 4, 6};
  constexpr std::size_t kMsgs = 6;

  // The hand-rolled fig1 pipeline, exactly as the legacy driver wrote it.
  SimBackend legacy(
      NetworkConfig::defaults_for(ProtocolKind::kCyclon, kNodes, kSeed));
  legacy.build();
  legacy.run_cycles(10);
  std::vector<double> legacy_rels;
  for (const std::size_t fanout : fanouts) {
    legacy.set_fanout(fanout);
    for (std::size_t m = 0; m < kMsgs; ++m) {
      legacy_rels.push_back(legacy.broadcast_one().reliability());
    }
  }

  // The same pipeline as a declarative spec.
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kCyclon, kNodes, kSeed));
  Experiment spec("fig1_smoke");
  spec.stabilize(10);
  for (const std::size_t fanout : fanouts) {
    spec.set_fanout(fanout)
        .broadcast(kMsgs, "fanout" + std::to_string(fanout));
  }
  const ExperimentResult result = cluster.run(spec);

  std::vector<double> spec_rels;
  for (const std::size_t fanout : fanouts) {
    const auto rels = phase_rels(result, "fanout" + std::to_string(fanout));
    spec_rels.insert(spec_rels.end(), rels.begin(), rels.end());
  }
  EXPECT_EQ(legacy_rels, spec_rels);
  EXPECT_EQ(legacy.simulator().events_processed(),
            cluster->events_processed());
  EXPECT_EQ(result.events, cluster->events_processed());
}

TEST(ExperimentSpecTest, Fig2SpecBitIdenticalToLegacyLoop) {
  constexpr std::size_t kMsgs = 10;
  constexpr double kFraction = 0.5;

  // Legacy fig2 point: stabilized network, reserve, crash, measure.
  SimBackend legacy(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, kNodes, kSeed));
  legacy.build();
  legacy.run_cycles(10);
  legacy.recorder().reserve(kMsgs);
  legacy.fail_random_fraction(kFraction);
  std::vector<std::size_t> legacy_delivered;
  std::vector<double> legacy_rels;
  for (std::size_t m = 0; m < kMsgs; ++m) {
    const auto r = legacy.broadcast_one();
    legacy_delivered.push_back(r.delivered);
    legacy_rels.push_back(r.reliability());
  }

  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, kNodes, kSeed));
  const ExperimentResult result = cluster.run(Experiment("fig2_smoke")
                                                  .stabilize(10)
                                                  .crash(kFraction)
                                                  .broadcast(kMsgs, "measure"));

  const PhaseResult& measure = result.phase("measure");
  std::vector<std::size_t> spec_delivered;
  for (const auto& r : measure.broadcasts) spec_delivered.push_back(r.delivered);
  EXPECT_EQ(legacy_delivered, spec_delivered);
  EXPECT_EQ(legacy_rels, measure.reliabilities);
  EXPECT_EQ(legacy.simulator().events_processed(),
            cluster->events_processed());
  EXPECT_EQ(legacy.alive_count(), cluster->alive_count());
}

TEST(ExperimentSpecTest, HealingExperimentBitIdenticalToLegacyLoop) {
  const auto cfg =
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, kNodes, kSeed);
  constexpr double kFailFraction = 0.6;
  constexpr std::size_t kProbes = 4;
  constexpr std::size_t kMaxCycles = 20;
  constexpr std::size_t kStabilize = 10;

  // The historical hand-rolled healing loop (the Figure 4 pipeline before
  // it became an Experiment spec).
  double legacy_baseline = 0.0;
  std::vector<double> legacy_per_cycle;
  std::size_t legacy_cycles_to_heal = 0;
  bool legacy_recovered = false;
  std::uint64_t legacy_events = 0;
  {
    SimBackend net(cfg);
    net.build();
    net.run_cycles(kStabilize);
    double sum = 0.0;
    for (std::size_t i = 0; i < kProbes; ++i) {
      sum += net.broadcast_one().reliability();
    }
    legacy_baseline = sum / static_cast<double>(kProbes);
    net.fail_random_fraction(kFailFraction);
    for (std::size_t cycle = 1; cycle <= kMaxCycles; ++cycle) {
      net.run_cycles(1);
      double probe_sum = 0.0;
      for (std::size_t i = 0; i < kProbes; ++i) {
        probe_sum += net.broadcast_one().reliability();
      }
      const double reliability = probe_sum / static_cast<double>(kProbes);
      legacy_per_cycle.push_back(reliability);
      if (reliability >= legacy_baseline) {
        legacy_cycles_to_heal = cycle;
        legacy_recovered = true;
        break;
      }
    }
    if (!legacy_recovered) legacy_cycles_to_heal = kMaxCycles;
    legacy_events = net.simulator().events_processed();
  }

  auto cluster = Cluster::sim(cfg);
  const ExperimentResult fresh =
      cluster.run(Experiment("healing")
                      .stabilize(kStabilize)
                      .broadcast(kProbes, "baseline")
                      .crash(kFailFraction)
                      .heal_until("baseline", kMaxCycles, kProbes, "heal"));
  const PhaseResult& heal = fresh.phase("heal");
  EXPECT_EQ(legacy_baseline, fresh.phase("baseline").avg_reliability());
  EXPECT_EQ(legacy_per_cycle, heal.reliabilities);
  EXPECT_EQ(legacy_cycles_to_heal, heal.cycles_to_heal);
  EXPECT_EQ(legacy_recovered, heal.recovered);
  EXPECT_EQ(legacy_events, cluster->events_processed());
}

TEST(ExperimentSpecTest, LeavePhaseRemovesGracefulDeparturesFromActiveViews) {
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 11));
  const ExperimentResult result = cluster.run(Experiment("leave_wave")
                                                  .stabilize(5)
                                                  .leave(8, /*graceful=*/1.0)
                                                  .broadcast(5, "after"));
  // Goodbyes repair proactively: the post-wave floods lose nobody.
  EXPECT_EQ(result.phase("after").min_reliability(), 1.0);
  // No survivor's dissemination view still points at a departed node.
  Backend& b = cluster.backend();
  for (std::size_t i = 0; i < b.node_count(); ++i) {
    if (!b.alive(i)) continue;
    for (const NodeId& peer : b.protocol(i).dissemination_view()) {
      EXPECT_TRUE(b.alive(peer.ip))
          << "node " << i << " kept departed peer " << peer.to_string();
    }
  }
}

TEST(ExperimentSpecTest, ConsecutiveRunsComposeOnOneCluster) {
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 3));
  const auto first = cluster.run(Experiment("phase_a").stabilize(5));
  const std::uint64_t events_after_first = cluster->events_processed();
  EXPECT_GT(events_after_first, 0u);
  // The second run must continue the same built overlay, not rebuild.
  const auto second =
      cluster.run(Experiment("phase_b").broadcast(3, "probe"));
  EXPECT_EQ(second.phase("probe").avg_reliability(), 1.0);
  EXPECT_EQ(cluster->node_count(), 64u);
  EXPECT_GT(cluster->events_processed(), events_after_first);
  EXPECT_EQ(second.events,
            cluster->events_processed() - events_after_first);
  (void)first;
}

TEST(ExperimentSpecTest, HealUntilRequiresEarlierBroadcastBaseline) {
  // The baseline must be a broadcast phase added before the heal phase:
  // missing, later and non-broadcast labels are rejected at build time.
  EXPECT_THROW(Experiment("missing").heal_until("b", 5, 1), CheckError);
  EXPECT_THROW(Experiment("cycles").stabilize(5, "b").heal_until("b", 5, 1),
               CheckError);
  EXPECT_NO_THROW(Experiment("ok").broadcast(1, "b").heal_until("b", 5, 1));
}

TEST(ExperimentSpecTest, HealUntilRejectsAnEmptyBaseline) {
  // A broadcast phase of count 0 averages to 0.0, which the first probe
  // always "recovers" — the builder refuses it, and so does the runner
  // when an edit through mutable_phases() empties the baseline later.
  EXPECT_THROW(Experiment("empty").broadcast(0, "b").heal_until("b", 5, 1),
               CheckError);
  EXPECT_THROW(Experiment("first")
                   .broadcast(0, "b")
                   .broadcast(5, "b")
                   .heal_until("b", 5, 1),
               CheckError);

  Experiment edited("edited");
  edited.stabilize(5).broadcast(5, "b").crash(0.8).heal_until("b", 10, 10);
  edited.mutable_phases()[1].count = 0;
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kCyclon, 200, kSeed));
  EXPECT_THROW((void)cluster.run(edited), CheckError);
}

TEST(ExperimentSpecTest, HealUntilMeasuresAgainstTheBroadcastBaseline) {
  // A cycles phase sharing the baseline label records no broadcasts; the
  // runner must skip it and heal toward the broadcast phase's reliability,
  // not toward an empty phase's 0.0 (which "recovers" after one cycle).
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kCyclon, 200, kSeed));
  const ExperimentResult result = cluster.run(Experiment("heal")
                                                  .stabilize(5, "b")
                                                  .broadcast(5, "b")
                                                  .crash(0.9)
                                                  .heal_until("b", 5, 5));
  const double baseline = result.phases[1].avg_reliability();
  ASSERT_GT(baseline, 0.5);
  const PhaseResult& heal = result.phase("heal");
  EXPECT_TRUE(!heal.recovered || heal.last_reliability() >= baseline);
  for (std::size_t c = 0; c + 1 < heal.reliabilities.size(); ++c) {
    EXPECT_LT(heal.reliabilities[c], baseline) << "cycle " << c + 1;
  }
}

TEST(ExperimentSpecTest, CrashingEveryNodeThrowsInsteadOfAborting) {
  // The crash fraction comes from the spec, so an empty cluster is bad
  // input: the next draw of a live node throws instead of aborting.
  const auto expect_no_alive_node = [](const Experiment& spec) {
    SCOPED_TRACE(spec.name());
    auto cluster = Cluster::sim(
        NetworkConfig::defaults_for(ProtocolKind::kHyParView, 50, kSeed));
    try {
      cluster.run(spec);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_STREQ(e.what(), "no alive node left");
    }
  };
  expect_no_alive_node(
      Experiment("crash_all").stabilize(2).crash(1.0).broadcast(1));

  // The pub/sub churn crash at the midpoint tick, then the hunt for
  // replacement sources.
  PubSubConfig churn_all;
  churn_all.sources = 2;
  churn_all.ticks = 2;
  churn_all.churn_fraction = 1.0;
  expect_no_alive_node(Experiment("churn_all").stabilize(2).pubsub(churn_all));
}

TEST(ExperimentSpecTest, PubSubChurnBelowTheSourceCountEndsSurplusStreams) {
  // The midpoint crash leaves 5 live nodes for 8 publishers, so 8 distinct
  // live sources cannot exist: the run must finish with every survivor
  // carrying one stream instead of searching for 8 forever.
  PubSubConfig churn_most;
  churn_most.sources = 8;
  churn_most.ticks = 4;
  churn_most.rate = 1;
  churn_most.churn_fraction = 0.9;
  auto cluster = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 50, kSeed));
  const ExperimentResult result = cluster.run(
      Experiment("churn_most").stabilize(2).pubsub(churn_most));

  ASSERT_EQ(cluster.backend().alive_count(), 5u);
  const PhaseResult& stream = result.phase("pubsub");
  EXPECT_EQ(stream.reliabilities.size(), 4u);
  // Two ticks of 8 before the crash, then two ticks of 5.
  EXPECT_EQ(stream.broadcasts.size(), 2u * 8u + 2u * 5u);
}

TEST(ExperimentSpecTest, PubSubAboveTheDedupWindowThrowsBeforeInjecting) {
  // sources x rate messages in flight against a window of 1: an evicted id
  // would be delivered again as new and the flood would never end.
  // hpv_bench loads its measure phases without a network block, so the
  // spec loader's check never sees them; run_pubsub checks again.
  NetworkConfig config =
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, kSeed);
  config.gossip.dedup_window = 1;
  auto cluster = Cluster::sim(config);
  cluster.run(Experiment("overlay").stabilize(5));
  const std::uint64_t events = cluster->events_processed();

  PubSubConfig storm;
  storm.sources = 2;
  storm.ticks = 1;
  storm.rate = 1;
  try {
    cluster.run(Experiment("storm").pubsub(storm));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.what(),
                 "pubsub: sources (2) x rate (1) exceeds "
                 "network.gossip.dedup_window (1); the flood never ends");
  }
  EXPECT_EQ(cluster->events_processed(), events);

  // One message per tick fits the window and runs to its end.
  storm.sources = 1;
  const ExperimentResult result =
      cluster.run(Experiment("stream").pubsub(storm));
  EXPECT_EQ(result.phase("pubsub").broadcasts.size(), 1u);
}

// --- per-phase counters --------------------------------------------------------

TEST(PhaseCountersTest, PhasesSumToTheRunTotalMinusTheBuild) {
  // The committed Plumtree stream at 200 nodes, with its stabilization and
  // ticks trimmed: payload, IHave/Graft/Prune control traffic and a quarter
  // of the nodes crashing mid-stream. Each counter summed over the phases
  // equals what the run added on top of the build.
  RunSpec spec = load_spec_file(spec_path("pubsub_plumtree"));
  spec.net.node_count = 200;
  for (Experiment::Phase& phase : spec.experiment.mutable_phases()) {
    if (phase.kind == Experiment::PhaseKind::kCycles) phase.cycles = 10;
    if (phase.kind == Experiment::PhaseKind::kPubSub) phase.pubsub.ticks = 4;
  }
  SimBackend net(spec.net);
  net.build();
  const Counters built = net.counters();
  const ExperimentResult result = run_experiment(net, spec.experiment);
  const Counters run = net.counters() - built;

  const auto total = run.named();
  std::vector<std::uint64_t> summed(total.size(), 0);
  for (const PhaseResult& phase : result.phases) {
    const auto named = phase.counters.named();
    for (std::size_t i = 0; i < named.size(); ++i) {
      summed[i] += named[i].second;
    }
  }
  for (std::size_t i = 0; i < total.size(); ++i) {
    EXPECT_EQ(summed[i], total[i].second) << total[i].first;
  }
  EXPECT_EQ(result.phases.back().alive, net.alive_count());
  // Not vacuous: the stream moved payload and repaired its tree, and the
  // churn phase crashed a quarter of the nodes.
  EXPECT_GT(run.payload_bytes, 0u);
  EXPECT_GT(run.control_bytes, 0u);
  EXPECT_GT(run.prunes, 0u);
  EXPECT_EQ(result.phase("churn").counters.crashes, 50u);
}

// --- run_cycles ----------------------------------------------------------------

struct CycleFingerprint {
  std::uint64_t events = 0;
  std::vector<std::size_t> in_degrees;
  std::vector<double> probe_rels;

  friend bool operator==(const CycleFingerprint&,
                         const CycleFingerprint&) = default;
};

CycleFingerprint fingerprint(SimBackend& net, std::size_t probes) {
  CycleFingerprint fp;
  fp.events = net.simulator().events_processed();
  fp.in_degrees = net.dissemination_graph(false).in_degrees();
  for (std::size_t i = 0; i < probes; ++i) {
    fp.probe_rels.push_back(net.broadcast_one().reliability());
  }
  return fp;
}

TEST(RunCyclesTest, BitIdenticalToPerNodeDrainLoop) {
  const auto cfg =
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 128, 21);

  SimBackend cycled(cfg);
  cycled.build();
  cycled.run_cycles(3);

  // The PeerSim loop, emulated verbatim: one iota before the rounds, one
  // master-RNG shuffle per round, one quiescence drain per alive node.
  SimBackend manual(cfg);
  manual.build();
  std::vector<std::size_t> order(manual.node_count());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t round = 0; round < 3; ++round) {
    manual.simulator().rng().shuffle(order);
    for (const std::size_t i : order) {
      if (!manual.alive(i)) continue;
      manual.protocol(i).on_cycle();
      manual.simulator().run_until_quiescent();
    }
  }

  EXPECT_EQ(fingerprint(cycled, 4), fingerprint(manual, 4));
}

}  // namespace
}  // namespace hyparview::harness
