// Plumtree payload-plane scenario tier.
//
// End-to-end rows for the TreeBroadcastEngine on the sim backend, at the
// level the unit suite cannot reach — whole-cluster behavior of the tree
// under sustained multi-source pub/sub streams:
//
//   * bit-identity — two fresh clusters, same seed, same spec: every
//     pub/sub counter, per-tick reliability, and the simulator event count
//     must match exactly (the determinism contract of ROADMAP item 4);
//   * crash-heal — 25% of the cluster crashes at the stream midpoint; the
//     tree must repair through HyParView's reactive membership and the
//     stream must recover to full reliability before it ends;
//   * randomized link drops — a property suite across seeds: after a wave
//     of random connection resets (Simulator::drop_random_links) the
//     graft/prune repair path must restore full delivery;
//   * payload economy — at equal reliability, Plumtree's payload bytes stay
//     well under the eager flood's: a solid reduction on a stream from a
//     cold start, and the payload plane's gate (at most 60% of the flood's
//     steady-state payload bytes) on the committed pub/sub specs at 200
//     nodes.
//
// HPV_QUICK=1 (set by the plumtree_smoke alias) shrinks the seed grid and
// tick counts so the smoke tier stays fast; the full grid runs under the
// `scenario` label.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/harness/spec_json.hpp"

namespace hyparview::harness {
namespace {

bool quick() { return std::getenv("HPV_QUICK") != nullptr; }

NetworkConfig plumtree_config(std::size_t nodes, std::uint64_t seed) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, nodes, seed);
  cfg.gossip.engine = gossip::Engine::kPlumtree;
  // Sustained streams keep sources × rate ids in flight per tick plus the
  // graft-repair horizon; size the windows the way the committed pub/sub
  // specs do rather than relying on the discrete-wave default.
  cfg.gossip.dedup_window = 1024;
  cfg.gossip.cache_window = 1024;
  return cfg;
}

PubSubConfig steady_stream(std::size_t ticks) {
  PubSubConfig cfg;
  cfg.sources = 4;
  cfg.ticks = ticks;
  cfg.rate = 2;
  cfg.cycles_per_tick = 1;
  return cfg;
}

// --- determinism -------------------------------------------------------------

// The full pub/sub outcome of a run, down to exact counters. Everything in
// here must be bit-identical across two runs at the same seed.
struct RunFingerprint {
  PhaseResult stream;
  std::uint64_t events = 0;

  bool operator==(const RunFingerprint& o) const {
    return stream.broadcasts == o.stream.broadcasts &&
           stream.reliabilities == o.stream.reliabilities &&
           stream.counters == o.stream.counters && events == o.events;
  }
};

RunFingerprint run_once(std::uint64_t seed, const PubSubConfig& stream) {
  auto cluster = Cluster::sim(plumtree_config(128, seed));
  auto result = cluster.run(Experiment("plumtree_determinism")
                                .stabilize(50)
                                .pubsub(stream, "stream"));
  return {result.phase("stream"), cluster->events_processed()};
}

TEST(PlumtreeDeterminism, TwoRunsBitIdentical) {
  auto stream = steady_stream(quick() ? 8 : 20);
  stream.churn_fraction = 0.25;  // repair traffic included in the contract
  const RunFingerprint a = run_once(7, stream);
  const RunFingerprint b = run_once(7, stream);
  EXPECT_TRUE(a == b)
      << "plumtree pub/sub diverged across two identically-seeded runs: "
      << "events " << a.events << " vs " << b.events << ", forwarded "
      << a.stream.counters.forwards << " vs " << b.stream.counters.forwards
      << ", grafts " << a.stream.counters.grafts << " vs "
      << b.stream.counters.grafts;
  // A second seed must actually change the run (guards against the
  // fingerprint accidentally comparing constants).
  const RunFingerprint c = run_once(8, stream);
  EXPECT_FALSE(a == c);
}

// --- crash-heal --------------------------------------------------------------

TEST(PlumtreeChurnHeal, StreamRecoversAfterQuarterCrash) {
  auto cluster = Cluster::sim(plumtree_config(quick() ? 128 : 256, 11));
  auto stream = steady_stream(quick() ? 12 : 20);
  stream.churn_fraction = 0.25;
  auto result = cluster.run(Experiment("plumtree_churn_heal")
                                .stabilize(50)
                                .pubsub(stream, "stream"));
  const PhaseResult& streamed = result.phase("stream");
  const std::vector<double>& per_tick = streamed.reliabilities;

  ASSERT_EQ(per_tick.size(), stream.ticks);
  // Reliability is deliveries over alive non-source nodes: a value above
  // 1 + epsilon would mean a node delivered the same payload twice (dedup
  // failure), not good luck.
  for (double r : per_tick) EXPECT_LE(r, 1.0 + 1e-9);

  // Pre-crash steady state is a converged tree: full delivery.
  const std::size_t mid = stream.ticks / 2;
  for (std::size_t t = 0; t + 1 < mid; ++t)
    EXPECT_GE(per_tick[t], 0.999) << "pre-crash tick " << t;

  // The crash tick itself may lose in-flight payloads; by the final tick
  // the tree must have re-formed over the healed overlay.
  EXPECT_GE(per_tick.back(), 0.999)
      << "stream did not recover by the last tick";
  EXPECT_GE(streamed.message_reliability().min, 0.5)
      << "losing half the alive nodes' deliveries means the tree "
         "disconnected, not just dropped in-flight traffic";
  // Repair actually exercised the Plumtree path (not a silent re-flood).
  EXPECT_GT(streamed.counters.prunes, 0u);
}

// --- randomized link drops ---------------------------------------------------

TEST(PlumtreeDropProperty, GraftRepairSurvivesRandomResetsAcrossSeeds) {
  const std::vector<std::uint64_t> seeds =
      quick() ? std::vector<std::uint64_t>{3}
              : std::vector<std::uint64_t>{3, 17, 23};
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto cluster = Cluster::sim(plumtree_config(128, seed));
    // Converge the tree under a steady stream first.
    auto warm = cluster.run(Experiment("plumtree_drop_warm")
                                .stabilize(50)
                                .pubsub(steady_stream(8), "warm"));
    EXPECT_GE(warm.phase("warm").reliabilities.back(), 0.999);

    // Reset 30% of the open connections: eager tree edges die with them.
    const std::size_t dropped =
        cluster.sim_backend()->simulator().drop_random_links(0.3);
    ASSERT_GT(dropped, 0u);
    cluster->settle();  // link-closed notifications + membership repair

    // The continued stream must re-converge: IHave announcements on the
    // surviving lazy links cover the cut tree edges, grafts promote them.
    auto healed = cluster.run(
        Experiment("plumtree_drop_heal").pubsub(steady_stream(8), "healed"));
    const PhaseResult& stream = healed.phase("healed");
    EXPECT_GE(stream.reliabilities.back(), 0.999)
        << "stream did not recover after dropping " << dropped << " links";
    EXPECT_GE(stream.message_reliability().min, 0.9);
    for (double r : stream.reliabilities) EXPECT_LE(r, 1.0 + 1e-9);
  }
}

// --- payload economy ---------------------------------------------------------

/// Steady phase of the committed specs/pubsub_<engine>.json at 200 nodes
/// and seed 42, with 4 steady and 2 churn ticks.
PhaseResult committed_steady_phase(const std::string& engine) {
  ScalePatch scale;
  scale.nodes = 200;
  scale.seed = 42;
  RunSpec spec =
      load_sweep_file(spec_path("pubsub_" + engine), 1, scale).front().spec;
  for (Experiment::Phase& phase : spec.experiment.mutable_phases()) {
    if (phase.kind == Experiment::PhaseKind::kPubSub) {
      phase.pubsub.ticks = phase.label == "steady" ? 4 : 2;
    }
  }
  return Cluster::sim(spec.net).run(spec.experiment).phase("steady");
}

TEST(PlumtreeVsEager, FewerPayloadBytesAtEqualReliability) {
  const std::size_t nodes = quick() ? 128 : 256;
  auto spec = Experiment("payload_economy")
                  .stabilize(50)
                  .pubsub(steady_stream(quick() ? 10 : 16), "stream");

  auto eager_cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView,
                                               nodes, 5);
  eager_cfg.gossip.dedup_window = 1024;
  const PhaseResult eager =
      Cluster::sim(eager_cfg).run(spec).phase("stream");
  const PhaseResult tree =
      Cluster::sim(plumtree_config(nodes, 5)).run(spec).phase("stream");

  EXPECT_GE(tree.message_reliability().mean,
            eager.message_reliability().mean - 1e-9);
  // The 0.6 gate below is on a steady phase; this row includes the eager
  // warm-up ticks, so just pin a solid reduction.
  EXPECT_LT(tree.counters.payload_bytes, eager.counters.payload_bytes * 3 / 4)
      << "plumtree " << tree.counters.payload_bytes << " vs eager "
      << eager.counters.payload_bytes;
  // The flood pays a duplicate to almost every edge; the converged tree
  // pays almost none.
  EXPECT_LT(tree.counters.duplicates, eager.counters.duplicates / 2);

  // The committed pub/sub specs, steady phase: the payload plane's gate.
  // Plumtree delivers at least the flood's reliability with at most 60% of
  // its payload bytes.
  const PhaseResult eager_steady = committed_steady_phase("eager");
  const PhaseResult tree_steady = committed_steady_phase("plumtree");
  EXPECT_GE(tree_steady.message_reliability().mean,
            eager_steady.message_reliability().mean);
  ASSERT_GT(eager_steady.counters.payload_bytes, 0u);
  const double payload_share =
      static_cast<double>(tree_steady.counters.payload_bytes) /
      static_cast<double>(eager_steady.counters.payload_bytes);
  EXPECT_LE(payload_share, 0.6)
      << "plumtree " << tree_steady.counters.payload_bytes << " vs eager "
      << eager_steady.counters.payload_bytes;
}

}  // namespace
}  // namespace hyparview::harness
