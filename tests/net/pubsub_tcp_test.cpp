// The pub/sub payload plane on real sockets: the committed pub/sub specs
// (specs/pubsub_plumtree.json / pubsub_eager.json) run against their "tcp"
// section — 32 nodes, each with its own listening socket — through exactly
// the loader + Experiment pipeline `hpv_run` uses. The same spec objects
// drive the sim backend in the scenario tier; this leg proves the Plumtree
// engine's eager/lazy links, graft timers, and prune decisions behave on a
// substrate with real connect/reset semantics and no global clock.
//
// Tick counts are trimmed from the committed paper-scale stream (25+10
// ticks) to a CI-sized one; everything else — engines, window sizes,
// sources, rates, churn fraction — is the committed configuration.
//
// Registered under the `net` label, so the TSan CI job covers it.
#include <gtest/gtest.h>

#include <string>

#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace hyparview::harness {
namespace {

/// Loads a committed pub/sub spec and shrinks its stream phases for CI:
/// the steady stream keeps 6 ticks, the churn stream 4 (the crash still
/// lands at the midpoint tick).
RunSpec trimmed_spec(const std::string& name) {
  RunSpec spec = load_spec_file(spec_path(name));
  for (Experiment::Phase& phase : spec.experiment.mutable_phases()) {
    if (phase.kind != Experiment::PhaseKind::kPubSub) continue;
    phase.pubsub.ticks = phase.pubsub.churn_fraction > 0.0 ? 4 : 6;
  }
  return spec;
}

PhaseResult run_on_tcp(const std::string& name, const std::string& phase) {
  const RunSpec spec = trimmed_spec(name);
  auto cluster = Cluster::tcp(spec.tcp);
  const ExperimentResult result = cluster.run(spec.experiment);
  EXPECT_EQ(result.backend, std::string("tcp"));
  return result.phase(phase);
}

TEST(PubSubTcpTest, PlumtreeStreamDeliversOnRealSockets) {
  const PhaseResult steady = run_on_tcp("pubsub_plumtree", "steady");

  EXPECT_EQ(steady.broadcasts.size(), 8u * 6u * 2u);
  // Real-socket timing is not deterministic, so the floors sit a hair
  // under the sim's 100%.
  EXPECT_GE(steady.message_reliability().mean, 0.95);
  EXPECT_GE(steady.reliabilities.back(), 0.95);
  // A per-tick value above 1 means some node delivered a payload twice —
  // the dedup window failed, not the network over-performing.
  for (double r : steady.reliabilities) EXPECT_LE(r, 1.0 + 1e-9);
  // The tree actually formed: duplicates triggered prunes, and the stream
  // kept flowing on the thinned overlay.
  EXPECT_GT(steady.counters.prunes, 0u);
  EXPECT_GT(steady.counters.payload_bytes, 0u);
}

TEST(PubSubTcpTest, PlumtreeStreamSurvivesMidpointCrashOnRealSockets) {
  const PhaseResult churn = run_on_tcp("pubsub_plumtree", "churn");

  EXPECT_EQ(churn.broadcasts.size(), 8u * 4u * 2u);
  for (double r : churn.reliabilities) EXPECT_LE(r, 1.0 + 1e-9);
  // The crash tick may lose in-flight payloads to dying sockets; the final
  // tick must see the stream flowing over the repaired overlay again.
  EXPECT_GE(churn.reliabilities.back(), 0.90);
}

TEST(PubSubTcpTest, PlumtreePaysFewerPayloadBytesThanEagerOnRealSockets) {
  const PhaseResult tree = run_on_tcp("pubsub_plumtree", "steady");
  const PhaseResult eager = run_on_tcp("pubsub_eager", "steady");

  EXPECT_GE(eager.message_reliability().mean, 0.95);
  EXPECT_GE(tree.message_reliability().mean,
            eager.message_reliability().mean - 0.02);
  // Short TCP streams include the eager warm-up flood, so the bound is
  // looser than the bench's steady-state ≤0.6 gate — but the direction
  // must hold even here.
  EXPECT_LT(tree.counters.payload_bytes, eager.counters.payload_bytes)
      << "plumtree " << tree.counters.payload_bytes << " vs eager "
      << eager.counters.payload_bytes;
  // The eager engine never sends control traffic or prunes.
  EXPECT_EQ(eager.counters.prunes, 0u);
  EXPECT_EQ(eager.counters.grafts, 0u);
}

}  // namespace
}  // namespace hyparview::harness
