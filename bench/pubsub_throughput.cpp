// Extension — Plumtree payload plane vs eager gossip under sustained
// pub/sub traffic (ROADMAP 4).
//
// The paper's dissemination experiments measure discrete broadcast waves;
// real pub/sub systems stream. This driver runs the committed
// specs/pubsub_{plumtree,eager}.json programs — stabilize, a steady-state
// multi-source stream, the same stream under a 25% midpoint crash — on both
// broadcast engines and compares the cost of full reliability:
//
//   * eager gossip floods the payload on every active link, so each message
//     costs ~degree × n payload transmissions;
//   * Plumtree (Leitão/Pereira/Rodrigues, SRDS'07) pushes the payload only
//     on tree links and sends IHave digests on the rest, collapsing the
//     steady-state payload cost to ~n-1 transmissions per message.
//
// The driver HARD-FAILS unless Plumtree holds at least eager reliability
// with at least 40% fewer payload bytes on the wire in steady state — the
// headline claim of the payload plane. Every sim leg runs twice and any
// divergence in event counts or traffic counters also hard-fails:
// determinism is part of what this bench certifies. bytes_on_wire_* /
// latency_to_last_* fields land in BENCH_pubsub_throughput.json
// (informational in bench_compare; plumtree_events/eager_events gate
// exactly). So do two memory figures per engine, read at the end of a leg,
// which bench_compare fails on when they grow: the event queue's storage
// high-water in events (<engine>_queue_event_storage) and the bytes of
// every node's delivered-id table (<engine>_history_byte_storage).
#include "bench_common.hpp"

#include <cstdlib>
#include <string>

using namespace hyparview;

namespace {

struct PubSubOutcome {
  harness::PhaseResult steady;
  harness::PhaseResult churn;
  std::uint64_t events = 0;
  std::size_t queue_storage = 0;  ///< events
  std::size_t history_bytes = 0;  ///< summed over nodes
};

/// Publish-to-last-delivery latency over the phase's messages.
analysis::Summary latency_us(const harness::PhaseResult& phase) {
  std::vector<double> values;
  for (const analysis::MessageResult& m : phase.broadcasts) {
    values.push_back(static_cast<double>(m.latency_to_last()));
  }
  return analysis::summarize(values);
}

/// Exact equality over every deterministic field (each counter, each
/// message's record) — the two certification runs must agree bit-for-bit
/// on the sim backend.
bool identical(const harness::PhaseResult& a, const harness::PhaseResult& b) {
  return a.counters == b.counters && a.broadcasts == b.broadcasts;
}

bool identical(const PubSubOutcome& a, const PubSubOutcome& b) {
  return a.events == b.events && identical(a.steady, b.steady) &&
         identical(a.churn, b.churn) && a.queue_storage == b.queue_storage &&
         a.history_bytes == b.history_bytes;
}

/// Payload + control: everything the engines put on the wire.
std::uint64_t bytes_on_wire(const harness::PhaseResult& p) {
  return p.counters.payload_bytes + p.counters.control_bytes;
}

/// One engine leg: load the committed spec, patch the scale-dependent knobs
/// (node count, seed, tick counts), run it on a fresh sim cluster.
PubSubOutcome run_leg(const std::string& spec_name,
                      const harness::BenchScale& scale,
                      std::size_t steady_ticks, std::size_t churn_ticks) {
  harness::RunSpec spec =
      harness::load_spec_file(harness::spec_path(spec_name));
  spec.net.node_count = scale.nodes;
  spec.net.seed = scale.seed;
  spec.net.sim.seed = scale.seed;

  harness::Experiment exp = spec.experiment;
  for (auto& phase : exp.mutable_phases()) {
    switch (phase.kind) {
      case harness::Experiment::PhaseKind::kPubSub:
        phase.pubsub.ticks =
            phase.label == "steady" ? steady_ticks : churn_ticks;
        break;
      default:
        break;
    }
  }

  auto cluster = harness::Cluster::sim(spec.net);
  const auto result = cluster.run(exp);
  std::size_t history_bytes = 0;
  for (std::size_t i = 0; i < cluster->node_count(); ++i) {
    history_bytes += cluster->engine(i).history_bytes();
  }
  return {result.phase("steady"), result.phase("churn"),
          cluster->events_processed(),
          cluster.sim_backend()->simulator().queue_storage_events(),
          history_bytes};
}

PubSubOutcome certified(const char* label, const std::string& spec_name,
                        const harness::BenchScale& scale,
                        std::size_t steady_ticks, std::size_t churn_ticks) {
  const PubSubOutcome first =
      run_leg(spec_name, scale, steady_ticks, churn_ticks);
  const PubSubOutcome second =
      run_leg(spec_name, scale, steady_ticks, churn_ticks);
  if (!identical(first, second)) {
    std::fprintf(
        stderr,
        "pubsub_throughput: DETERMINISM VIOLATION in %s: run1 {events=%llu "
        "payload=%llu dups=%llu} vs run2 {events=%llu payload=%llu "
        "dups=%llu}\n",
        label, static_cast<unsigned long long>(first.events),
        static_cast<unsigned long long>(first.steady.counters.payload_bytes),
        static_cast<unsigned long long>(first.steady.counters.duplicates),
        static_cast<unsigned long long>(second.events),
        static_cast<unsigned long long>(second.steady.counters.payload_bytes),
        static_cast<unsigned long long>(second.steady.counters.duplicates));
    std::exit(1);
  }
  return first;
}

void add_phase_metrics(bench::JsonRecorder& rec, const std::string& engine,
                       const char* phase, const harness::PhaseResult& p) {
  rec.add_metric("reliability_" + engine + "_" + phase,
                 p.message_reliability().mean);
  rec.add_metric("bytes_on_wire_" + engine + "_" + phase,
                 static_cast<double>(bytes_on_wire(p)));
  rec.add_metric("latency_to_last_" + engine + "_" + phase,
                 latency_us(p).mean);
}

}  // namespace

int main() {
  // Paper program: 8 sources × 2 msgs/tick × 25 steady ticks = 400 messages
  // (HPV_MSGS scales the tick counts; sources × rate stay pinned by the
  // committed spec so the in-flight concurrency regime is preserved).
  const auto scale = harness::BenchScale::from_env(/*messages=*/400);
  bench::JsonRecorder bench_json("pubsub_throughput", scale);
  bench::print_header(
      "Extension — Plumtree payload plane vs eager gossip (pub/sub streams)",
      "Leitão/Pereira/Rodrigues, \"Epidemic Broadcast Trees\" (SRDS'07), on "
      "the HyParView overlay of §5",
      scale);

  const std::size_t steady_ticks =
      std::max<std::size_t>(2, scale.messages / 16);
  const std::size_t churn_ticks =
      std::max<std::size_t>(2, steady_ticks * 2 / 5);

  bench::Stopwatch plumtree_watch;
  const PubSubOutcome plumtree = certified("plumtree", "pubsub_plumtree",
                                           scale, steady_ticks, churn_ticks);
  std::printf("[plumtree: %.1fs ×2 runs]\n", plumtree_watch.seconds());
  bench::Stopwatch eager_watch;
  const PubSubOutcome eager =
      certified("eager", "pubsub_eager", scale, steady_ticks, churn_ticks);
  std::printf("[eager: %.1fs ×2 runs]\n", eager_watch.seconds());

  analysis::Table table({"engine", "phase", "reliability %", "payload MB",
                         "control MB", "dups/msg", "grafts", "prunes",
                         "avg latency"});
  const auto add_row = [&](const char* engine, const char* phase,
                           const harness::PhaseResult& p) {
    const harness::Counters& c = p.counters;
    const std::size_t published = p.broadcasts.size();
    table.add_row(
        {engine, phase, analysis::fmt_percent(p.message_reliability().mean, 2),
         analysis::fmt(static_cast<double>(c.payload_bytes) / 1e6, 2),
         analysis::fmt(static_cast<double>(c.control_bytes) / 1e6, 2),
         analysis::fmt(published == 0
                           ? 0.0
                           : static_cast<double>(c.duplicates) /
                                 static_cast<double>(published),
                       1),
         std::to_string(c.grafts), std::to_string(c.prunes),
         analysis::fmt(latency_us(p).mean / 1000.0, 2) + "ms"});
  };
  add_row("plumtree", "steady", plumtree.steady);
  add_row("plumtree", "churn", plumtree.churn);
  add_row("eager", "steady", eager.steady);
  add_row("eager", "churn", eager.churn);
  std::cout << table.to_string();

  // ×2: both certification runs contribute simulator events.
  bench_json.add_events(plumtree.events * 2 + eager.events * 2);
  bench_json.add_metric("plumtree_events",
                        static_cast<double>(plumtree.events));
  bench_json.add_metric("eager_events", static_cast<double>(eager.events));
  for (const auto& [engine, outcome] :
       {std::pair{"plumtree", &plumtree}, std::pair{"eager", &eager}}) {
    std::printf("%s: event queue storage %zu events, delivered-id tables "
                "%.2f MB\n",
                engine, outcome->queue_storage,
                static_cast<double>(outcome->history_bytes) / 1e6);
    bench_json.add_metric(std::string(engine) + "_queue_event_storage",
                          static_cast<double>(outcome->queue_storage));
    bench_json.add_metric(std::string(engine) + "_history_byte_storage",
                          static_cast<double>(outcome->history_bytes));
  }
  add_phase_metrics(bench_json, "plumtree", "steady", plumtree.steady);
  add_phase_metrics(bench_json, "plumtree", "churn", plumtree.churn);
  add_phase_metrics(bench_json, "eager", "steady", eager.steady);
  add_phase_metrics(bench_json, "eager", "churn", eager.churn);

  // --- Hard gates: the payload-plane claim itself ------------------------
  const std::uint64_t plumtree_payload =
      plumtree.steady.counters.payload_bytes;
  const std::uint64_t eager_payload = eager.steady.counters.payload_bytes;
  const double payload_ratio =
      eager_payload == 0 ? 1.0
                         : static_cast<double>(plumtree_payload) /
                               static_cast<double>(eager_payload);
  const double plumtree_reliability =
      plumtree.steady.message_reliability().mean;
  const double eager_reliability = eager.steady.message_reliability().mean;
  std::printf(
      "steady state: plumtree %.2f%% reliability at %.1f%% of eager's "
      "payload bytes (%.2fx total wire bytes)\n",
      100.0 * plumtree_reliability, 100.0 * payload_ratio,
      bytes_on_wire(eager.steady) == 0
          ? 1.0
          : static_cast<double>(bytes_on_wire(plumtree.steady)) /
                static_cast<double>(bytes_on_wire(eager.steady)));
  bench_json.add_metric("bytes_on_wire_payload_ratio", payload_ratio);

  bool failed = false;
  if (plumtree_reliability < eager_reliability) {
    std::fprintf(stderr,
                 "pubsub_throughput: GATE FAIL: plumtree steady reliability "
                 "%.6f below eager %.6f\n",
                 plumtree_reliability, eager_reliability);
    failed = true;
  }
  if (payload_ratio > 0.6) {
    std::fprintf(stderr,
                 "pubsub_throughput: GATE FAIL: plumtree payload bytes are "
                 "%.1f%% of eager's (gate: <= 60%%)\n",
                 100.0 * payload_ratio);
    failed = true;
  }
  if (failed) return 1;

  std::printf(
      "expected shape: both engines deliver to every correct node; eager "
      "pays ~degree payload copies per delivery while Plumtree's tree "
      "converges after the first waves and drops payload duplicates to "
      "~zero (IHave digests on lazy links are an order of magnitude "
      "smaller); under the midpoint crash Plumtree grafts the tree back "
      "together and reliability recovers within the tick.\n");
  return 0;
}
