// Ablation A4 — the CREW-style connection cache (§2.4): HyParView with
// warm_cache_size pre-opened connections to passive-view members.
//
// The paper notes CREW's open-connection cache "can be applied in
// HyParView, by pre-opening connections to some of the members of the
// passive view" but does not evaluate it. This bench quantifies the trade:
//
//   * standing cost — extra connection dials per node per membership cycle
//     (cache refresh), measured over 10 quiet cycles;
//   * repair speed — after a massive failure, how much of the active-view
//     repair runs over pre-opened links (warm promotions), how many dials
//     dissemination-time repair needs, and the reliability of the early
//     post-failure broadcasts;
//   * hygiene — cache-refresh dials double as liveness probes of the
//     passive view, expunging dead candidates before repair needs them.
#include "bench_common.hpp"

using namespace hyparview;

namespace {

/// Per-node warm-promotion counters (0 for non-HyParView nodes).
std::vector<std::uint64_t> warm_promotions_per_node(harness::SimBackend& net) {
  std::vector<std::uint64_t> out(net.node_count(), 0);
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    const auto* hpv = dynamic_cast<const core::HyParView*>(&net.protocol(i));
    if (hpv != nullptr) out[i] = hpv->stats().warm_promotions;
  }
  return out;
}

}  // namespace

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/100);
  bench::JsonRecorder bench_json("ablation_warm_cache", scale);
  bench::print_header(
      "Ablation A4 — warm passive-connection cache (CREW §2.4)",
      "paper §2.4 (CREW comparison): pre-opened connections to passive members",
      scale);

  const std::vector<std::size_t> cache_sizes = {0, 3, 6};
  const std::vector<double> fractions = {0.50, 0.80, 0.90};

  analysis::Table table({"warm", "failure%", "idle dials/node/cycle",
                         "first-10 reliability", "avg reliability",
                         "warm promos/node", "repair dials/node"});

  for (const double fraction : fractions) {
    for (const std::size_t warm : cache_sizes) {
      bench::Stopwatch watch;
      auto cfg = harness::NetworkConfig::defaults_for(
          harness::ProtocolKind::kHyParView, scale.nodes, scale.seed);
      cfg.hyparview.warm_cache_size = warm;
      auto cluster = harness::Cluster::sim(cfg);
      cluster.run(harness::Experiment("warm_stabilize")
                      .stabilize(50));
      harness::SimBackend& net = *cluster.sim_backend();

      // Standing cost of the cache at steady state (counters reset between
      // the metered Experiment phases — runs compose on one Cluster).
      auto& sim = net.simulator();
      sim.reset_counters();
      cluster.run(harness::Experiment("warm_idle")
                      .cycles(10));
      const double idle_dials =
          static_cast<double>(sim.connections_opened()) /
          static_cast<double>(net.alive_count()) / 10.0;

      const auto warm_promos_before = warm_promotions_per_node(net);

      net.fail_random_fraction(fraction);
      sim.reset_counters();
      const auto measure =
          cluster.run(harness::Experiment("warm_measure")
                          .broadcast(scale.messages, "measure"));
      const auto& rels = measure.phase("measure").reliabilities;
      double sum = 0.0;
      double first10 = 0.0;
      for (std::size_t m = 0; m < rels.size(); ++m) {
        sum += rels[m];
        if (m < 10) first10 += rels[m];
      }
      const double alive = static_cast<double>(net.alive_count());
      const auto warm_promos_after = warm_promotions_per_node(net);
      std::uint64_t repair_warm_promos = 0;
      for (std::size_t i = 0; i < warm_promos_after.size(); ++i) {
        if (net.alive(i)) {
          repair_warm_promos += warm_promos_after[i] - warm_promos_before[i];
        }
      }

      table.add_row(
          {std::to_string(warm), analysis::fmt(fraction * 100.0, 0),
           analysis::fmt(idle_dials, 3),
           analysis::fmt_percent(first10 / 10.0, 1),
           analysis::fmt_percent(sum / static_cast<double>(scale.messages), 1),
           analysis::fmt(static_cast<double>(repair_warm_promos) / alive, 2),
           analysis::fmt(static_cast<double>(sim.connections_opened()) / alive,
                         2)});
      bench_json.add_events(sim.events_processed());
      std::printf("[warm=%zu @ %.0f%%: %.1fs]\n", warm, fraction * 100,
                  watch.seconds());
    }
  }
  std::cout << table.to_string();
  std::printf(
      "expected: the cache trades a small steady dial rate for repair that "
      "needs fewer dissemination-time dials (warm promotions replace them); "
      "reliability is already near-perfect without it, so the gain shows in "
      "repair traffic and latency, not delivery counts.\n");
  return 0;
}
