// Ablation A2: ARWL / PRWL random-walk lengths — their effect on overlay
// quality straight after the join phase (no stabilization cycles), which is
// exactly what the join walks are responsible for.
#include "bench_common.hpp"

#include "hyparview/graph/metrics.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/50);
  bench::JsonRecorder bench_json("ablation_walk_lengths", scale);
  bench::print_header("Ablation A2 — ARWL/PRWL walk lengths (HyParView)",
                      "paper §4.2 parameters (ARWL=6, PRWL=3 in §5.1)", scale);

  struct Setting {
    std::uint8_t arwl;
    std::uint8_t prwl;
  };
  const std::vector<Setting> settings = {{1, 0}, {3, 1}, {6, 3},
                                         {8, 5}, {12, 6}};

  analysis::Table table({"ARWL", "PRWL", "connected?", "in-deg stddev",
                         "mean passive fill", "reliability(50 msgs)"});
  for (const auto& s : settings) {
    bench::Stopwatch watch;
    auto cfg = harness::NetworkConfig::defaults_for(
        harness::ProtocolKind::kHyParView, scale.nodes, scale.seed);
    cfg.hyparview.arwl = s.arwl;
    cfg.hyparview.prwl = s.prwl;
    auto cluster = harness::Cluster::sim(cfg);
    // An empty spec runs the build alone: joins only, no membership
    // rounds — isolate the walk behaviour.
    cluster.run(harness::Experiment("walk_joins"));
    harness::Backend& net = cluster.backend();

    const auto g = net.dissemination_graph(false);
    const auto indeg = g.in_degrees();
    std::vector<double> values(indeg.begin(), indeg.end());
    const auto summary = analysis::summarize(values);

    double passive_total = 0.0;
    for (std::size_t i = 0; i < net.node_count(); ++i) {
      passive_total +=
          static_cast<double>(net.protocol(i).backup_view().size());
    }
    const double passive_fill =
        passive_total / static_cast<double>(net.node_count()) /
        static_cast<double>(cfg.hyparview.passive_capacity);

    const auto measure = cluster.run(
        harness::Experiment("walk_reliability")
            .broadcast(scale.messages, "rel"));
    const double rel = measure.phase("rel").avg_reliability();

    bench_json.add_events(net.events_processed());
    table.add_row({std::to_string(s.arwl), std::to_string(s.prwl),
                   graph::is_weakly_connected(g) ? "yes" : "NO",
                   analysis::fmt(summary.stddev, 2),
                   analysis::fmt_percent(passive_fill, 1),
                   analysis::fmt_percent(rel, 2)});
    std::printf("[ARWL=%u PRWL=%u: %.1fs]\n", s.arwl, s.prwl, watch.seconds());
  }
  std::cout << table.to_string();
  std::printf("expected: short walks concentrate joiners near the contact "
              "(higher in-degree spread, emptier passive views); the paper's "
              "6/3 keeps the overlay connected with passive views primed.\n");
  return 0;
}
