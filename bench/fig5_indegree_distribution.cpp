// Figure 5: in-degree distribution of the overlay after stabilization.
//
// Paper anchors: HyParView concentrates almost all nodes at in-degree 5
// (the symmetric active view size); Cyclon spreads over a wide range;
// Scamp has a long tail including nodes known by a single other node.
#include "bench_common.hpp"

#include "hyparview/graph/metrics.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/0);
  bench::JsonRecorder bench_json("fig5_indegree_distribution", scale);
  bench::print_header("Figure 5 — in-degree distribution after stabilization",
                      "paper §5.4, Fig. 5", scale);

  for (const auto kind : harness::all_protocol_kinds()) {
    bench::Stopwatch watch;
    auto cluster = bench::sim_cluster(kind, scale.nodes, scale.seed);
    cluster.run(harness::Experiment("fig5_stabilize")
                    .stabilize(50));
    const auto g = cluster->dissemination_graph(false);
    const auto hist = graph::in_degree_histogram(g);
    std::printf("\n%s (built in %.1fs):\n", harness::kind_name(kind),
                watch.seconds());
    analysis::Table table({"in-degree", "nodes", "fraction"});
    // Bucket the tail so Scamp/Cyclon tables stay readable.
    const std::size_t max_individual = 20;
    std::size_t tail = 0;
    for (std::size_t d = 0; d < hist.size(); ++d) {
      if (d <= max_individual) {
        if (hist[d] == 0) continue;
        table.add_row({std::to_string(d), std::to_string(hist[d]),
                       analysis::fmt_percent(
                           static_cast<double>(hist[d]) /
                               static_cast<double>(scale.nodes),
                           2)});
      } else {
        tail += hist[d];
      }
    }
    if (tail > 0) {
      table.add_row({">" + std::to_string(max_individual),
                     std::to_string(tail),
                     analysis::fmt_percent(static_cast<double>(tail) /
                                               static_cast<double>(scale.nodes),
                                           2)});
    }
    std::cout << table.to_string();

    bench_json.add_events(cluster->events_processed());
    const auto indeg = g.in_degrees();
    std::vector<double> values(indeg.begin(), indeg.end());
    const auto summary = analysis::summarize(values);
    std::printf("mean in-degree %.2f, stddev %.2f, min %.0f, max %.0f\n",
                summary.mean, summary.stddev, summary.min, summary.max);
  }
  std::printf("\npaper shape: HyParView pinned at |active|=5; Cyclon wide; "
              "Scamp long-tailed with some in-degree-1 nodes.\n");
  return 0;
}
