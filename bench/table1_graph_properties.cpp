// Table 1: graph properties after 50 stabilization cycles — average
// clustering coefficient, average shortest path, and the average "maximum
// hops to delivery" over broadcast messages.
//
// Paper values (10,000 nodes):
//   Cyclon    0.006836  2.60426   10.6
//   Scamp     0.022476  3.35398   14.1
//   HyParView 0.00092   6.38542    9.0
#include "bench_common.hpp"

#include "hyparview/graph/metrics.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/50);
  bench::JsonRecorder bench_json("table1_graph_properties", scale);
  bench::print_header("Table 1 — graph properties after stabilization",
                      "paper §5.4, Table 1", scale);

  struct PaperRow {
    harness::ProtocolKind kind;
    const char* clustering;
    const char* asp;
    const char* hops;
  };
  const std::vector<PaperRow> rows = {
      {harness::ProtocolKind::kCyclon, "0.006836", "2.60426", "10.6"},
      {harness::ProtocolKind::kScamp, "0.022476", "3.35398", "14.1"},
      {harness::ProtocolKind::kHyParView, "0.00092", "6.38542", "9.0"},
  };

  analysis::Table table({"protocol", "clustering", "paper", "avg shortest path",
                         "paper", "max hops to delivery", "paper"});

  for (const auto& row : rows) {
    bench::Stopwatch watch;
    auto cluster = bench::sim_cluster(row.kind, scale.nodes, scale.seed);
    cluster.run(harness::Experiment("table1_stabilize")
                    .stabilize(50));

    const auto g = cluster->dissemination_graph(false);
    const double clustering =
        graph::average_clustering(g.undirected_closure());

    Rng sampler(scale.seed * 31 + 7);
    const auto paths = graph::shortest_path_stats(g, /*max_sources=*/256,
                                                  sampler);

    // "Maximum hops to delivery": average over messages of the last
    // delivery's hop distance.
    const auto measure = cluster.run(
        harness::Experiment("table1_hops").broadcast(scale.messages, "hops"));
    double hops_sum = 0.0;
    for (const auto& r : measure.phase("hops").broadcasts) {
      hops_sum += r.max_hops;
    }
    const double avg_max_hops =
        hops_sum / static_cast<double>(std::max<std::size_t>(scale.messages, 1));

    bench_json.add_events(cluster->events_processed());
    table.add_row({harness::kind_name(row.kind),
                   analysis::fmt(clustering, 6), row.clustering,
                   analysis::fmt(paths.average_shortest_path, 5), row.asp,
                   analysis::fmt(avg_max_hops, 1), row.hops});
    std::printf("[%s done in %.1fs; %zu BFS sources, %zu unreachable pairs]\n",
                harness::kind_name(row.kind), watch.seconds(),
                paths.sampled_sources, paths.unreachable_pairs);
  }
  std::cout << table.to_string();
  std::printf("paper shape: HyParView clustering << Cyclon < Scamp; "
              "HyParView ASP larger (small active view) yet fewest delivery "
              "hops (floods all links).\n");
  return 0;
}
