// Extension E1 — reliability under *continuous* churn.
//
// The paper's evaluation (§5) studies one catastrophic failure burst; real
// deployments also face steady turnover (the §2.1 "dynamic changes in the
// system"). Every cycle, `rate`·n nodes join and `rate`·n depart (half
// gracefully via the protocol's leave primitive, half by crashing), while
// probe broadcasts measure the reliability applications observe. Columns
// report the average and worst per-cycle reliability over the churn run,
// plus the health of the surviving overlay afterwards.
#include "bench_common.hpp"

#include "hyparview/graph/metrics.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/100);
  bench::JsonRecorder bench_json("churn_stability", scale);
  bench::print_header(
      "Extension E1 — reliability under continuous churn",
      "extends §5.2 (single failure burst) to steady join/leave turnover",
      scale);

  const std::vector<double> rates = {0.005, 0.02, 0.05};
  constexpr std::size_t kChurnCycles = 30;

  analysis::Table table({"protocol", "churn %/cycle", "avg reliability",
                         "min reliability", "connected %", "accuracy"});

  for (const auto kind : harness::all_protocol_kinds()) {
    for (const double rate : rates) {
      bench::Stopwatch watch;
      harness::ChurnConfig churn;
      churn.cycles = kChurnCycles;
      churn.joins_per_cycle =
          static_cast<std::size_t>(rate * static_cast<double>(scale.nodes));
      churn.leaves_per_cycle = churn.joins_per_cycle;
      churn.graceful_fraction = 0.5;
      churn.probes_per_cycle = 2;

      auto cluster = bench::sim_cluster(kind, scale.nodes, scale.seed);
      const auto result =
          cluster.run(harness::Experiment("churn_stability")
                          .stabilize(50)
                          .churn(churn, "churn"));
      const harness::PhaseResult& churned = result.phase("churn");

      const auto g = cluster->dissemination_graph(/*alive_only=*/true);
      const double connected =
          static_cast<double>(graph::largest_weakly_connected_component(g)) /
          static_cast<double>(cluster->alive_count());

      bench_json.add_events(cluster->events_processed());
      table.add_row({harness::kind_name(kind),
                     analysis::fmt(rate * 100.0, 1),
                     analysis::fmt_percent(churned.avg_reliability(), 1),
                     analysis::fmt_percent(churned.min_reliability(), 1),
                     analysis::fmt_percent(connected, 1),
                     analysis::fmt(cluster->view_accuracy(), 3)});
      const harness::Counters& c = churned.counters;
      std::printf("[%s @ %.1f%%/cycle: %.1fs (%llu joins, %llu leaves, %llu "
                  "crashes)]\n",
                  harness::kind_name(kind), rate * 100.0, watch.seconds(),
                  static_cast<unsigned long long>(c.joins),
                  static_cast<unsigned long long>(c.graceful_leaves),
                  static_cast<unsigned long long>(c.crashes));
    }
  }
  std::cout << table.to_string();
  std::printf(
      "expected shape: HyParView holds ~100%% through every rate (reactive "
      "repair keeps pace with turnover); CyclonAcked close behind; plain "
      "Cyclon/Scamp degrade as stale entries accumulate faster than their "
      "cyclic/lease refresh can purge them.\n");
  return 0;
}
