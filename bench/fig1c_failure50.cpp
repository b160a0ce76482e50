// Figure 1(c): reliability of the first 100 messages after 50% of the nodes
// crash, for Cyclon and Scamp (fanout 4), before any membership cycle runs.
//
// Paper anchor: reliability is lost — no message reaches more than ~85% of
// the surviving nodes, many far fewer.
//
// Pipeline: stabilize → crash(0.5) → measured broadcasts, as one
// declarative Experiment per protocol.
#include "bench_common.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/100);
  bench::JsonRecorder bench_json("fig1c_failure50", scale);
  bench::print_header("Figure 1c — messages after 50% failures",
                      "paper §3.2, Fig. 1(c)", scale);

  analysis::Table series({"msg#", "Cyclon", "Scamp"});
  std::vector<std::vector<double>> columns;

  for (const auto kind :
       {harness::ProtocolKind::kCyclon, harness::ProtocolKind::kScamp}) {
    bench::Stopwatch watch;
    auto cluster = bench::sim_cluster(kind, scale.nodes, scale.seed);
    const auto result =
        cluster.run(harness::Experiment("fig1c")
                        .stabilize(50)
                        .crash(0.5)
                        .broadcast(scale.messages, "measure"));
    columns.push_back(result.phase("measure").reliabilities);
    bench_json.add_events(cluster->events_processed());
    bench::add_phase_timings(bench_json, result,
                             std::string(harness::kind_name(kind)) + "_");
    std::printf("[%s done in %.1fs]\n", harness::kind_name(kind),
                watch.seconds());
  }

  for (std::size_t m = 0; m < scale.messages; ++m) {
    if (m % 5 != 0 && m + 1 != scale.messages) continue;  // thin the series
    series.add_row({std::to_string(m + 1),
                    analysis::fmt_percent(columns[0][m], 1),
                    analysis::fmt_percent(columns[1][m], 1)});
  }
  std::cout << series.to_string();

  const auto cy = analysis::summarize(columns[0]);
  const auto sc = analysis::summarize(columns[1]);
  std::printf("Cyclon: avg %s max %s | Scamp: avg %s max %s | paper: no "
              "delivery above ~85%%\n",
              analysis::fmt_percent(cy.mean, 1).c_str(),
              analysis::fmt_percent(cy.max, 1).c_str(),
              analysis::fmt_percent(sc.mean, 1).c_str(),
              analysis::fmt_percent(sc.max, 1).c_str());
  return 0;
}
