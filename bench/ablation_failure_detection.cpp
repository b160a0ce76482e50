// Ablation A3: failure-detection modelling choices (DESIGN.md):
//  1. detect-on-send (paper model) vs notify-on-crash,
//  2. re-routing the in-flight message to a substitute target on failure.
// Scenario: figure-2 style burst after a 60% / 90% crash wave, HyParView.
//
// The (variant, fraction) cells are independent Networks, fanned out across
// threads by harness::SweepRunner (HPV_THREADS); results are bit-identical
// to the serial loop.
#include "bench_common.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/200);
  bench::JsonRecorder bench_json("ablation_failure_detection", scale);
  bench::print_header("Ablation A3 — failure detection & re-routing",
                      "modelling choices behind §4.3 / DESIGN.md", scale);

  analysis::Table table({"variant", "60% failures", "90% failures"});
  struct Variant {
    const char* name;
    bool notify;
    bool reroute;
  };
  const std::vector<Variant> variants = {
      {"detect-on-send (paper)", false, false},
      {"detect-on-send + reroute", false, true},
      {"notify-on-crash", true, false},
      {"notify-on-crash + reroute", true, true},
  };
  const std::vector<double> fractions = {0.60, 0.90};

  struct Cell {
    double reliability = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<Cell> cells(variants.size() * fractions.size());

  std::vector<std::function<void()>> jobs;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      jobs.push_back([&, v, f] {
        auto cfg = harness::NetworkConfig::defaults_for(
            harness::ProtocolKind::kHyParView, scale.nodes, scale.seed);
        cfg.sim.notify_on_crash = variants[v].notify;
        cfg.gossip.reroute_on_failure = variants[v].reroute;
        auto cluster = harness::Cluster::sim(cfg);
        harness::Experiment spec("failure_detection_cell");
        spec.stabilize(50)
            .crash(fractions[f]);
        if (cfg.sim.notify_on_crash) {
          spec.settle();  // let the crash notifications land first
        }
        spec.broadcast(scale.messages, "measure");
        const auto result = cluster.run(spec);
        Cell& cell = cells[v * fractions.size() + f];
        cell.reliability = result.phase("measure").avg_reliability();
        cell.events = cluster->events_processed();
        const std::lock_guard<std::mutex> lock(bench::sweep_print_mutex());
        std::printf("[%s @ %.0f%%: %s]\n", variants[v].name,
                    fractions[f] * 100,
                    analysis::fmt_percent(cell.reliability, 1).c_str());
      });
    }
  }

  const std::vector<double> cell_seconds = bench::run_sweep(jobs, bench_json);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> row = {variants[v].name};
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      const Cell& cell = cells[v * fractions.size() + f];
      row.push_back(analysis::fmt_percent(cell.reliability, 1));
      bench_json.add_events(cell.events);
      bench_json.add_metric(std::string("point_seconds_v") +
                               std::to_string(v) + "_f" +
                               analysis::fmt(fractions[f] * 100.0, 0),
                           cell_seconds[v * fractions.size() + f]);
    }
    table.add_row(std::move(row));
  }
  std::cout << table.to_string();
  std::printf("expected: notify-on-crash repairs before the first message; "
              "re-routing buys reliability on the first few messages after "
              "the crash wave.\n");
  return 0;
}
