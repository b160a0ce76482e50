// Ablation A1 (paper §6 future work): how the passive view size relates to
// the resilience level — reliability right after massive failures, for
// passive capacities 5..60.
//
// Every (passive size, fraction) cell is an independent SimBackend, so the grid
// fans out across threads (harness::SweepRunner, HPV_THREADS) with results
// bit-identical to the serial loop.
#include "bench_common.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/200);
  bench::JsonRecorder bench_json("ablation_passive_size", scale);
  bench::print_header(
      "Ablation A1 — passive view size vs resilience (HyParView)",
      "paper §6 (future work): passive size vs supported failures", scale);

  const std::vector<std::size_t> passive_sizes = {5, 10, 20, 30, 60};
  const std::vector<double> fractions = {0.60, 0.80, 0.90, 0.95};

  struct Cell {
    double avg = 0.0;
    double last = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<Cell> cells(passive_sizes.size() * fractions.size());

  std::vector<std::function<void()>> jobs;
  for (std::size_t p = 0; p < passive_sizes.size(); ++p) {
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      jobs.push_back([&, p, f] {
        auto cfg = harness::NetworkConfig::defaults_for(
            harness::ProtocolKind::kHyParView, scale.nodes,
            scale.seed + passive_sizes[p]);
        cfg.hyparview.passive_capacity = passive_sizes[p];
        auto cluster = harness::Cluster::sim(cfg);
        const auto result =
            cluster.run(harness::Experiment("passive_size_cell")
                            .stabilize(50)
                            .crash(fractions[f])
                            .broadcast(scale.messages, "measure"));
        Cell& cell = cells[p * fractions.size() + f];
        cell.last = result.phase("measure").last_reliability();
        cell.avg = result.phase("measure").avg_reliability();
        cell.events = cluster->events_processed();
        const std::lock_guard<std::mutex> lock(bench::sweep_print_mutex());
        std::printf("[passive=%zu @ %.0f%%: %s]\n", passive_sizes[p],
                    fractions[f] * 100,
                    analysis::fmt_percent(cell.avg, 1).c_str());
      });
    }
  }

  const std::vector<double> cell_seconds = bench::run_sweep(jobs, bench_json);

  analysis::Table table({"passive size", "failure%", "avg reliability",
                         "final reliability"});
  for (std::size_t p = 0; p < passive_sizes.size(); ++p) {
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      const Cell& cell = cells[p * fractions.size() + f];
      table.add_row({std::to_string(passive_sizes[p]),
                     analysis::fmt(fractions[f] * 100.0, 0),
                     analysis::fmt_percent(cell.avg, 1),
                     analysis::fmt_percent(cell.last, 1)});
      bench_json.add_events(cell.events);
      bench_json.add_metric(
          std::string("point_seconds_p") + std::to_string(passive_sizes[p]) +
              "_f" + analysis::fmt(fractions[f] * 100.0, 0),
          cell_seconds[p * fractions.size() + f]);
    }
  }
  std::cout << table.to_string();
  std::printf("expected: larger passive views sustain higher failure rates; "
              "tiny passive views run out of repair candidates.\n");
  return 0;
}
