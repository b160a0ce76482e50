// Figure 3(a)-(f): per-message reliability evolution after failures of
// 20/40/60/70/80/95%, for all four protocols.
//
// Paper anchors: HyParView recovers almost immediately (first messages near
// 100%); CyclonAcked needs ~25 messages and stalls above ~80% failures;
// Cyclon and Scamp stay flat (no failure detector) until membership cycles
// run.
//
// Each (fraction, protocol) series is an independent Cluster running the
// same declarative Experiment (stabilize → crash → measure), so the whole
// figure fans out across threads (harness::SweepRunner, HPV_THREADS) with
// per-(config,seed) results bit-identical to the serial loop.
#include "bench_common.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/1000);
  bench::JsonRecorder bench_json("fig3_reliability_evolution", scale);
  bench::print_header("Figure 3 — reliability evolution after failures",
                      "paper §5.2, Fig. 3(a)-(f)", scale);

  const std::vector<double> fractions = {0.20, 0.40, 0.60, 0.70, 0.80, 0.95};
  // Sample the series densely at the start (recovery happens there).
  const auto report_points = [&](std::size_t total) {
    std::vector<std::size_t> points;
    for (std::size_t m = 1; m <= total; ++m) {
      if (m <= 30 || m % (total / 20 == 0 ? 1 : total / 20) == 0 ||
          m == total) {
        points.push_back(m);
      }
    }
    return points;
  };

  // One job per (fraction, protocol) series, fraction-major so aggregation
  // below can walk the slots in the serial reporting order.
  struct Series {
    double fraction = 0.0;
    harness::ProtocolKind kind;
    std::vector<double> rels;
    std::uint64_t events = 0;
  };
  std::vector<Series> series;
  for (const double fraction : fractions) {
    for (const auto kind : harness::all_protocol_kinds()) {
      series.push_back({fraction, kind, {}, 0});
    }
  }

  std::vector<std::function<void()>> jobs;
  jobs.reserve(series.size());
  for (Series& s : series) {
    jobs.push_back([&, p = &s] {
      auto cluster = bench::sim_cluster(
          p->kind, scale.nodes,
          scale.seed + static_cast<std::uint64_t>(p->fraction * 100));
      const auto result =
          cluster.run(harness::Experiment("fig3_series")
                          .stabilize(50)
                          .crash(p->fraction)
                          .broadcast(scale.messages, "evolution"));
      p->rels = result.phase("evolution").reliabilities;
      p->events = cluster->events_processed();
      const std::lock_guard<std::mutex> lock(bench::sweep_print_mutex());
      std::printf("[%s @ %.0f%% done]\n", harness::kind_name(p->kind),
                  p->fraction * 100.0);
    });
  }

  const std::vector<double> series_seconds = bench::run_sweep(jobs, bench_json);

  std::size_t next_series = 0;
  for (const double fraction : fractions) {
    std::printf("\n--- Figure 3: %0.f%% failures ---\n", fraction * 100.0);
    const Series* base = &series[next_series];
    for (std::size_t k = 0; k < harness::all_protocol_kinds().size();
         ++k, ++next_series) {
      bench_json.add_events(series[next_series].events);
      bench_json.add_metric(
          std::string("point_seconds_") +
              harness::kind_name(series[next_series].kind) + "_f" +
              analysis::fmt(fraction * 100.0, 0),
          series_seconds[next_series]);
    }

    analysis::Table table({"msg#", "HyParView", "CyclonAcked", "Cyclon",
                           "Scamp"});
    for (const std::size_t m : report_points(scale.messages)) {
      table.add_row({std::to_string(m),
                     analysis::fmt_percent(base[0].rels[m - 1], 1),
                     analysis::fmt_percent(base[1].rels[m - 1], 1),
                     analysis::fmt_percent(base[2].rels[m - 1], 1),
                     analysis::fmt_percent(base[3].rels[m - 1], 1)});
    }
    std::cout << table.to_string();
  }
  return 0;
}
