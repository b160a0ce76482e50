// Figure 2: average reliability of 1000 messages sent right after a massive
// failure (no membership cycles in between, reactive steps allowed), for
// failure rates 10%..95%, across all four protocols.
//
// Paper anchors: HyParView ≈ flat near 100% below 90% failures and ~90% even
// at 95%; CyclonAcked competitive up to ~70%; Cyclon and Scamp below 50%
// reliability once failures exceed ~50%.
//
// Every (protocol, failure-fraction, run) point is an independent Cluster
// running the same declarative Experiment (stabilize → crash → measure),
// seeded from (config, seed) alone, so the sweep fans out across threads
// (harness::SweepRunner, HPV_THREADS); per-point results and the aggregated
// table are bit-identical to the serial loop.
//
// The phase program loads from the committed specs/fig2.json; each point
// copies the template and rewrites the crash fraction (plus the env-scaled
// broadcast count).
#include "bench_common.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/1000);
  bench::JsonRecorder bench_json("fig2_reliability_vs_failures", scale);
  bench::print_header("Figure 2 — reliability of 1000 messages vs failure %",
                      "paper §5.2, Fig. 2", scale);

  const std::vector<double> fractions = {0.10, 0.20, 0.30, 0.40, 0.50,
                                         0.60, 0.70, 0.80, 0.90, 0.95};
  analysis::Table table({"failure%", "HyParView", "CyclonAcked", "Cyclon",
                         "Scamp"});

  std::vector<std::vector<std::string>> rows(
      fractions.size(), std::vector<std::string>(5));
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    rows[f][0] = analysis::fmt(fractions[f] * 100.0, 0);
  }

  // One job per (protocol, fraction, run) point; slots are pre-sized so
  // aggregation below reads them in deterministic index order.
  struct Point {
    harness::ProtocolKind kind;
    std::size_t f = 0;
    std::size_t run = 0;
    double reliability = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<Point> points;
  for (const auto kind : harness::all_protocol_kinds()) {
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      for (std::size_t run = 0; run < scale.runs; ++run) {
        points.push_back({kind, f, run, 0.0, 0});
      }
    }
  }

  // Shared phase-program template; each job copies it and rewrites the
  // crash fraction (SweepRunner jobs own their Experiment copy).
  harness::Experiment spec_template = bench::load_spec_experiment("fig2");
  for (auto& phase : spec_template.mutable_phases()) {
    if (phase.kind == harness::Experiment::PhaseKind::kBroadcast) {
      phase.count = scale.messages;
    }
  }

  std::vector<std::function<void()>> jobs;
  jobs.reserve(points.size());
  for (Point& point : points) {
    jobs.push_back([&, p = &point] {
      auto cluster = bench::sim_cluster(p->kind, scale.nodes,
                                        scale.seed + p->run * 1000 + p->f);
      harness::Experiment spec = spec_template;
      for (auto& phase : spec.mutable_phases()) {
        if (phase.kind == harness::Experiment::PhaseKind::kCrash) {
          phase.fraction = fractions[p->f];
        }
      }
      const auto result = cluster.run(spec);
      p->reliability = result.phase("measure").avg_reliability();
      p->events = cluster->events_processed();
      const std::lock_guard<std::mutex> lock(bench::sweep_print_mutex());
      std::printf("[%s @ %.0f%% run %zu: %s]\n", harness::kind_name(p->kind),
                  fractions[p->f] * 100.0, p->run,
                  analysis::fmt_percent(p->reliability, 1).c_str());
    });
  }

  const std::vector<double> point_seconds = bench::run_sweep(jobs, bench_json);

  // Deterministic aggregation: index order == serial order.
  std::size_t column = 1;
  std::size_t next_point = 0;
  for (const auto kind : harness::all_protocol_kinds()) {
    (void)kind;
    for (std::size_t f = 0; f < fractions.size(); ++f) {
      double sum = 0.0;
      double seconds = 0.0;
      for (std::size_t run = 0; run < scale.runs; ++run, ++next_point) {
        sum += points[next_point].reliability;
        seconds += point_seconds[next_point];
        bench_json.add_events(points[next_point].events);
      }
      rows[f][column] =
          analysis::fmt_percent(sum / static_cast<double>(scale.runs), 1);
      bench_json.add_metric(
          std::string("point_seconds_") +
              harness::kind_name(points[next_point - 1].kind) + "_f" +
              analysis::fmt(fractions[f] * 100.0, 0),
          seconds);
    }
    ++column;
  }
  for (auto& row : rows) table.add_row(std::move(row));
  std::cout << table.to_string();
  std::printf("paper shape: HyParView ~100%% through 80-90%%, ~90%% at 95%%; "
              "CyclonAcked high to 70%%; Cyclon/Scamp <50%% past 50%% "
              "failures.\n");
  return 0;
}
