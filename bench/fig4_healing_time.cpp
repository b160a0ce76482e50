// Figure 4: membership cycles needed to regain the pre-failure reliability,
// per failure percentage (10 probe broadcasts per cycle).
//
// Paper anchors: HyParView heals in 1-2 cycles below 80% (≤4 at 90%);
// Cyclon's healing time grows almost linearly with the failure percentage;
// Scamp is omitted (healing depends on its lease).
//
// The (failure-fraction × protocol) healing repetitions are statistically
// independent — each builds its own SimBackend from a (config, seed) pair — so
// they shard across the harness::SweepRunner thread pool (HPV_THREADS).
// Results land in pre-sized slots and are aggregated in index order, which
// makes the threaded run bit-identical to the serial loop (tested by
// healing_shard_test).
#include "bench_common.hpp"

using namespace hyparview;

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/10);
  bench::JsonRecorder bench_json("fig4_healing_time", scale);
  bench::print_header("Figure 4 — healing time (membership cycles)",
                      "paper §5.3, Fig. 4", scale);

  const std::vector<double> fractions = {0.10, 0.20, 0.30, 0.40, 0.50,
                                         0.60, 0.70, 0.80, 0.90};
  const std::vector<harness::ProtocolKind> kinds = {
      harness::ProtocolKind::kHyParView, harness::ProtocolKind::kCyclonAcked,
      harness::ProtocolKind::kCyclon};

  // Plain Cyclon's tail converges slowly (dead entries recirculate until
  // aging expels them); give it room so the % dependence is visible.
  constexpr std::size_t kMaxCycles = 100;
  const std::string not_recovered = ">" + std::to_string(kMaxCycles);

  // One job per (fraction, kind) point, row-major, each writing only its own
  // pre-sized result slot (the SweepRunner determinism contract).
  const std::size_t point_count = fractions.size() * kinds.size();
  std::vector<harness::HealingResult> results(point_count);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(point_count);
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const double fraction = fractions[f];
      const auto kind = kinds[k];
      const std::size_t slot = f * kinds.size() + k;
      jobs.push_back([&, fraction, kind, slot] {
        bench::Stopwatch watch;
        // run_healing_experiment is itself a declarative Experiment spec on
        // a sim Cluster (stabilize → baseline → crash → heal_until).
        auto cfg = harness::NetworkConfig::defaults_for(
            kind, scale.nodes,
            scale.seed + static_cast<std::uint64_t>(fraction * 100));
        harness::HealingConfig hcfg;
        hcfg.fail_fraction = fraction;
        hcfg.probes_per_cycle = scale.messages;
        hcfg.max_cycles = kMaxCycles;
        hcfg.stabilization_cycles = 50;
        results[slot] = harness::run_healing_experiment(cfg, hcfg);
        const std::lock_guard<std::mutex> lock(bench::sweep_print_mutex());
        std::printf("[%s @ %.0f%%: %s cycles in %.1fs]\n",
                    harness::kind_name(kind), fraction * 100.0,
                    results[slot].recovered
                        ? std::to_string(results[slot].cycles_to_heal).c_str()
                        : not_recovered.c_str(),
                    watch.seconds());
      });
    }
  }
  bench::run_sweep(jobs, bench_json);

  analysis::Table table({"failure%", "HyParView", "CyclonAcked", "Cyclon",
                         "paper (HyParView)"});
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    std::vector<std::string> row;
    row.push_back(analysis::fmt(fractions[f] * 100.0, 0));
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& result = results[f * kinds.size() + k];
      bench_json.add_events(result.events_processed);
      row.push_back(result.recovered ? std::to_string(result.cycles_to_heal)
                                     : not_recovered);
    }
    row.push_back(fractions[f] < 0.8 ? "1-2" : "<=4");
    table.add_row(std::move(row));
  }
  std::cout << table.to_string();
  std::printf("Scamp omitted as in the paper: its healing time is governed "
              "by the lease period.\n");
  return 0;
}
