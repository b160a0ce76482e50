// Figure 1(a)/(b): fanout vs. reliability for Cyclon and Scamp on a stable
// 10,000-node overlay (50 gossip messages per fanout). HyParView's
// deterministic flood is included as the reference row (its "fanout" is the
// whole active view).
//
// Paper anchor points: Cyclon needs fanout 5 for >99% and 6 for ~99.9%;
// Scamp needs fanout 6 for >99%.
//
// Pipeline: one declarative Experiment per (protocol, run) — stabilize,
// then per fanout a set_fanout + measured-broadcast phase — run on a sim
// Cluster. Bit-identical to the historical hand-rolled loop at a fixed
// seed (pinned by experiment_test).
//
// The phase programs load from the committed specs/fig1.json and
// specs/fig1_reference.json; only the scale-dependent knobs (broadcast
// counts, cycle batching) are patched from the env.
#include "bench_common.hpp"

using namespace hyparview;

namespace {

std::string fanout_label(std::size_t fanout) {
  return "fanout" + std::to_string(fanout);
}

/// Loads specs/<name>.json and rescales it: broadcast counts follow
/// HPV_MSGS.
harness::Experiment scaled_spec(const std::string& name,
                                std::size_t messages) {
  harness::Experiment spec = bench::load_spec_experiment(name);
  for (auto& phase : spec.mutable_phases()) {
    if (phase.kind == harness::Experiment::PhaseKind::kBroadcast) {
      phase.count = messages;
    }
  }
  return spec;
}

}  // namespace

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/50);
  bench::JsonRecorder bench_json("fig1_fanout_reliability", scale);
  bench::print_header("Figure 1a/1b — fanout vs reliability (stable overlay)",
                      "paper §3.1, Fig. 1(a)(b)", scale);

  const std::vector<std::size_t> fanouts = {1, 2, 3, 4, 5, 6, 7, 8};
  analysis::Table table({"protocol", "fanout", "avg reliability",
                         "min reliability", "paper"});

  const harness::Experiment spec = scaled_spec("fig1", scale.messages);
  for (const auto kind :
       {harness::ProtocolKind::kCyclon, harness::ProtocolKind::kScamp}) {
    for (std::size_t run = 0; run < scale.runs; ++run) {
      bench::Stopwatch watch;
      auto cluster = bench::sim_cluster(kind, scale.nodes, scale.seed + run);
      const auto result = cluster.run(spec);

      for (const std::size_t fanout : fanouts) {
        const auto summary =
            analysis::summarize(result.phase(fanout_label(fanout)).reliabilities);
        std::string paper;
        if (kind == harness::ProtocolKind::kCyclon && fanout == 5) {
          paper = ">99%";
        } else if (kind == harness::ProtocolKind::kCyclon && fanout == 6) {
          paper = "~99.9%";
        } else if (kind == harness::ProtocolKind::kScamp && fanout == 6) {
          paper = ">99%";
        }
        table.add_row({harness::kind_name(kind), std::to_string(fanout),
                       analysis::fmt_percent(summary.mean, 2),
                       analysis::fmt_percent(summary.min, 2), paper});
      }
      bench_json.add_events(cluster->events_processed());
      if (run == 0) {
        bench::add_phase_timings(bench_json, result,
                                 std::string(harness::kind_name(kind)) + "_");
      }
      std::printf("[%s run %zu done in %.1fs]\n", harness::kind_name(kind),
                  run, watch.seconds());
    }
  }

  // HyParView reference: flood of the active view (fanout column = |active|-1).
  {
    auto cluster = bench::sim_cluster(harness::ProtocolKind::kHyParView,
                                      scale.nodes, scale.seed);
    const auto result =
        cluster.run(scaled_spec("fig1_reference", scale.messages));
    bench_json.add_events(cluster->events_processed());
    bench::add_phase_timings(bench_json, result, "HyParView_");
    const auto summary =
        analysis::summarize(result.phase("flood").reliabilities);
    table.add_row({"HyParView (flood)", "4*",
                   analysis::fmt_percent(summary.mean, 2),
                   analysis::fmt_percent(summary.min, 2), "100%"});
  }

  std::cout << table.to_string();
  std::printf("* HyParView floods its symmetric active view (size fanout+1); "
              "reliability is 100%% while the overlay is connected.\n");
  return 0;
}
