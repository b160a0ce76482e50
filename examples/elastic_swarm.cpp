// Elastic swarm scenario: a long-running deployment that is never "stable" —
// machines of two hardware classes join and leave continuously (autoscaling,
// spot-instance preemption, deploys) while the application broadcasts.
//
// Exercises the three §6/§2.4 extensions together on one overlay:
//   * heterogeneous degrees (big nodes take proportionally more links),
//   * the CREW-style warm connection cache (repairs skip the dial),
//   * graceful leave vs crash departures under sustained churn.
//
//   $ ./elastic_swarm [--nodes=2000] [--cycles=30] [--churn=0.02]
//                     [--graceful=0.5] [--warm=3] [--seed=11]
#include <cstdio>

#include "hyparview/common/options.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/experiment.hpp"

using namespace hyparview;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.check_known({"nodes", "cycles", "churn", "graceful", "warm", "seed"});
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 2000));
  const auto cycles = static_cast<std::size_t>(args.get_int("cycles", 30));
  const double churn_rate = args.get_double("churn", 0.02);
  const double graceful = args.get_double("graceful", 0.5);
  const auto warm = static_cast<std::size_t>(args.get_int("warm", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  auto config = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, nodes, seed);
  config.hyparview.warm_cache_size = warm;
  // 10% beefy nodes carry ~3x the links of the fleet's small instances.
  config.hyparview_classes = {{0.10, 13, 60}, {0.90, 4, 30}};

  harness::SimBackend net(config);
  std::printf("building a %zu-node two-class overlay (warm cache %zu)...\n",
              nodes, warm);
  net.build();
  net.run_cycles(20);
  std::printf("steady state: reliability %.1f%%, accuracy %.3f\n\n",
              net.broadcast_one().reliability() * 100, net.view_accuracy());

  const auto per_cycle =
      static_cast<std::size_t>(churn_rate * static_cast<double>(nodes));
  std::printf("running %zu cycles of churn: %zu joins + %zu departures per "
              "cycle (%.0f%% graceful)...\n",
              cycles, per_cycle, per_cycle, graceful * 100);

  harness::ChurnConfig churn;
  churn.cycles = cycles;
  churn.joins_per_cycle = per_cycle;
  churn.leaves_per_cycle = per_cycle;
  churn.graceful_fraction = graceful;
  churn.probes_per_cycle = 3;
  const harness::PhaseResult churned =
      harness::run_experiment(net, harness::Experiment("elastic_swarm")
                                       .churn(churn))
          .phases.front();

  const auto& series = churned.reliabilities;
  for (std::size_t c = 0; c < series.size(); ++c) {
    if (c % 5 == 0 || c + 1 == series.size()) {
      std::printf("  cycle %2zu: reliability %5.1f%%\n", c + 1,
                  series[c] * 100);
    }
  }
  // What the churn phase did, from its counter delta: the harness's
  // departures, and how much repair ran over pre-opened connections.
  const harness::Counters& done = churned.counters;
  const analysis::Summary rel = analysis::summarize(series);
  std::printf("\nover the whole churn: avg %.2f%%, worst cycle %.2f%% "
              "(%llu joins, %llu graceful leaves, %llu crashes)\n",
              rel.mean * 100, rel.min * 100,
              static_cast<unsigned long long>(done.joins),
              static_cast<unsigned long long>(done.graceful_leaves),
              static_cast<unsigned long long>(done.crashes));
  std::printf("repairs during churn: %llu promotions, %llu of them over warm links\n",
              static_cast<unsigned long long>(done.promotions),
              static_cast<unsigned long long>(done.warm_promotions));

  const auto g = net.dissemination_graph(true);
  std::printf("final overlay: %zu alive, largest component %zu, accuracy "
              "%.3f\n",
              net.alive_count(),
              graph::largest_weakly_connected_component(
                  g.induced_subgraph(net.alive_mask())),
              net.view_accuracy());
  return 0;
}
