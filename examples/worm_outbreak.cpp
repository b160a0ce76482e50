// Worm outbreak scenario (paper §1): a worm takes down a huge fraction of
// the system *simultaneously* — e.g. every machine running one OS version —
// and the broadcast overlay must keep delivering and heal itself.
//
//   $ ./worm_outbreak [--nodes=2000] [--kill=0.8] [--msgs=60] [--seed=7]
//
// Prints the reliability of each message after the outbreak, the view
// accuracy as the failure detector purges dead neighbors, and the healing
// progress over membership rounds.
#include <cstdio>

#include "hyparview/common/options.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/sim_backend.hpp"

using namespace hyparview;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.check_known({"nodes", "kill", "msgs", "seed"});
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 2000));
  const double kill = args.get_double("kill", 0.8);
  const auto msgs = static_cast<std::size_t>(args.get_int("msgs", 60));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  auto config = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, nodes, seed);
  harness::SimBackend net(config);

  std::printf("building %zu-node HyParView overlay...\n", nodes);
  net.build();
  net.run_cycles(20);
  std::printf("pre-outbreak: accuracy %.3f, broadcast reliability %.1f%%\n",
              net.view_accuracy(), net.broadcast_one().reliability() * 100);

  std::printf("\n*** worm fires: %.0f%% of all nodes crash simultaneously "
              "***\n\n",
              kill * 100);
  net.fail_random_fraction(kill);
  std::printf("%zu survivors; view accuracy now %.3f\n", net.alive_count(),
              net.view_accuracy());

  std::printf("\nmessages after the outbreak (reactive repair only):\n");
  for (std::size_t m = 1; m <= msgs; ++m) {
    const auto r = net.broadcast_one();
    if (m <= 10 || m % 10 == 0) {
      std::printf("  msg %3zu: %5.1f%% of survivors (accuracy %.3f)\n", m,
                  r.reliability() * 100, net.view_accuracy());
    }
  }

  std::printf("\nmembership rounds (shuffles + promotions):\n");
  for (int cycle = 1; cycle <= 3; ++cycle) {
    net.run_cycles(1);
    double sum = 0.0;
    for (int i = 0; i < 10; ++i) sum += net.broadcast_one().reliability();
    std::printf("  after round %d: avg reliability %5.1f%%\n", cycle,
                sum * 10);
  }

  const auto alive_graph = net.dissemination_graph(true);
  const auto survivors = alive_graph.induced_subgraph(net.alive_mask());
  std::printf("\nsurvivor overlay: largest component %zu / %zu\n",
              graph::largest_weakly_connected_component(survivors),
              net.alive_count());
  return 0;
}
