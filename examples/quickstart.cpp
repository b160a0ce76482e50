// Quickstart: a 64-node simulated HyParView overlay in ~40 lines of API use.
//
//   $ ./quickstart [--nodes=64] [--seed=42]
//
// Builds the overlay (everyone joins through node #0), runs a few membership
// rounds, broadcasts a message, and prints what the protocol maintained.
#include <cstdio>

#include "hyparview/common/options.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/sim_backend.hpp"

using namespace hyparview;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.check_known({"nodes", "seed"});
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 64));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  // 1. Configure a HyParView network (paper defaults: active view 5,
  //    passive view 30, ARWL 6, PRWL 3).
  auto config = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, nodes, seed);
  harness::SimBackend net(config);

  // 2. Everyone joins through a contact node, then a few shuffle rounds run.
  net.build();
  net.run_cycles(5);

  // 3. Broadcast: HyParView floods the symmetric active-view overlay.
  const auto result = net.broadcast_one();
  std::printf("broadcast delivered to %zu/%zu nodes (%.1f%%) within %u hops\n",
              result.delivered, result.alive_nodes,
              result.reliability() * 100.0, result.max_hops);

  // 4. Inspect what the membership protocol built.
  const auto graph = net.dissemination_graph(false);
  std::printf("overlay: %zu nodes, %zu active-view links, connected=%s\n",
              graph.node_count(), graph.edge_count() / 2,
              graph::is_weakly_connected(graph) ? "yes" : "no");

  const auto& proto =
      static_cast<core::HyParView&>(net.protocol(nodes / 2));
  std::printf("node #%zu active view :", nodes / 2);
  for (const auto& peer : proto.active_view()) {
    std::printf(" %s", peer.to_string().c_str());
  }
  std::printf("\nnode #%zu passive view:", nodes / 2);
  for (const auto& peer : proto.passive_view()) {
    std::printf(" %s", peer.to_string().c_str());
  }
  std::printf("\n");

  // 5. Kill a third of the network and watch the flood still deliver.
  net.fail_random_fraction(1.0 / 3.0);
  const auto after = net.broadcast_one();
  std::printf("after 33%% failures: delivered to %zu/%zu survivors (%.1f%%)\n",
              after.delivered, after.alive_nodes,
              after.reliability() * 100.0);
  return 0;
}
