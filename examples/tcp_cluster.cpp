// HyParView over real TCP sockets: an in-process cluster on 127.0.0.1,
// driven through the backend-agnostic harness (harness::TcpBackend).
//
//   $ ./tcp_cluster [--nodes=16] [--msgs=5] [--kill=1]
//
// Starts N nodes (each with its own listening socket and HyParView
// instance), joins them through node 0, runs shuffle rounds, broadcasts,
// then hard-kills a node and shows the failure detector and repair in
// action. The build → stabilize → measure → fail → re-measure pipeline is
// a declarative harness::Experiment — the very same spec type (and
// protocol code) the simulator figures run; only the Cluster factory
// differs. Everything runs on one event loop thread over the kernel's TCP
// stack.
#include <cstdio>

#include "hyparview/common/options.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/tcp_backend.hpp"

using namespace hyparview;

namespace {

void print_phase(const harness::ExperimentResult& result,
                 const char* label, std::size_t cluster_size) {
  const harness::PhaseResult& phase = result.phase(label);
  for (std::size_t m = 0; m < phase.broadcasts.size(); ++m) {
    const auto& r = phase.broadcasts[m];
    std::printf("  msg %zu delivered to %zu/%zu nodes (%.1f%%)\n", m + 1,
                r.delivered, cluster_size, 100.0 * r.reliability());
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.check_known({"nodes", "msgs", "kill"});
  const auto node_count = static_cast<std::size_t>(args.get_int("nodes", 16));
  const auto msgs = static_cast<std::size_t>(args.get_int("msgs", 5));
  const bool kill_one = args.get_int("kill", 1) != 0;

  auto config = harness::TcpBackendConfig::defaults_for(
      harness::ProtocolKind::kHyParView, node_count, /*seed=*/100);
  auto cluster = harness::Cluster::tcp(config);

  std::printf("starting %zu TCP nodes on 127.0.0.1...\n", node_count);
  harness::Experiment spec("tcp_cluster_demo");
  spec.stabilize(3).broadcast(msgs, "stable");
  if (kill_one && node_count > 3) {
    spec.leave(1, /*graceful_fraction=*/0.0, "hard_kill")
        .broadcast(4, "post_crash")
        .cycles(2, "repair_rounds");
  }
  const harness::ExperimentResult result = cluster.run(spec);

  for (std::size_t i = 0; i < cluster->node_count(); ++i) {
    std::printf("  node %2zu listening at %s\n", i,
                cluster->id_of(i).to_string().c_str());
  }

  std::printf("\nbroadcasting %zu messages on the stable overlay...\n", msgs);
  print_phase(result, "stable", node_count);

  if (result.has_phase("post_crash")) {
    std::printf("\nhard-killed one node (no goodbye — TCP had to notice); "
                "%zu survivors:\n",
                cluster->alive_count());
    print_phase(result, "post_crash", cluster->alive_count());
  }

  std::printf("\nfinal active views:\n");
  for (std::size_t i = 0; i < cluster->node_count(); ++i) {
    if (!cluster->alive(i)) continue;
    std::printf("  %s ->", cluster->id_of(i).to_string().c_str());
    for (const NodeId& peer : cluster->protocol(i).dissemination_view()) {
      std::printf(" %s", peer.to_string().c_str());
    }
    std::printf("\n");
  }
  return 0;
}
