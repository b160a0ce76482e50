// Extension E2 (paper §6 future work) — adaptive fanouts via heterogeneous
// degrees: "nodes would be required to adapt their degree (and in-degree)".
//
// In HyParView's deterministic flood a node's active-view size is its
// fanout, and symmetry makes it its in-degree too. We compare a homogeneous
// overlay (every node active=5, the paper setup) against heterogeneous
// ones where a small class of high-capacity nodes takes proportionally more
// links under a matched *total link budget* (Σ capacity ≈ 5n):
//
//   uniform-5         : 100% of nodes, capacity 5            (baseline)
//   supernodes-10%    : 10% capacity 13 / 90% capacity 4.1→4 (hub-ish)
//   supernodes-1%     : 1% capacity 55 / 99% capacity 4.5→5  (strong hubs)
//
// Reported: stable reliability and hops, load share carried by the
// high-capacity class (gossip frames forwarded), and reliability after a
// 50% / 80% failure burst (hubs crash too — the interesting risk).
#include "bench_common.hpp"

#include "hyparview/core/hyparview.hpp"

using namespace hyparview;

namespace {

struct Scenario {
  const char* name;
  std::vector<harness::HyParViewClass> classes;  // empty = homogeneous
};

std::uint64_t forwarded_by_class(harness::SimBackend& net, std::size_t cls) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (net.node_class(i) == cls) {
      total += net.runtime(i).gossip().messages_forwarded();
    }
  }
  return total;
}

}  // namespace

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/100);
  bench::JsonRecorder bench_json("ablation_adaptive_degree", scale);
  bench::print_header(
      "Extension E2 — adaptive degree / heterogeneous fanout (HyParView)",
      "paper §6 future work: adapt node degree to capacity", scale);

  const std::vector<Scenario> scenarios = {
      {"uniform-5", {}},
      {"super-10%x13", {{0.10, 13, 60}, {0.90, 4, 30}}},
      {"super-1%x55", {{0.01, 55, 120}, {0.99, 5, 30}}},
  };
  const std::vector<double> fractions = {0.5, 0.8};

  analysis::Table table({"overlay", "stable rel", "max hops",
                         "hub load share", "rel @50% fail", "rel @80% fail"});

  for (const auto& scenario : scenarios) {
    bench::Stopwatch watch;
    double stable_rel = 0.0;
    double max_hops = 0.0;
    double hub_share = 0.0;
    std::vector<double> post_failure;

    for (const double fraction : fractions) {
      auto cfg = harness::NetworkConfig::defaults_for(
          harness::ProtocolKind::kHyParView, scale.nodes, scale.seed);
      cfg.hyparview_classes = scenario.classes;
      auto cluster = harness::Cluster::sim(cfg);
      cluster.run(harness::Experiment("adaptive_stabilize")
                      .stabilize(50));
      harness::SimBackend& net = *cluster.sim_backend();

      if (fraction == fractions.front()) {
        // Stable-phase metrics, measured once.
        const std::size_t stable_msgs = std::max<std::size_t>(
            scale.messages / 2, 10);
        const auto stable = cluster.run(
            harness::Experiment("adaptive_stable")
                .broadcast(stable_msgs, "stable"));
        double rel_sum = 0.0;
        double hops_sum = 0.0;
        for (const auto& r : stable.phase("stable").broadcasts) {
          rel_sum += r.reliability();
          hops_sum += r.max_hops;
        }
        stable_rel = rel_sum / static_cast<double>(stable_msgs);
        max_hops = hops_sum / static_cast<double>(stable_msgs);
        if (!scenario.classes.empty()) {
          const double hub_frames =
              static_cast<double>(forwarded_by_class(net, 0));
          double total_frames = hub_frames;
          for (std::size_t c = 1; c < scenario.classes.size(); ++c) {
            total_frames += static_cast<double>(forwarded_by_class(net, c));
          }
          hub_share = total_frames == 0.0 ? 0.0 : hub_frames / total_frames;
        }
      }

      const auto post = cluster.run(
          harness::Experiment("adaptive_post_failure")
              .crash(fraction)
              .broadcast(scale.messages, "measure"));
      post_failure.push_back(post.phase("measure").avg_reliability());
      bench_json.add_events(net.events_processed());
    }

    table.add_row({scenario.name, analysis::fmt_percent(stable_rel, 1),
                   analysis::fmt(max_hops, 1),
                   scenario.classes.empty()
                       ? std::string("n/a")
                       : analysis::fmt_percent(hub_share, 1),
                   analysis::fmt_percent(post_failure[0], 1),
                   analysis::fmt_percent(post_failure[1], 1)});
    std::printf("[%s done in %.1fs]\n", scenario.name, watch.seconds());
  }
  std::cout << table.to_string();
  std::printf(
      "expected shape: heterogeneous overlays shorten delivery paths (hubs "
      "fan out wider) and concentrate load on the high-capacity class, at "
      "matched total link budget; resilience to random mass failures stays "
      "high because the passive-view repair does not depend on hubs "
      "surviving.\n");
  return 0;
}
