// Packet / byte overhead accounting (paper §6 future work: "measure the
// packet overhead of our approach due to the use of TCP" — the PlanetLab
// experiment the authors defer).
//
// For every protocol, after the standard §5 stabilization preamble, two
// phases are metered with the simulator's traffic counters:
//
//   1. steady-state membership maintenance — 10 cycles with no broadcasts:
//      control frames, control bytes and TCP connection establishments per
//      node per cycle (HyParView keeps its active-view connections open, so
//      its recurring dial cost is just the shuffle-reply temporaries);
//   2. dissemination — broadcasts with no membership cycles: gossip frames
//      and bytes per broadcast, redundancy (extra copies per delivery), ack
//      frames (CyclonAcked), and the repair traffic the broadcasts trigger.
//
// The paper's qualitative claim (§5.5): the small fanout is what makes
// flooding every link affordable — HyParView's data redundancy should sit
// near active-degree-1 ≈ fanout while random-fanout protocols pay the same
// fanout in duplicates *plus* failed deliveries, and its steady-state dial
// rate should be far below Cyclon's one-temporary-connection-per-shuffle.
#include "bench_common.hpp"

#include "hyparview/membership/wire.hpp"

using namespace hyparview;

namespace {

struct PhaseTraffic {
  double msgs_per_node = 0.0;
  double bytes_per_node = 0.0;
  double conns_per_node = 0.0;
  std::uint64_t gossip_frames = 0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t ack_frames = 0;
  std::uint64_t control_bytes = 0;  ///< everything but gossip + acks
};

PhaseTraffic snapshot(const sim::Simulator& sim, std::size_t nodes,
                      std::size_t rounds) {
  PhaseTraffic t;
  const auto gossip_tag = wire::type_tag(wire::Message{wire::Gossip{}});
  const auto ack_tag = wire::type_tag(wire::Message{wire::GossipAck{}});
  const double denom = static_cast<double>(nodes) * static_cast<double>(rounds);
  t.msgs_per_node = static_cast<double>(sim.messages_sent()) / denom;
  t.bytes_per_node = static_cast<double>(sim.bytes_sent()) / denom;
  t.conns_per_node = static_cast<double>(sim.connections_opened()) / denom;
  t.gossip_frames = sim.sent_by_type()[gossip_tag];
  t.gossip_bytes = sim.bytes_by_type()[gossip_tag];
  t.ack_frames = sim.sent_by_type()[ack_tag];
  t.control_bytes =
      sim.bytes_sent() - t.gossip_bytes - sim.bytes_by_type()[ack_tag];
  return t;
}

}  // namespace

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/100);
  bench::JsonRecorder bench_json("overhead_accounting", scale);
  bench::print_header(
      "Overhead accounting — control/data frames, bytes and TCP dials",
      "paper §6 future work (PlanetLab packet-overhead measurement)", scale);

  constexpr std::size_t kMaintenanceCycles = 10;

  analysis::Table maint({"protocol", "ctrl msgs/node/cycle",
                         "ctrl bytes/node/cycle", "dials/node/cycle"});
  analysis::Table dissem({"protocol", "frames/bcast", "KB/bcast", "redundancy",
                          "acks/bcast", "repair bytes/bcast", "reliability"});

  for (const auto kind : harness::all_protocol_kinds()) {
    bench::Stopwatch watch;
    auto cfg =
        harness::NetworkConfig::defaults_for(kind, scale.nodes, scale.seed);
    // This experiment meters wire cost, so CyclonAcked ships its ack frames
    // for real instead of the implicit transport-level modeling.
    cfg.gossip.explicit_acks = true;
    auto cluster = harness::Cluster::sim(cfg);
    cluster.run(harness::Experiment("overhead_stabilize")
                    .stabilize(50));
    harness::SimBackend& net = *cluster.sim_backend();
    auto& sim = net.simulator();

    // Phase 1: membership maintenance only (counters reset between the
    // metered Experiment phases — runs compose on one Cluster).
    sim.reset_counters();
    cluster.run(harness::Experiment("overhead_maintenance")
                    .cycles(kMaintenanceCycles));
    const auto maintenance =
        snapshot(sim, net.alive_count(), kMaintenanceCycles);
    maint.add_row({harness::kind_name(kind),
                   analysis::fmt(maintenance.msgs_per_node, 2),
                   analysis::fmt(maintenance.bytes_per_node, 1),
                   analysis::fmt(maintenance.conns_per_node, 3)});

    // Phase 2: dissemination only (stable overlay, no cycles in between —
    // the §5.2 regime).
    sim.reset_counters();
    const auto dissemination = cluster.run(
        harness::Experiment("overhead_dissemination")
            .broadcast(scale.messages, "bcast"));
    std::size_t delivered = 0;
    for (const auto& r : dissemination.phase("bcast").broadcasts) {
      delivered += r.delivered;
    }
    const auto traffic = snapshot(sim, net.alive_count(), scale.messages);
    const double bcasts = static_cast<double>(scale.messages);
    const double redundancy =
        delivered == 0 ? 0.0
                       : static_cast<double>(traffic.gossip_frames) /
                                 static_cast<double>(delivered) -
                             1.0;
    double reliability_sum = 0.0;
    for (const auto& r : net.recorder().results()) {
      reliability_sum += r.reliability();
    }
    const auto& results = net.recorder().results();
    const std::size_t tail =
        std::min(results.size(), scale.messages);  // this phase's messages
    double tail_rel = 0.0;
    for (std::size_t i = results.size() - tail; i < results.size(); ++i) {
      tail_rel += results[i].reliability();
    }
    dissem.add_row(
        {harness::kind_name(kind),
         analysis::fmt(static_cast<double>(traffic.gossip_frames) / bcasts, 0),
         analysis::fmt(
             static_cast<double>(traffic.gossip_bytes) / bcasts / 1024.0, 1),
         analysis::fmt(redundancy, 3),
         analysis::fmt(static_cast<double>(traffic.ack_frames) / bcasts, 0),
         analysis::fmt(static_cast<double>(traffic.control_bytes) / bcasts, 1),
         analysis::fmt(100.0 * tail_rel / static_cast<double>(tail), 1) + "%"});
    bench_json.add_events(sim.events_processed());
    std::printf("[%s done in %.1fs]\n", harness::kind_name(kind),
                watch.seconds());
  }

  std::printf("\n--- steady-state membership maintenance (%zu cycles, no "
              "broadcasts) ---\n",
              kMaintenanceCycles);
  std::cout << maint.to_string();
  std::printf("\n--- dissemination (%zu broadcasts, stable overlay, no "
              "cycles) ---\n",
              scale.messages);
  std::cout << dissem.to_string();
  std::printf(
      "expected shape: HyParView's recurring dials are only the shuffle-reply "
      "temporaries (~1/node/cycle) and it floods with redundancy ≈ "
      "active-degree-1 ≈ fanout; Cyclon/Scamp pay the same fanout-sized "
      "redundancy; CyclonAcked additionally ships one ack frame per gossip "
      "frame received (≈ frames/bcast).\n");
  return 0;
}
