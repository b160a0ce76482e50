// Table-driven fault-scenario matrix.
//
// One parameterized test drives sim-backed HyParView networks through a grid
// of {network size} × {fault scenario} × {seed} and asserts the paper-level
// invariants after the fault plus a bounded healing phase:
//
//   * reliability of post-healing broadcasts ≥ the paper's thresholds
//     (§5: 100% delivery up to 80% simultaneous failures after recovery);
//   * the surviving overlay stays connected (largest weakly connected
//     component ≥ 99% of correct nodes);
//   * active-view symmetry: p ∈ active(q) ⇔ q ∈ active(p) (§3 invariant,
//     re-established by the repair + self-healing traffic rules).
//
// Scenarios: continuous churn, mass simultaneous failure (10–80%), slow
// (blocked) nodes, flaky links (random connection resets via
// Simulator::drop_random_links), latency spikes (the one-way delay
// band jumps ~100× mid-run via Simulator::set_latency, then recovers —
// congestion events must delay but never lose traffic), asymmetric
// partitions (every TCP connection crossing a minority/majority cut is
// reset at once), and a combined fault (latency spike held through a churn
// phase). The Cyclon and Scamp baselines run through a slice of the grid
// with relaxed thresholds — they have no reactive failure detector, so the
// invariants they can promise are weaker (and active-view symmetry is a
// HyParView-only notion). HPV_QUICK=1 shrinks the grid to the
// small-network slice so the `smoke` CTest tier finishes in well under a
// minute; the full grid runs under the `scenario` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "hyparview/common/options.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/experiment.hpp"

namespace hyparview::harness {
namespace {

enum class Fault : std::uint8_t {
  kChurn,         ///< continuous joins + leaves (half graceful, half crash)
  kMassFailure,   ///< simultaneous crash of `intensity` of the network
  kSlowNodes,     ///< `intensity` of nodes stop consuming (§5.5)
  kFlakyLinks,    ///< waves of random connection resets
  kLatencySpike,  ///< one-way delay inflates ~100× mid-run, then recovers
  kPartition,     ///< asymmetric cut: reset every link crossing a
                  ///< minority(`intensity`)/majority split at once
  kSpikeChurn,    ///< combined fault: ~50× latency held through churn
  kGracefulLeave, ///< `intensity` of nodes depart via Protocol::leave —
                  ///< goodbyes, not crashes: repair must be proactive
};

struct ScenarioCase {
  Fault fault = Fault::kMassFailure;
  /// Fault-specific magnitude: failed/blocked/reset/minority fraction
  /// (unused for churn, which has its own workload shape).
  double intensity = 0.0;
  std::size_t nodes = 128;
  std::uint64_t seed = 1;
  /// Post-healing broadcast reliability floor for this cell.
  double min_reliability = 0.99;
  /// Membership protocol under test. The baselines run with relaxed
  /// thresholds and without the HyParView-specific symmetry check.
  ProtocolKind kind = ProtocolKind::kHyParView;
  /// Reliability floor for the probes *during* a churn workload.
  double min_churn_reliability = 0.95;

  [[nodiscard]] std::string name() const {
    std::string fault_name;
    switch (fault) {
      case Fault::kChurn: fault_name = "churn"; break;
      case Fault::kMassFailure:
        fault_name = "fail" + std::to_string(static_cast<int>(intensity * 100));
        break;
      case Fault::kSlowNodes: fault_name = "slow"; break;
      case Fault::kFlakyLinks: fault_name = "flaky"; break;
      case Fault::kLatencySpike: fault_name = "latency"; break;
      case Fault::kPartition: fault_name = "partition"; break;
      case Fault::kSpikeChurn: fault_name = "spikechurn"; break;
      case Fault::kGracefulLeave:
        fault_name =
            "leave" + std::to_string(static_cast<int>(intensity * 100));
        break;
    }
    std::string prefix;
    if (kind != ProtocolKind::kHyParView) {
      prefix = std::string(kind_name(kind)) + "_";
      for (char& ch : prefix) ch = static_cast<char>(std::tolower(ch));
    }
    return prefix + fault_name + "_n" + std::to_string(nodes) + "_s" +
           std::to_string(seed);
  }
};

/// The grid. HPV_QUICK keeps one small network size and one seed per fault
/// so the smoke tier stays fast; the full tier spans ≥ 2 sizes × 2 seeds.
/// The Cyclon/Scamp baseline rows ride along in BOTH tiers (they are part
/// of the smoke slice) at the smallest network size.
std::vector<ScenarioCase> make_grid() {
  const bool quick = env_flag("HPV_QUICK", false);
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{64} : std::vector<std::size_t>{128, 384};
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{7} : std::vector<std::uint64_t>{7, 19};

  std::vector<ScenarioCase> grid;
  for (const std::size_t n : sizes) {
    for (const std::uint64_t seed : seeds) {
      grid.push_back({Fault::kChurn, 0.0, n, seed, 0.99});
      grid.push_back({Fault::kMassFailure, 0.1, n, seed, 0.99});
      grid.push_back({Fault::kMassFailure, 0.5, n, seed, 0.99});
      grid.push_back({Fault::kMassFailure, 0.8, n, seed, 0.95});
      grid.push_back({Fault::kSlowNodes, 0.1, n, seed, 0.99});
      grid.push_back({Fault::kFlakyLinks, 0.3, n, seed, 0.99});
      grid.push_back({Fault::kLatencySpike, 100.0, n, seed, 0.99});
      grid.push_back({Fault::kPartition, 0.125, n, seed, 0.99});
      grid.push_back({Fault::kSpikeChurn, 50.0, n, seed, 0.99});
      grid.push_back({Fault::kGracefulLeave, 0.25, n, seed, 0.99});
    }
  }
  // Baseline slice: no reactive failure detector, so the floors reflect
  // what random-fanout gossip over an aging view can actually promise
  // (paper fig. 1/2 territory, not HyParView's 100%).
  const std::size_t base_n = sizes.front();
  for (const std::uint64_t seed : seeds) {
    // Plain Cyclon's post-churn floor is deliberately loose (observed
    // 0.72–0.85 across seeds): without a failure detector, reliability
    // after sustained churn degrades — which is the paper's very point.
    grid.push_back({Fault::kChurn, 0.0, base_n, seed, 0.65,
                    ProtocolKind::kCyclon, 0.80});
    grid.push_back({Fault::kMassFailure, 0.1, base_n, seed, 0.85,
                    ProtocolKind::kCyclon, 0.80});
    grid.push_back({Fault::kChurn, 0.0, base_n, seed, 0.70,
                    ProtocolKind::kScamp, 0.65});
    grid.push_back({Fault::kMassFailure, 0.1, base_n, seed, 0.70,
                    ProtocolKind::kScamp, 0.65});
  }
  return grid;
}

class ScenarioMatrixTest : public ::testing::TestWithParam<ScenarioCase> {
 protected:
  /// Applies the fault, drives the healing phase, and remembers which nodes
  /// should be excluded from the invariant checks (blocked slow nodes stay
  /// alive but cannot answer).
  void run_scenario(SimBackend& net, const ScenarioCase& c) {
    switch (c.fault) {
      case Fault::kChurn: {
        ChurnConfig churn;
        churn.cycles = 15;
        churn.joins_per_cycle = std::max<std::size_t>(1, c.nodes / 32);
        churn.leaves_per_cycle = churn.joins_per_cycle;
        churn.probes_per_cycle = 1;
        const ExperimentResult churned =
            run_experiment(net, Experiment("churn").churn(churn));
        // Reliability observed *during* churn: the paper's continuous-churn
        // runs stay near-perfect for HyParView because repair is reactive
        // and immediate; the baselines only promise what view aging can.
        EXPECT_GT(churned.phase("churn").avg_reliability(),
                  c.min_churn_reliability)
            << "reliability under churn";
        break;
      }
      case Fault::kMassFailure:
        net.fail_random_fraction(c.intensity);
        break;
      case Fault::kSlowNodes: {
        const auto blocked_count = static_cast<std::size_t>(
            c.intensity * static_cast<double>(c.nodes));
        // Deterministic victim choice: nodes 1..blocked_count (0 is the
        // bootstrap contact; keeping it responsive is the harder test for
        // the overlay — joins must already route around slow nodes).
        for (std::size_t i = 1; i <= blocked_count; ++i) {
          blocked_.push_back(net.id_of(i));
          net.simulator().block(blocked_.back());
        }
        break;
      }
      case Fault::kFlakyLinks:
        // Three waves of connection resets with reactive traffic between
        // them: each wave tears down `intensity` of all open links.
        for (int wave = 0; wave < 3; ++wave) {
          net.simulator().drop_random_links(c.intensity);
          net.simulator().run_until_quiescent();
          for (int i = 0; i < 5; ++i) net.broadcast_one();
        }
        break;
      case Fault::kLatencySpike: {
        // Delay band jumps by `intensity`× (congestion event): traffic —
        // broadcasts and a membership round — runs slow but lossless, then
        // the network recovers. Reliability and symmetry must survive the
        // spike; TCP links do not break on latency alone.
        const auto& sim_cfg = net.config().sim;
        const auto factor = static_cast<std::int64_t>(c.intensity);
        net.simulator().set_latency(sim_cfg.latency_min * factor,
                                    sim_cfg.latency_max * factor);
        for (int i = 0; i < 5; ++i) net.broadcast_one();
        net.run_cycles(1);
        net.simulator().set_latency(sim_cfg.latency_min, sim_cfg.latency_max);
        break;
      }
      case Fault::kPartition: {
        // Asymmetric partition: the network cuts every TCP connection
        // crossing a minority/majority split at once (a switch dying on
        // one rack). Unlike a crash wave both sides stay alive, so the
        // overlay must tear the stale links down reactively and re-merge.
        const auto minority = std::max<std::size_t>(
            1, static_cast<std::size_t>(c.intensity *
                                        static_cast<double>(c.nodes)));
        for (std::size_t i = 0; i < minority; ++i) {
          for (std::size_t j = minority; j < net.node_count(); ++j) {
            if (net.simulator().linked(net.id_of(i), net.id_of(j))) {
              net.simulator().drop_link(net.id_of(i), net.id_of(j));
            }
          }
        }
        net.simulator().run_until_quiescent();
        break;
      }
      case Fault::kSpikeChurn: {
        // Combined fault: the latency spike is *held* through a churn
        // phase (congestion during a deploy wave), then lifted. Slow but
        // lossless links must not break the join/leave/repair machinery.
        const auto& sim_cfg = net.config().sim;
        const auto factor = static_cast<std::int64_t>(c.intensity);
        net.simulator().set_latency(sim_cfg.latency_min * factor,
                                    sim_cfg.latency_max * factor);
        ChurnConfig churn;
        churn.cycles = 5;
        churn.joins_per_cycle = std::max<std::size_t>(1, c.nodes / 32);
        churn.leaves_per_cycle = churn.joins_per_cycle;
        churn.probes_per_cycle = 1;
        const ExperimentResult spiked =
            run_experiment(net, Experiment("churn").churn(churn));
        EXPECT_GT(spiked.phase("churn").avg_reliability(),
                  c.min_churn_reliability)
            << "reliability under churn during the latency spike";
        net.simulator().set_latency(sim_cfg.latency_min, sim_cfg.latency_max);
        break;
      }
      case Fault::kGracefulLeave: {
        // A wave of graceful departures (Protocol::leave): each node says
        // goodbye, the goodbyes drain, then it exits. Unlike a crash the
        // survivors repair *proactively* — before the healing traffic
        // below, no responsive node may still hold a leaver in its
        // dissemination view (the failure detector never had to fire).
        const auto count = static_cast<std::size_t>(
            c.intensity * static_cast<double>(c.nodes));
        std::vector<NodeId> left;
        // Deterministic victims 1..count (0 stays: the bootstrap contact
        // departing is a different scenario than a turnover wave).
        for (std::size_t i = 1; i <= count; ++i) {
          left.push_back(net.id_of(i));
          net.leave_node(i, /*graceful=*/true);
        }
        if (c.kind == ProtocolKind::kHyParView) {
          std::size_t stale = 0;
          for (std::size_t i = 0; i < net.node_count(); ++i) {
            if (!net.alive(i)) continue;
            for (const NodeId& peer :
                 net.protocol(i).dissemination_view()) {
              if (std::find(left.begin(), left.end(), peer) != left.end()) {
                ++stale;
              }
            }
          }
          EXPECT_EQ(stale, 0u)
              << "active views still hold gracefully departed nodes";
        }
        break;
      }
    }
    // Healing phase: a burst of traffic exercises the reactive repair path
    // (detect-on-send failure detector), then two membership rounds let the
    // periodic shuffle re-knit passive knowledge.
    for (int i = 0; i < 30; ++i) net.broadcast_one();
    net.run_cycles(2);
    net.simulator().run_until_quiescent();
  }

  [[nodiscard]] bool excluded(const NodeId& id) const {
    return std::find(blocked_.begin(), blocked_.end(), id) != blocked_.end();
  }

  std::vector<NodeId> blocked_;
};

TEST_P(ScenarioMatrixTest, InvariantsHoldAfterFaultAndHealing) {
  const ScenarioCase c = GetParam();
  auto cfg = NetworkConfig::defaults_for(c.kind, c.nodes, c.seed);
  SimBackend net(cfg);
  net.build();
  net.run_cycles(10);
  run_scenario(net, c);

  // Responsive correct nodes: alive and not blocked.
  std::size_t responsive = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (net.alive(i) && !excluded(net.id_of(i))) ++responsive;
  }
  ASSERT_GT(responsive, c.nodes / 8) << "scenario killed nearly everyone";

  // --- Reliability ≥ paper threshold ------------------------------------
  // Denominator: responsive nodes. Blocked (slow) nodes count as alive in
  // the recorder's §2.5 denominator but cannot deliver by construction, so
  // the scenario-level metric is delivery among nodes able to respond.
  // Sources are drawn among responsive nodes (a frozen process cannot
  // originate a broadcast in the first place).
  const auto pick_responsive = [&]() -> std::size_t {
    while (true) {
      const auto i = static_cast<std::size_t>(
          net.simulator().rng().below(net.node_count()));
      if (net.alive(i) && !excluded(net.id_of(i))) return i;
    }
  };
  double sum = 0.0;
  constexpr int kProbes = 10;
  for (int i = 0; i < kProbes; ++i) {
    const auto result = net.broadcast_from(pick_responsive());
    sum += static_cast<double>(result.delivered) /
           static_cast<double>(responsive);
  }
  EXPECT_GE(sum / kProbes, c.min_reliability)
      << "post-healing reliability below the paper's threshold";

  // --- Connectivity among survivors -------------------------------------
  // alive_only strips every edge incident to a dead node, leaving dead
  // vertices isolated — they cannot affect the largest component.
  const double wcc_floor = c.kind == ProtocolKind::kHyParView ? 0.99 : 0.95;
  const auto g = net.dissemination_graph(/*alive_only=*/true);
  EXPECT_GE(graph::largest_weakly_connected_component(g),
            static_cast<std::size_t>(
                wcc_floor * static_cast<double>(net.alive_count())))
      << "surviving overlay partitioned";

  // --- Active-view symmetry ---------------------------------------------
  // A HyParView-only invariant (§3): Cyclon/Scamp views are directed by
  // design, so the baselines skip it.
  if (c.kind != ProtocolKind::kHyParView) return;
  // Checked over responsive nodes; entries pointing at dead/blocked peers
  // are the failure detector's job and are already bounded by the
  // reliability check above.
  std::size_t arcs = 0;
  std::size_t symmetric = 0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    if (!net.alive(i) || excluded(net.id_of(i))) continue;
    for (const NodeId& peer : net.protocol(i).dissemination_view()) {
      if (!net.alive(peer.ip) || excluded(peer)) continue;
      ++arcs;
      const auto peer_view = net.protocol(peer.ip).dissemination_view();
      if (std::find(peer_view.begin(), peer_view.end(), net.id_of(i)) !=
          peer_view.end()) {
        ++symmetric;
      }
    }
  }
  ASSERT_GT(arcs, 0u);
  EXPECT_GE(static_cast<double>(symmetric) / static_cast<double>(arcs), 0.99)
      << "active views asymmetric: " << symmetric << "/" << arcs;
}

/// Determinism: the whole pipeline (build, fault, healing, probes) must be
/// bit-identical under a fixed seed — the foundation of every reproducible
/// figure in the repo.
TEST(ScenarioMatrixDeterminism, IdenticalRunsProduceIdenticalResults) {
  const auto run_once = [] {
    auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 5);
    SimBackend net(cfg);
    net.build();
    net.run_cycles(5);
    net.fail_random_fraction(0.3);
    net.simulator().drop_random_links(0.2);
    for (int i = 0; i < 10; ++i) net.broadcast_one();
    std::vector<double> rel;
    for (const auto& r : net.recorder().results()) {
      rel.push_back(r.reliability());
    }
    rel.push_back(static_cast<double>(net.simulator().messages_sent()));
    rel.push_back(static_cast<double>(net.simulator().bytes_sent()));
    return rel;
  };
  EXPECT_EQ(run_once(), run_once());
}

std::string case_name(const ::testing::TestParamInfo<ScenarioCase>& info) {
  return info.param.name();
}

INSTANTIATE_TEST_SUITE_P(Grid, ScenarioMatrixTest,
                         ::testing::ValuesIn(make_grid()), case_name);

}  // namespace
}  // namespace hyparview::harness
