// Adversarial-tier scenarios (ROADMAP item 3).
//
// A 10% minority misbehaves at the protocol level (harness::Adversary) while
// the honest majority runs unmodified code; the assertions pin how far each
// attack can push the honest overlay at paper-default parameters:
//
//  * view poisoning — colluders answer shuffles/joins with fabricated or
//    colluding identities. Pin: the honest overlay stays connected and a 10%
//    minority cannot capture more than half of the honest dissemination-view
//    slots (the eclipse-pressure test below tightens this to a pure colluder
//    roster, the strongest variant: fabricated ids churn out via failure
//    detection, colluders hold slots durably).
//  * selective dropping — colluders stay reputable overlay citizens but
//    silently drop every gossip frame they should relay. Pin: reliability
//    degrades but does not collapse (per-protocol floors).
//  * sybil flood — bursts of joins from fabricated identities that name no
//    real process. Pin: after the burst traffic and a bounded healing phase,
//    reliability and honest-component structure recover (the fabricated ids
//    cannot answer, so failure detection purges them).
//
// Every sim row is bit-identical across two runs at a fixed seed (the
// determinism test), and the same specs run over real sockets (TcpBackend,
// 32 nodes) — the attacks are substrate-blind by construction. Heavy-tailed
// trace-driven churn (Pareto/lognormal session lengths) rides along as the
// fourth adversarial workload. HPV_QUICK=1 keeps the HyParView slice only so
// the smoke tier stays fast.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "hyparview/common/options.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace hyparview::harness {
namespace {

struct AdversarialCase {
  AttackKind attack = AttackKind::kPoison;
  ProtocolKind kind = ProtocolKind::kHyParView;
  std::size_t nodes = 128;
  std::uint64_t seed = 11;
  /// Floor on post-attack probe reliability (all alive nodes, adversaries
  /// included — a dropper still *receives*, it just refuses to relay).
  double min_reliability = 0.9;
  /// Cap on the fraction of honest dissemination-view slots the adversary
  /// holds. ~10% is the honest-membership baseline (colluders are real
  /// overlay members), so caps meaningfully above that measure *captured*
  /// pressure, not mere presence.
  double max_eclipse = 0.5;
  /// Floor on largest-honest-component / honest-alive.
  double min_component = 0.9;

  [[nodiscard]] std::string name() const {
    std::string prefix;
    if (kind != ProtocolKind::kHyParView) {
      prefix = std::string(kind_name(kind)) + "_";
      for (char& ch : prefix) ch = static_cast<char>(std::tolower(ch));
    }
    return prefix + attack_name(attack) + "10_n" + std::to_string(nodes) +
           "_s" + std::to_string(seed);
  }
};

/// Quick (smoke) slice: the three HyParView attack rows at N=128. The full
/// tier adds the Cyclon and Scamp baselines with relaxed floors — they have
/// no reactive failure detector, so fabricated identities linger longer and
/// dropped gossip hurts more (which is the comparison the tier exists to
/// draw).
std::vector<AdversarialCase> make_grid() {
  const bool quick = env_flag("HPV_QUICK", false);
  std::vector<AdversarialCase> grid = {
      {AttackKind::kPoison, ProtocolKind::kHyParView, 128, 11, 0.95, 0.5,
       0.95},
      {AttackKind::kDrop, ProtocolKind::kHyParView, 128, 11, 0.80, 0.35,
       0.95},
      {AttackKind::kSybil, ProtocolKind::kHyParView, 128, 11, 0.95, 0.5,
       0.95},
  };
  if (quick) return grid;
  // Cyclon under poisoning *collapses* (observed at this seed: eclipse
  // 0.73, reliability 0.30): poisoned shuffle replies enter the single
  // view wholesale and nothing reactive purges fabricated entries before
  // they are gossiped onward. The loose bounds document the collapse —
  // the HyParView rows above, same attack, pin eclipse ≤ 0.5.
  grid.push_back(
      {AttackKind::kPoison, ProtocolKind::kCyclon, 128, 11, 0.15, 0.85, 0.6});
  grid.push_back(
      {AttackKind::kDrop, ProtocolKind::kCyclon, 128, 11, 0.50, 0.35, 0.75});
  grid.push_back(
      {AttackKind::kSybil, ProtocolKind::kCyclon, 128, 11, 0.55, 0.7, 0.75});
  for (const AttackKind attack :
       {AttackKind::kPoison, AttackKind::kDrop, AttackKind::kSybil}) {
    grid.push_back({attack, ProtocolKind::kScamp, 128, 11,
                    attack == AttackKind::kDrop ? 0.50 : 0.55,
                    attack == AttackKind::kDrop ? 0.35 : 0.7, 0.75});
  }
  return grid;
}

/// The attack spec every row runs: stabilize, measure, apply pressure
/// (membership rounds with the adversary active; plus one burst for sybil),
/// heal briefly, measure again, and snapshot the honest overlay.
Experiment attack_spec(const AdversarialCase& c,
                       std::size_t sybils_per_burst) {
  Experiment spec("adversarial_" + std::string(attack_name(c.attack)));
  spec.stabilize(10).broadcast(10, "before");
  if (c.attack == AttackKind::kSybil) spec.sybil_burst(sybils_per_burst);
  spec.cycles(10, "pressure");
  spec.broadcast(10, "after");
  spec.overlay("health");
  return spec;
}

/// Largest honest component over the honest alive nodes (1.0 intact).
double honest_component(const OverlayStats& health) {
  return health.alive == 0 ? 0.0
                           : static_cast<double>(health.largest_component) /
                                 static_cast<double>(health.alive);
}

class AdversarialScenarioTest
    : public ::testing::TestWithParam<AdversarialCase> {};

TEST_P(AdversarialScenarioTest, AttackStaysBounded) {
  const AdversarialCase c = GetParam();
  auto cfg = NetworkConfig::defaults_for(c.kind, c.nodes, c.seed);
  cfg.adversary.attack = c.attack;
  cfg.adversary.fraction = 0.10;
  auto cluster = Cluster::sim(cfg);
  const auto result = cluster.run(attack_spec(c, cfg.adversary.sybils_per_burst));

  const Adversary* adv = cluster.backend().adversary();
  ASSERT_NE(adv, nullptr);
  EXPECT_EQ(adv->selected_count(), c.nodes / 10);

  // The attack actually ran: its signature counter moved.
  switch (c.attack) {
    case AttackKind::kPoison:
      EXPECT_GT(adv->counters().poisoned_frames, 0u);
      EXPECT_GT(adv->counters().poisoned_entries, 0u);
      break;
    case AttackKind::kDrop:
      EXPECT_GT(adv->counters().gossip_dropped, 0u);
      break;
    case AttackKind::kSybil:
      EXPECT_EQ(result.phase("sybil").adversaries_fired,
                adv->selected_count());
      EXPECT_EQ(adv->counters().sybil_joins,
                adv->selected_count() * cfg.adversary.sybils_per_burst);
      break;
    case AttackKind::kNone:
      break;
  }

  // Overlay survival after the pressure + healing phases.
  const OverlayStats& health = result.phase("health").overlay;
  EXPECT_GT(health.alive, 0u);
  EXPECT_GT(health.dissemination.slots, 0u);
  EXPECT_LE(health.dissemination.poisoned_share(), c.max_eclipse)
      << "adversary captured "
      << health.dissemination.colluders + health.dissemination.fabricated
      << "/" << health.dissemination.slots << " honest dissemination slots";
  EXPECT_GE(honest_component(health), c.min_component)
      << "honest overlay fragmented: " << health.largest_component << "/"
      << health.alive;

  // Application-level damage stays within the per-protocol floor.
  EXPECT_GE(result.phase("after").avg_reliability(), c.min_reliability);
}

std::string case_name(const ::testing::TestParamInfo<AdversarialCase>& info) {
  return info.param.name();
}

INSTANTIATE_TEST_SUITE_P(Grid, AdversarialScenarioTest,
                         ::testing::ValuesIn(make_grid()), case_name);

/// ISSUE pin: a 10% *colluding* minority (fabricated_fraction = 0 — every
/// poisoned entry names a live colluder, the durable-capture variant) cannot
/// capture more than half of the honest active-view slots at paper-default
/// fanouts, even after sustained pressure.
TEST(AdversarialEclipsePressure, ColludingMinorityCannotCaptureMajority) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 128, 23);
  cfg.adversary.attack = AttackKind::kPoison;
  cfg.adversary.fraction = 0.10;
  cfg.adversary.fabricated_fraction = 0.0;  // pure colluder roster
  cfg.adversary.poison_per_cycle = 2;       // sustained unsolicited pressure
  auto cluster = Cluster::sim(cfg);
  const auto result = cluster.run(Experiment("eclipse_pressure")
                                      .stabilize(10)
                                      .cycles(20, "pressure")
                                      .overlay("health"));

  const OverlayStats& health = result.phase("health").overlay;
  ASSERT_GT(health.dissemination.slots, 0u);
  EXPECT_EQ(health.dissemination.fabricated, 0u);  // nothing fabricated
  EXPECT_LE(health.dissemination.poisoned_share(), 0.5)
      << "10% colluders captured " << health.dissemination.colluders << "/"
      << health.dissemination.slots << " honest active-view slots";
  EXPECT_GE(honest_component(health), 0.9);
}

/// The per-frame mutation bounds (core::Stats hostile-frame counters) fire
/// under poisoning: poisoned lists repeat colluder ids, so honest HyParView
/// nodes must be dropping duplicates rather than integrating them.
TEST(AdversarialEclipsePressure, HonestNodesCountDroppedHostileEntries) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 7);
  cfg.adversary.attack = AttackKind::kPoison;
  cfg.adversary.fraction = 0.15;
  cfg.adversary.fabricated_fraction = 0.0;  // all-colluder lists ⇒ repeats
  cfg.adversary.poison_per_cycle = 2;
  auto cluster = Cluster::sim(cfg);
  cluster.run(Experiment("hostile_counters").stabilize(10).cycles(10));

  const Adversary* adv = cluster.backend().adversary();
  ASSERT_NE(adv, nullptr);
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < cluster.backend().node_count(); ++i) {
    if (adv->is_adversarial(i)) continue;
    const auto* hpv =
        dynamic_cast<const core::HyParView*>(&cluster.backend().protocol(i));
    ASSERT_NE(hpv, nullptr);
    dropped += hpv->stats().shuffle_duplicates_dropped +
               hpv->stats().shuffle_self_dropped +
               hpv->stats().shuffle_over_budget_dropped;
  }
  EXPECT_GT(dropped, 0u)
      << "no honest node ever rejected a hostile shuffle entry";
}

/// Every attack pipeline — selection, interception, fabrication, healing —
/// is bit-identical across two runs at a fixed seed.
TEST(AdversarialDeterminism, IdenticalRunsProduceIdenticalResults) {
  for (const AttackKind attack :
       {AttackKind::kPoison, AttackKind::kDrop, AttackKind::kSybil}) {
    const auto run_once = [attack] {
      auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 3);
      cfg.adversary.attack = attack;
      cfg.adversary.fraction = 0.10;
      auto cluster = Cluster::sim(cfg);
      AdversarialCase c;
      c.attack = attack;
      const auto result =
          cluster.run(attack_spec(c, cfg.adversary.sybils_per_burst));

      std::vector<double> fingerprint;
      for (const auto& phase : result.phases) {
        for (const double r : phase.reliabilities) fingerprint.push_back(r);
      }
      const OverlayStats& health = result.phase("health").overlay;
      fingerprint.push_back(static_cast<double>(health.dissemination.slots));
      fingerprint.push_back(
          static_cast<double>(health.dissemination.colluders));
      fingerprint.push_back(
          static_cast<double>(health.dissemination.fabricated));
      fingerprint.push_back(static_cast<double>(health.largest_component));
      const auto& counters = cluster.backend().adversary()->counters();
      fingerprint.push_back(static_cast<double>(counters.poisoned_frames));
      fingerprint.push_back(static_cast<double>(counters.gossip_dropped));
      fingerprint.push_back(static_cast<double>(counters.sybil_joins));
      return fingerprint;
    };
    EXPECT_EQ(run_once(), run_once())
        << "attack " << attack_name(attack) << " not deterministic";
  }
}

/// Trace-driven churn: heavy-tailed session lengths as an Experiment phase,
/// for both distributions, deterministic across runs.
TEST(HeavyChurn, ParetoSessionsRunAndStayReliable) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 9);
  auto cluster = Cluster::sim(cfg);
  HeavyChurnConfig churn;
  churn.cycles = 15;
  churn.joins_per_cycle = 2;
  const auto result = cluster.run(
      Experiment("heavy_churn").stabilize(10).heavy_churn(churn));

  const PhaseResult& phase = result.phase("heavy_churn");
  const HeavyChurnStats& heavy = phase.heavy;
  EXPECT_EQ(phase.counters.joins, churn.cycles * churn.joins_per_cycle);
  EXPECT_EQ(phase.reliabilities.size(), churn.cycles);
  // Pareto(1.5, xm=2): every session lasts ≥ xm cycles, the mean well above.
  EXPECT_GE(heavy.mean_session_cycles, churn.pareto_xm);
  EXPECT_GE(heavy.max_session_cycles, heavy.mean_session_cycles);
  // Some sessions expired within the workload (the short-session mass).
  EXPECT_GT(phase.counters.graceful_leaves + phase.counters.crashes, 0u);
  // HyParView under churn: reactive repair keeps the probes near-perfect.
  EXPECT_GE(phase.avg_reliability(), 0.9);
}

TEST(HeavyChurn, LognormalSessionsRunAndStayReliable) {
  auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 9);
  auto cluster = Cluster::sim(cfg);
  HeavyChurnConfig churn;
  churn.cycles = 15;
  churn.joins_per_cycle = 2;
  churn.dist = HeavyChurnConfig::Dist::kLognormal;
  const auto result = cluster.run(
      Experiment("heavy_churn").stabilize(10).heavy_churn(churn));

  const PhaseResult& phase = result.phase("heavy_churn");
  EXPECT_EQ(phase.counters.joins, churn.cycles * churn.joins_per_cycle);
  EXPECT_GE(phase.heavy.max_session_cycles, phase.heavy.mean_session_cycles);
  EXPECT_GE(phase.avg_reliability(), 0.9);
}

TEST(HeavyChurn, DeterministicAtFixedSeed) {
  const auto run_once = [] {
    auto cfg = NetworkConfig::defaults_for(ProtocolKind::kHyParView, 64, 13);
    auto cluster = Cluster::sim(cfg);
    HeavyChurnConfig churn;
    churn.cycles = 10;
    churn.joins_per_cycle = 2;
    const auto result = cluster.run(
        Experiment("heavy_churn").stabilize(5).heavy_churn(churn));
    const PhaseResult& phase = result.phase("heavy_churn");
    auto fingerprint = phase.reliabilities;
    fingerprint.push_back(phase.heavy.mean_session_cycles);
    fingerprint.push_back(static_cast<double>(phase.counters.crashes));
    return fingerprint;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// The same attack specs over real sockets: 32 nodes on one epoll loop,
/// fabricated identities are dead loopback addresses (dials fail with
/// ECONNREFUSED — "TCP is also used as a failure detector" is the defense).
/// Floors are sanity-level: real-time settle windows make TCP runs
/// statistical, the tight pins live on the sim rows above.
TEST(AdversarialTcp, AttacksRunOverRealSockets) {
  for (const AttackKind attack :
       {AttackKind::kPoison, AttackKind::kDrop, AttackKind::kSybil}) {
    auto cfg = TcpBackendConfig::defaults_for(ProtocolKind::kHyParView, 32, 5);
    cfg.adversary.attack = attack;
    cfg.adversary.fraction = 0.10;
    auto cluster = Cluster::tcp(cfg);
    AdversarialCase c;
    c.attack = attack;
    const auto result =
        cluster.run(attack_spec(c, cfg.adversary.sybils_per_burst));

    const Adversary* adv = cluster.backend().adversary();
    ASSERT_NE(adv, nullptr);
    EXPECT_EQ(adv->selected_count(), 3u);
    switch (attack) {
      case AttackKind::kPoison:
        EXPECT_GT(adv->counters().poisoned_frames, 0u);
        break;
      case AttackKind::kDrop:
        EXPECT_GT(adv->counters().gossip_dropped, 0u);
        break;
      case AttackKind::kSybil:
        EXPECT_GT(adv->counters().sybil_joins, 0u);
        break;
      case AttackKind::kNone:
        break;
    }
    const OverlayStats& health = result.phase("health").overlay;
    EXPECT_GT(health.dissemination.slots, 0u);
    EXPECT_LE(health.dissemination.poisoned_share(), 0.6)
        << attack_name(attack) << " over TCP";
    EXPECT_GE(result.phase("after").avg_reliability(), 0.5)
        << attack_name(attack) << " over TCP";
  }
}

TEST(AdversarialTcp, HeavyChurnRunsOverRealSockets) {
  auto cfg = TcpBackendConfig::defaults_for(ProtocolKind::kHyParView, 32, 17);
  auto cluster = Cluster::tcp(cfg);
  HeavyChurnConfig churn;
  churn.cycles = 6;
  churn.joins_per_cycle = 2;
  churn.probes_per_cycle = 1;
  const auto result =
      cluster.run(Experiment("heavy_churn").stabilize(3).heavy_churn(churn));
  const PhaseResult& phase = result.phase("heavy_churn");
  EXPECT_EQ(phase.counters.joins, churn.cycles * churn.joins_per_cycle);
  EXPECT_GE(phase.avg_reliability(), 0.5);
}

}  // namespace
}  // namespace hyparview::harness
