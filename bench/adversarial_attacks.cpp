// Extension E3 — overlay survival under Byzantine minorities (ROADMAP 3).
//
// A 10% adversarial minority attacks the membership layer three ways (view
// poisoning, selective gossip dropping, sybil join floods — see
// harness/adversary.hpp), plus a trace-driven churn workload with
// heavy-tailed (Pareto) session lengths. For HyParView and the Cyclon/Scamp
// baselines the table reports the damage each attack achieved: the eclipse
// ratio (honest dissemination-view slots the adversary holds), the poisoned
// share of backup views, the largest honest component, and post-attack
// broadcast reliability.
//
// Every sim leg runs TWICE and the driver hard-fails on any divergence in
// the measured health metrics or event counts — re-proving on every run
// that the adversarial pipeline is bit-identical at a fixed seed. A TCP leg
// runs the same specs over real sockets (32 nodes, one epoll loop;
// fabricated identities are dead loopback ports), sanity-floored rather
// than pinned: real time is statistical.
#include "bench_common.hpp"

#include <cctype>
#include <cstdlib>
#include <string>

#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/tcp_backend.hpp"

using namespace hyparview;

namespace {

struct AttackOutcome {
  double eclipse = 0.0;
  double backup_poison = 0.0;
  double honest_component = 0.0;
  double reliability = 0.0;
  std::uint64_t events = 0;

  bool operator==(const AttackOutcome&) const = default;
};

std::string lower_name(harness::ProtocolKind kind) {
  std::string name = harness::kind_name(kind);
  for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
  return name;
}

/// The committed specs/adversarial_<attack>.json pins the adversary block
/// and the phase program (stabilize → [sybil burst] → pressure cycles →
/// probe broadcast); only the probe count is patched per leg.
harness::RunSpec attack_spec(harness::AttackKind attack, std::size_t probes) {
  harness::RunSpec spec = harness::load_spec_file(harness::spec_path(
      std::string("adversarial_") + harness::attack_name(attack)));
  for (auto& phase : spec.experiment.mutable_phases()) {
    if (phase.kind == harness::Experiment::PhaseKind::kBroadcast) {
      phase.count = probes;
    }
  }
  return spec;
}

AttackOutcome run_attack_sim(harness::ProtocolKind kind,
                             harness::AttackKind attack,
                             const harness::BenchScale& scale,
                             std::size_t probes) {
  const harness::RunSpec spec = attack_spec(attack, probes);
  auto cfg =
      harness::NetworkConfig::defaults_for(kind, scale.nodes, scale.seed);
  cfg.adversary = spec.net.adversary;
  auto cluster = harness::Cluster::sim(cfg);
  const auto result = cluster.run(spec.experiment);

  const auto health = harness::collect_overlay_health(cluster.backend());
  return {health.eclipse_ratio(), health.backup_poison_ratio(),
          health.honest_component_fraction(),
          result.phase("after").avg_reliability(),
          cluster->events_processed()};
}

/// Heavy-tailed churn leg (honest population; the stress is the workload
/// shape, not misbehavior): avg probe reliability doubles as the outcome.
AttackOutcome run_heavy_churn_sim(harness::ProtocolKind kind,
                                  const harness::BenchScale& scale) {
  auto cfg =
      harness::NetworkConfig::defaults_for(kind, scale.nodes, scale.seed);
  auto cluster = harness::Cluster::sim(cfg);
  harness::HeavyChurnConfig churn;
  churn.cycles = 20;
  churn.joins_per_cycle = std::max<std::size_t>(1, scale.nodes / 100);
  const auto result =
      cluster.run(harness::Experiment("heavy_churn")
                      .stabilize(20)
                      .heavy_churn(churn));
  const auto health = harness::collect_overlay_health(cluster.backend());
  return {health.eclipse_ratio(), health.backup_poison_ratio(),
          health.honest_component_fraction(),
          result.phase("heavy_churn").avg_reliability(),
          cluster->events_processed()};
}

/// Runs a sim leg twice and hard-fails the whole driver on divergence:
/// determinism is part of what this bench certifies, not a test-only nicety.
template <typename Fn>
AttackOutcome certified(const char* label, Fn&& leg) {
  const AttackOutcome first = leg();
  const AttackOutcome second = leg();
  if (!(first == second)) {
    std::fprintf(stderr,
                 "adversarial_attacks: DETERMINISM VIOLATION in %s: "
                 "run1 {eclipse=%.17g rel=%.17g events=%llu} vs "
                 "run2 {eclipse=%.17g rel=%.17g events=%llu}\n",
                 label, first.eclipse, first.reliability,
                 static_cast<unsigned long long>(first.events),
                 second.eclipse, second.reliability,
                 static_cast<unsigned long long>(second.events));
    std::exit(1);
  }
  return first;
}

}  // namespace

int main() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/100);
  bench::JsonRecorder bench_json("adversarial", scale);
  bench::print_header(
      "Extension E3 — overlay survival under Byzantine minorities",
      "adversarial extension of §5 (attacks the paper's §3 robustness "
      "claims head-on)",
      scale);

  const std::vector<harness::ProtocolKind> kinds = {
      harness::ProtocolKind::kHyParView, harness::ProtocolKind::kCyclon,
      harness::ProtocolKind::kScamp};
  const std::vector<harness::AttackKind> attacks = {
      harness::AttackKind::kPoison, harness::AttackKind::kDrop,
      harness::AttackKind::kSybil};

  analysis::Table table({"protocol", "attack", "eclipse %", "backup %",
                         "honest comp %", "reliability %"});

  for (const auto kind : kinds) {
    const std::string proto = lower_name(kind);
    for (const auto attack : attacks) {
      bench::Stopwatch watch;
      const std::string label = proto + "_" + harness::attack_name(attack);
      const AttackOutcome out = certified(label.c_str(), [&] {
        return run_attack_sim(kind, attack, scale, scale.messages);
      });
      // ×2: both certification runs contribute simulator events.
      bench_json.add_events(out.events * 2);
      bench_json.add_metric("eclipse_" + label, out.eclipse);
      bench_json.add_metric("honest_component_" + label,
                            out.honest_component);
      bench_json.add_metric("reliability_" + label, out.reliability);
      table.add_row({harness::kind_name(kind), harness::attack_name(attack),
                     analysis::fmt_percent(out.eclipse, 1),
                     analysis::fmt_percent(out.backup_poison, 1),
                     analysis::fmt_percent(out.honest_component, 1),
                     analysis::fmt_percent(out.reliability, 1)});
      std::printf("[%s: %.1fs ×2 runs]\n", label.c_str(), watch.seconds());
    }
    // Heavy-tailed trace churn rides along as the fourth workload row.
    bench::Stopwatch watch;
    const AttackOutcome churn = certified(
        (proto + "_heavychurn").c_str(),
        [&] { return run_heavy_churn_sim(kind, scale); });
    bench_json.add_events(churn.events * 2);
    bench_json.add_metric("reliability_" + proto + "_heavychurn",
                          churn.reliability);
    table.add_row({harness::kind_name(kind), "heavy churn",
                   analysis::fmt_percent(churn.eclipse, 1),
                   analysis::fmt_percent(churn.backup_poison, 1),
                   analysis::fmt_percent(churn.honest_component, 1),
                   analysis::fmt_percent(churn.reliability, 1)});
    std::printf("[%s_heavychurn: %.1fs ×2 runs]\n", proto.c_str(),
                watch.seconds());
  }
  std::cout << table.to_string();

  // --- TCP leg: the identical specs over real sockets --------------------
  // 32 nodes on one epoll loop; HyParView only (the baselines' TCP behavior
  // adds wall-clock without adding information — their damage profile is
  // established by the sim matrix above).
  std::printf("\n[tcp leg: 32 real-socket nodes, HyParView]\n");
  for (const auto attack : attacks) {
    bench::Stopwatch watch;
    // The spec's own tcp block: HyParView on 32 nodes with its adversary.
    const harness::RunSpec spec = attack_spec(attack, /*probes=*/10);
    auto cfg = spec.tcp;
    cfg.seed = scale.seed;
    auto cluster = harness::Cluster::tcp(cfg);
    const auto result = cluster.run(spec.experiment);
    const auto health = harness::collect_overlay_health(cluster.backend());
    const std::string label =
        std::string("tcp_hyparview_") + harness::attack_name(attack);
    bench_json.add_metric("eclipse_" + label, health.eclipse_ratio());
    bench_json.add_metric("reliability_" + label,
                          result.phase("after").avg_reliability());
    std::printf("[%s: eclipse %.1f%%, reliability %.1f%%, %.1fs]\n",
                label.c_str(), 100.0 * health.eclipse_ratio(),
                100.0 * result.phase("after").avg_reliability(),
                watch.seconds());
  }
  {
    bench::Stopwatch watch;
    auto cfg = harness::TcpBackendConfig::defaults_for(
        harness::ProtocolKind::kHyParView, 32, scale.seed);
    auto cluster = harness::Cluster::tcp(cfg);
    harness::HeavyChurnConfig churn;
    churn.cycles = 6;
    churn.joins_per_cycle = 2;
    churn.probes_per_cycle = 1;
    const auto result = cluster.run(
        harness::Experiment("heavy_churn").stabilize(3).heavy_churn(churn));
    const double reliability = result.phase("heavy_churn").avg_reliability();
    bench_json.add_metric("reliability_tcp_hyparview_heavychurn", reliability);
    std::printf("[tcp_hyparview_heavychurn: reliability %.1f%%, %.1fs]\n",
                100.0 * reliability, watch.seconds());
  }

  std::printf(
      "expected shape: HyParView bounds the eclipse ratio (reactive repair "
      "plus the ka+kp shuffle-mutation budget purge poisoned entries) while "
      "plain Cyclon collapses under poisoning — its single aging view "
      "integrates poisoned replies wholesale; selective dropping degrades "
      "everyone mildly (droppers still deliver, they just refuse to relay); "
      "sybil floods heal once failure detection purges the fabricated "
      "identities.\n");
  return 0;
}
