// JSON spec loader tests.
//
// Five pins:
//  1. every committed specs/<name>.json replays a golden event count on a
//     scaled-down sim run of each of its sweep points and keeps its golden
//     point, broadcast and round totals — the files are the only
//     definition of those experiments, so this is what notices a spec or
//     loader drift; inserting overlay phases moves none of those runs;
//  2. every key of every phase kind, of the network block and of the tcp
//     block lands in its field (== against the builder and defaults_for);
//  3. a spec loaded from JSON runs bit-identical (event counts) to the
//     same experiment hand-built through the Experiment builder API;
//  4. schema violations, and values the run itself would reject, throw
//     CheckError naming the offending key path (a typo must fail the run,
//     not silently fall back to a default);
//  5. sweeps expand axis-major with runs innermost, patches merge as
//     documented (phases by label), and the scale patch reaches exactly
//     the keys it names.
#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/harness/spec_json.hpp"

namespace hyparview::harness {
namespace {

/// Stems of the committed specs/*.json files, sorted.
std::vector<std::string> committed_spec_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(spec_dir())) {
    if (entry.path().extension() == ".json") {
      names.push_back(entry.path().stem().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool has_pubsub_phase(const Experiment& spec) {
  return std::any_of(
      spec.phases().begin(), spec.phases().end(),
      [](const Experiment::Phase& p) {
        return p.kind == Experiment::PhaseKind::kPubSub;
      });
}

TEST(SpecJsonTest, CommittedFilesReload) {
  const std::vector<std::string> names = committed_spec_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const RunSpec spec = load_spec_file(spec_path(name));
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.experiment.phases().empty());
    // The committed files describe the full reproduction (§5: 10,000
    // nodes) with a 32-node TCP leg; drivers scale them down at run time.
    EXPECT_EQ(spec.net.node_count, 10'000u);
    EXPECT_EQ(spec.tcp.node_count, 32u);
    // A sustained stream re-delivers any id its dedup window evicts while
    // copies are still in flight, so pub/sub specs remember every message
    // they publish. The capped golden runs below are too short to fill
    // even the default window, so only this check sees the key.
    if (has_pubsub_phase(spec.experiment)) {
      EXPECT_GE(spec.net.gossip.dedup_window,
                spec.experiment.planned_broadcasts());
    }
  }
}

struct GoldenEvents {
  const char* spec;
  std::size_t points;      ///< sweep points at one run
  std::uint64_t events;    ///< events_processed of the scaled_down runs
  std::size_t broadcasts;  ///< planned_broadcasts() as committed
  std::size_t cycles;      ///< rounds of the cycles phases, as committed
};

/// Sums over every sweep point. The scaled-down runs cap counts, so the
/// committed broadcast and round totals are pinned beside them. A row
/// moves only when a spec file, the loader or the simulated protocols
/// change.
constexpr GoldenEvents kGoldenEvents[] = {
    {"ablation_failure_detection", 8, 270'612, 1'600, 400},
    {"ablation_passive_size", 20, 636'532, 4'000, 1'000},
    {"ablation_walk_lengths", 5, 132'075, 250, 0},
    {"ablation_warm_cache", 9, 435'083, 900, 540},
    {"adversarial_drop", 3, 231'124, 300, 90},
    {"adversarial_poison", 3, 261'954, 300, 90},
    {"adversarial_sybil", 3, 241'884, 300, 90},
    {"fig1", 2, 222'819, 800, 100},
    {"fig1_reference", 1, 36'556, 50, 50},
    {"fig1c", 2, 158'750, 200, 100},
    {"fig2", 40, 2'440'745, 40'000, 2'000},
    {"fig3", 24, 1'456'839, 24'000, 1'200},
    {"fig4", 27, 1'454'384, 27'270, 1'350},
    {"fig5", 4, 236'145, 0, 200},
    {"heavy_churn", 3, 479'652, 120, 60},
    {"overhead_accounting", 4, 290'565, 400, 240},
    {"protocol_comparison", 4, 253'152, 240, 40},
    {"pubsub_eager", 1, 113'663, 560, 50},
    {"pubsub_plumtree", 1, 132'009, 560, 50},
    {"table1", 3, 200'632, 150, 150},
};

std::size_t total_cycles(const Experiment& spec) {
  std::size_t total = 0;
  for (const Experiment::Phase& p : spec.phases()) {
    if (p.kind == Experiment::PhaseKind::kCycles) total += p.cycles;
  }
  return total;
}

/// The spec at a size a unit test can afford: 200 nodes, at most 5 cycles
/// per cycles phase, 5 broadcasts, 5 heal cycles of 5 probes, 3 pub/sub
/// ticks and 2 sybils per adversary. Every other key keeps its loaded
/// value.
RunSpec scaled_down(RunSpec spec) {
  using PK = Experiment::PhaseKind;
  spec.net.node_count = 200;
  for (Experiment::Phase& p : spec.experiment.mutable_phases()) {
    switch (p.kind) {
      case PK::kCycles: p.cycles = std::min<std::size_t>(p.cycles, 5); break;
      case PK::kBroadcast: p.count = std::min<std::size_t>(p.count, 5); break;
      case PK::kHealUntil:
        p.cycles = std::min<std::size_t>(p.cycles, 5);
        p.count = std::min<std::size_t>(p.count, 5);
        break;
      case PK::kPubSub:
        p.pubsub.ticks = std::min<std::size_t>(p.pubsub.ticks, 3);
        break;
      case PK::kSybilBurst:
        p.count = std::min<std::size_t>(p.count, 2);
        break;
      default: break;
    }
  }
  return spec;
}

TEST(SpecJsonTest, CommittedSpecsReplayGoldenEventCounts) {
  const std::vector<std::string> names = committed_spec_names();
  EXPECT_EQ(names.size(), std::size(kGoldenEvents))
      << "a golden row names no file in " << spec_dir();
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto* row = std::find_if(
        std::begin(kGoldenEvents), std::end(kGoldenEvents),
        [&](const GoldenEvents& g) { return name == g.spec; });
    ASSERT_NE(row, std::end(kGoldenEvents))
        << "specs/" << name << ".json has no kGoldenEvents row";
    const std::vector<SweepPoint> points = load_sweep_file(spec_path(name));
    std::size_t broadcasts = 0;
    std::size_t cycles = 0;
    std::uint64_t events = 0;
    for (const SweepPoint& point : points) {
      broadcasts += point.spec.experiment.planned_broadcasts();
      cycles += total_cycles(point.spec.experiment);
      const RunSpec spec = scaled_down(point.spec);
      auto cluster = Cluster::sim(spec.net);
      cluster.run(spec.experiment);
      events += cluster->events_processed();
    }
    EXPECT_EQ(points.size(), row->points);
    EXPECT_EQ(broadcasts, row->broadcasts);
    EXPECT_EQ(cycles, row->cycles);
    EXPECT_EQ(events, row->events);
  }
}

TEST(SpecJsonTest, OverlayPhasesMoveNoEventOrReliability) {
  // An overlay phase reads the views and draws only from its own sampler,
  // so inserting one before and after every phase of every committed point
  // (scaled down further, to 64 nodes) changes no phase's events,
  // reliabilities or counters. On an honest cluster its census finds no
  // view entry naming a colluder or a fabrication.
  for (const std::string& name : committed_spec_names()) {
    for (const SweepPoint& point : load_sweep_file(spec_path(name))) {
      SCOPED_TRACE(name + " " + point.patches.dump());
      RunSpec spec = scaled_down(point.spec);
      spec.net.node_count = 64;
      Experiment observed(spec.experiment.name());
      observed.overlay("overlay_first");
      for (const Experiment::Phase& phase : spec.experiment.phases()) {
        observed.mutable_phases().push_back(phase);
        observed.overlay("overlay_after_" + phase.label);
      }
      auto plain_cluster = Cluster::sim(spec.net);
      const ExperimentResult plain = plain_cluster.run(spec.experiment);
      auto observed_cluster = Cluster::sim(spec.net);
      const ExperimentResult with = observed_cluster.run(observed);

      EXPECT_EQ(plain.events, with.events);
      ASSERT_EQ(with.phases.size(), 2 * plain.phases.size() + 1);
      for (std::size_t i = 0; i < plain.phases.size(); ++i) {
        const PhaseResult& a = plain.phases[i];
        const PhaseResult& b = with.phases[2 * i + 1];
        EXPECT_EQ(a.events, b.events) << a.label;
        EXPECT_EQ(a.reliabilities, b.reliabilities) << a.label;
        EXPECT_EQ(a.counters, b.counters) << a.label;
        EXPECT_EQ(with.phases[2 * i + 2].events, 0u) << a.label;
        EXPECT_EQ(with.phases[2 * i + 2].counters, Counters{}) << a.label;
      }
      EXPECT_GT(with.phases.back().overlay.alive, 0u);
      if (spec.net.adversary.enabled()) continue;
      for (const PhaseResult& phase : with.phases) {
        if (phase.kind != Experiment::PhaseKind::kOverlay) continue;
        for (const ViewCensus& census :
             {phase.overlay.dissemination, phase.overlay.backup}) {
          EXPECT_EQ(census.colluders, 0u) << phase.label;
          EXPECT_EQ(census.fabricated, 0u) << phase.label;
        }
      }
    }
  }
}

TEST(SpecJsonTest, EveryPhaseKeyReachesItsField) {
  // One phase per kind, every key set away from its default.
  const Experiment loaded = Experiment::from_json(json::Value::parse(R"({
    "name": "keys",
    "phases": [
      {"kind": "stabilize", "cycles": 7, "label": "s"},
      {"kind": "cycles", "cycles": 3, "label": "c"},
      {"kind": "set_fanout", "fanout": 6, "label": "f"},
      {"kind": "crash", "fraction": 0.25, "label": "x"},
      {"kind": "leave", "count": 9, "graceful_fraction": 0.75, "label": "l"},
      {"kind": "broadcast", "count": 11, "label": "b"},
      {"kind": "heal_until", "baseline": "b", "max_cycles": 13,
       "probes_per_cycle": 3, "label": "h"},
      {"kind": "churn", "cycles": 4, "joins_per_cycle": 5,
       "leaves_per_cycle": 6, "graceful_fraction": 0.125,
       "probes_per_cycle": 7, "label": "ch"},
      {"kind": "heavy_churn", "dist": "lognormal", "cycles": 8,
       "joins_per_cycle": 9, "pareto_alpha": 1.25, "pareto_xm": 3.5,
       "lognormal_mu": 0.5, "lognormal_sigma": 2.5,
       "graceful_fraction": 0.375, "probes_per_cycle": 5, "label": "hc"},
      {"kind": "pubsub", "sources": 3, "ticks": 12, "rate": 4,
       "churn_fraction": 0.5, "cycles_per_tick": 2, "label": "ps"},
      {"kind": "sybil_burst", "per_adversary": 5, "label": "sy"},
      {"kind": "settle", "label": "st"},
      {"kind": "overlay", "label": "o"}
    ]
  })"));

  const ChurnConfig churn{.cycles = 4,
                          .joins_per_cycle = 5,
                          .leaves_per_cycle = 6,
                          .graceful_fraction = 0.125,
                          .probes_per_cycle = 7};
  const HeavyChurnConfig heavy{.cycles = 8,
                               .joins_per_cycle = 9,
                               .dist = HeavyChurnConfig::Dist::kLognormal,
                               .pareto_alpha = 1.25,
                               .pareto_xm = 3.5,
                               .lognormal_mu = 0.5,
                               .lognormal_sigma = 2.5,
                               .graceful_fraction = 0.375,
                               .probes_per_cycle = 5};
  const PubSubConfig pubsub{.sources = 3,
                            .ticks = 12,
                            .rate = 4,
                            .churn_fraction = 0.5,
                            .cycles_per_tick = 2};
  Experiment built("keys");
  built.stabilize(7, "s")
      .cycles(3, "c")
      .set_fanout(6, "f")
      .crash(0.25, "x")
      .leave(9, 0.75, "l")
      .broadcast(11, "b")
      .heal_until("b", 13, 3, "h")
      .churn(churn, "ch")
      .heavy_churn(heavy, "hc")
      .pubsub(pubsub, "ps")
      .sybil_burst(5, "sy")
      .settle("st")
      .overlay("o");

  EXPECT_EQ(loaded.name(), "keys");
  ASSERT_EQ(loaded.phases().size(), built.phases().size());
  for (std::size_t i = 0; i < built.phases().size(); ++i) {
    EXPECT_TRUE(loaded.phases()[i] == built.phases()[i])
        << "phase " << i << " (" << built.phases()[i].label << ")";
  }
}

TEST(SpecJsonTest, EveryNetworkKeyReachesItsField) {
  const RunSpec spec = spec_from_json(json::Value::parse(R"({
    "name": "x",
    "network": {
      "protocol": "Scamp", "nodes": 300, "seed": 9, "fanout": 6,
      "notify_on_crash": true,
      "hyparview": {"active_capacity": 4, "passive_capacity": 17,
                    "arwl": 7, "prwl": 2, "shuffle_ka": 2, "shuffle_kp": 5,
                    "shuffle_ttl": 4, "promote_on_any_slot": false,
                    "warm_cache_size": 3},
      "cyclon": {"view_capacity": 20, "shuffle_length": 9,
                 "join_walk_ttl": 3, "join_walks": 2,
                 "purge_on_unreachable": true,
                 "shuffle_retry_on_failure": false},
      "scamp": {"c": 2, "forward_ttl": 100, "lease_cycles": 12,
                "heartbeat_period_cycles": 3, "isolation_timeout_cycles": 7,
                "purge_on_unreachable": true},
      "gossip": {"engine": "plumtree", "payload_size": 64,
                 "dedup_window": 4096, "cache_window": 512,
                 "graft_timeout_ms": 250, "reroute_on_failure": true,
                 "explicit_acks": true},
      "adversary": {"attack": "drop", "fraction": 0.2, "poison_per_cycle": 3,
                    "poison_entries": 5, "fabricated_fraction": 0.25,
                    "sybils_per_burst": 4, "sybil_ttl": 3}
    },
    "phases": []
  })"));

  ClusterConfig want =
      ClusterConfig::defaults_for(ProtocolKind::kScamp, 300, 9);
  want.hyparview = {.active_capacity = 4,
                    .passive_capacity = 17,
                    .arwl = 7,
                    .prwl = 2,
                    .shuffle_ka = 2,
                    .shuffle_kp = 5,
                    .shuffle_ttl = 4,
                    .promote_on_any_slot = false,
                    .warm_cache_size = 3};
  want.cyclon = {.view_capacity = 20,
                 .shuffle_length = 9,
                 .join_walk_ttl = 3,
                 .join_walks = 2,
                 .purge_on_unreachable = true,
                 .shuffle_retry_on_failure = false};
  want.scamp = {.c = 2,
                .forward_ttl = 100,
                .lease_cycles = 12,
                .heartbeat_period_cycles = 3,
                .isolation_timeout_cycles = 7,
                .purge_on_unreachable = true};
  want.gossip.fanout = 6;
  want.gossip.engine = gossip::Engine::kPlumtree;
  want.gossip.payload_size = 64;
  want.gossip.dedup_window = 4096;
  want.gossip.cache_window = 512;
  want.gossip.graft_timeout = milliseconds(250);
  want.gossip.reroute_on_failure = true;
  want.gossip.explicit_acks = true;
  want.adversary = {.attack = AttackKind::kDrop,
                    .fraction = 0.2,
                    .poison_per_cycle = 3,
                    .poison_entries = 5,
                    .fabricated_fraction = 0.25,
                    .sybils_per_burst = 4,
                    .sybil_ttl = 3};
  EXPECT_TRUE(static_cast<const ClusterConfig&>(spec.net) == want);
  EXPECT_EQ(spec.net.sim.seed, 9u);
  // Scamp detects crashes on send by default.
  EXPECT_TRUE(spec.net.sim.notify_on_crash);
}

constexpr const char* kSmallSpec = R"({
  "name": "small",
  "network": {"protocol": "HyParView", "nodes": 200, "seed": 7},
  "phases": [
    {"kind": "stabilize", "cycles": 10},
    {"kind": "crash", "fraction": 0.3},
    {"kind": "broadcast", "count": 5, "label": "measure"}
  ]
})";

TEST(SpecJsonTest, LoadedSpecRunsBitIdenticalToHandBuilt) {
  const RunSpec spec = spec_from_json(json::Value::parse(kSmallSpec));
  auto loaded = Cluster::sim(spec.net);
  const auto loaded_result = loaded.run(spec.experiment);

  auto built = Cluster::sim(
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, 200, 7));
  const auto built_result = built.run(Experiment("small")
                                          .stabilize(10)
                                          .crash(0.3)
                                          .broadcast(5, "measure"));

  EXPECT_EQ(loaded->events_processed(), built->events_processed());
  EXPECT_EQ(loaded_result.events, built_result.events);
  EXPECT_EQ(loaded_result.phase("measure").avg_reliability(),
            built_result.phase("measure").avg_reliability());
}

/// Expects `text` to be rejected with a CheckError whose message contains
/// `needle` (the offending key path).
void expect_rejected(const std::string& text, const std::string& needle) {
  SCOPED_TRACE(text);
  try {
    (void)spec_from_json(json::Value::parse(text));
    FAIL() << "expected CheckError mentioning \"" << needle << "\"";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(SpecJsonTest, RejectsUnknownKeysNamingFullPath) {
  expect_rejected(R"({"name":"x","network":{"nodez":10},"phases":[]})",
                  "network.nodez");
  expect_rejected(R"({"name":"x","phases":[],"phasez":[]})", "spec.phasez");
  expect_rejected(
      R"({"name":"x","phases":[{"kind":"crash","fraction":0.5,"frac":1}]})",
      "frac");
}

TEST(SpecJsonTest, RejectsWrongTypes) {
  expect_rejected(R"({"name":"x","network":{"nodes":"ten"},"phases":[]})",
                  "network.nodes");
  expect_rejected(R"({"name":"x","phases":{}})", "phases");
}

TEST(SpecJsonTest, RejectsOutOfRangeValues) {
  expect_rejected(R"({"name":"x","phases":[{"kind":"crash","fraction":1.5}]})",
                  "fraction");
  expect_rejected(R"({"name":"x","tcp":{"stats_port":70000},"phases":[]})",
                  "stats_port");
}

TEST(SpecJsonTest, RejectsValuesThatWouldAbortTheRun) {
  // Each of these used to pass validation and then fail deep inside the
  // run: an HPV_CHECK abort (negative timer delay, zero-capacity ring
  // buffers) or a CheckError that named no key (one-node clusters, protocol
  // blocks their own validate() rejects).
  const auto gossip = [](const std::string& member) {
    return R"({"name":"x","network":{"gossip":{)" + member +
           R"(}},"phases":[]})";
  };
  expect_rejected(gossip(R"("graft_timeout_ms":-1)"),
                  "network.gossip.graft_timeout_ms");
  // One past kMaxDurationMs: `now + graft_timeout` could overflow.
  expect_rejected(gossip(R"("graft_timeout_ms":1000000001)"),
                  "network.gossip.graft_timeout_ms");
  expect_rejected(gossip(R"("dedup_window":0)"),
                  "network.gossip.dedup_window");
  expect_rejected(gossip(R"("cache_window":0)"),
                  "network.gossip.cache_window");
  // One past 2^24 ids, the windows' bound (32-bit arrival stamps).
  expect_rejected(gossip(R"("dedup_window":16777217)"),
                  "network.gossip.dedup_window");
  expect_rejected(gossip(R"("cache_window":16777217)"),
                  "network.gossip.cache_window");
  for (const char* key :
       {"join_settle_ms", "cycle_settle_ms", "broadcast_timeout_ms"}) {
    const std::string k = key;
    expect_rejected(R"({"name":"x","tcp":{")" + k + R"(":-1},"phases":[]})",
                    "tcp." + k);
    expect_rejected(R"({"name":"x","tcp":{")" + k +
                        R"(":1000000001},"phases":[]})",
                    "tcp." + k);
  }
  expect_rejected(R"({"name":"x","network":{"nodes":1},"phases":[]})",
                  "network.nodes");
  expect_rejected(R"({"name":"x","tcp":{"nodes":1},"phases":[]})",
                  "tcp.nodes");
  const auto block = [](const std::string& name, const std::string& member) {
    return R"({"name":"x","network":{")" + name + R"(":{)" + member +
           R"(}},"phases":[]})";
  };
  expect_rejected(block("hyparview", R"("warm_cache_size":40)"),
                  "network.hyparview: warm cache");
  expect_rejected(block("cyclon", R"("shuffle_length":40)"),
                  "network.cyclon: cyclon shuffle length");
  expect_rejected(block("scamp", R"("forward_ttl":0)"),
                  "network.scamp: scamp forward TTL");
  // The boundaries themselves load.
  const RunSpec edge = spec_from_json(json::Value::parse(
      R"({"name":"x","network":{"nodes":2,"gossip":{"graft_timeout_ms":0,)"
      R"("dedup_window":1,"cache_window":1}},)"
      R"("tcp":{"nodes":2,"broadcast_timeout_ms":1000000000},)"
      R"("phases":[]})"));
  EXPECT_EQ(edge.net.node_count, 2u);
  EXPECT_EQ(edge.net.gossip.graft_timeout, 0);
  EXPECT_EQ(edge.net.gossip.dedup_window, 1u);
  EXPECT_EQ(edge.net.gossip.cache_window, 1u);
  EXPECT_EQ(edge.tcp.node_count, 2u);
  EXPECT_EQ(edge.tcp.broadcast_timeout, milliseconds(kMaxDurationMs));
  const RunSpec wide = spec_from_json(json::Value::parse(
      R"({"name":"x","network":{"gossip":{"graft_timeout_ms":1000000000,)"
      R"("dedup_window":16777216,"cache_window":16777216}},"phases":[]})"));
  EXPECT_EQ(wide.net.gossip.graft_timeout, milliseconds(kMaxDurationMs));
  EXPECT_EQ(wide.net.gossip.dedup_window, std::size_t{1} << 24);
  EXPECT_EQ(wide.net.gossip.cache_window, std::size_t{1} << 24);
}

TEST(SpecJsonTest, RejectsRemovedBatchingKeys) {
  // The batching knobs are gone; an old spec carrying them must fail
  // loudly instead of running with the key silently ignored.
  expect_rejected(R"({"name":"x","network":{"join_batch":1},"phases":[]})",
                  "network.join_batch");
  expect_rejected(
      R"({"name":"x","phases":[{"kind":"stabilize","cycles":5,"batch":1}]})",
      "phases[0].batch");
  expect_rejected(R"({"name":"x","phases":[{"kind":"heal_until",)"
                  R"("baseline":"b","max_cycles":5,"probes_per_cycle":1,)"
                  R"("batch":1}]})",
                  "phases[0].batch");
}

TEST(SpecJsonTest, RejectsRemovedSettleKeys) {
  // TCP drains end at quiescence; these fixed windows are gone, and an old
  // spec carrying one must fail loudly instead of ignoring it.
  for (const char* key :
       {"leave_settle_ms", "settle_window_ms", "broadcast_quiet_window_ms"}) {
    const std::string k = key;
    expect_rejected(R"({"name":"x","tcp":{")" + k + R"(":10},"phases":[]})",
                    "tcp." + k);
  }
}

/// The reduced spec that used to pass --validate and then never end (at a
/// window of 1): two sources put two messages in flight per tick.
std::string dedup_spec(int window) {
  return R"({"name":"dedup","network":{"protocol":"HyParView","nodes":64,)"
         R"("gossip":{"dedup_window":)" +
         std::to_string(window) +
         R"(}},"phases":[{"kind":"stabilize","cycles":5},)"
         R"({"kind":"pubsub","sources":2,"rate":1,"ticks":1}]})";
}

TEST(SpecJsonTest, RejectsPubSubPhaseAboveDedupWindow) {
  expect_rejected(dedup_spec(1), "phases[1]: sources (2) x rate (1)");
  expect_rejected(dedup_spec(1), "network.gossip.dedup_window (1)");
  // A window that holds the whole tick loads, and the run ends.
  const RunSpec ok = spec_from_json(json::Value::parse(dedup_spec(2)));
  auto cluster = Cluster::sim(ok.net);
  const ExperimentResult result = cluster.run(ok.experiment);
  EXPECT_EQ(result.phase("pubsub").broadcasts.size(), 2u);
}

TEST(SpecJsonTest, RejectsHealUntilWithoutEarlierBroadcastBaseline) {
  const auto spec = [](const std::string& phases) {
    return R"({"name":"x","phases":[)" + phases + "]}";
  };
  const std::string heal = R"({"kind":"heal_until","baseline":"b",)"
                           R"("max_cycles":5,"probes_per_cycle":1})";
  const std::string broadcast = R"({"kind":"broadcast","count":1,"label":"b"})";
  // No phase carries the label.
  expect_rejected(spec(heal), "phases[0].baseline");
  expect_rejected(spec(heal), "'b'");
  // The label is only defined after the heal phase.
  expect_rejected(spec(heal + "," + broadcast), "phases[0].baseline");
  // The label names a phase that records no broadcasts.
  expect_rejected(
      spec(R"({"kind":"stabilize","cycles":5,"label":"b"},)" + heal),
      "phases[1].baseline");
  // A broadcast phase of count 0 measures nothing to heal back to: its
  // average would read 0.0, and the first probe would always "recover".
  const std::string empty = R"({"kind":"broadcast","count":0,"label":"b"})";
  expect_rejected(spec(empty + "," + heal), "phases[1].baseline");
  expect_rejected(spec(empty + "," + heal), "broadcasts nothing");
  // The baseline resolves to the first broadcast phase with the label.
  expect_rejected(spec(empty + "," + broadcast + "," + heal),
                  "phases[2].baseline");
  // A whole program that used to pass --validate: run, it "healed" after
  // one cycle at about 2% probe reliability.
  expect_rejected(
      R"({"name":"x","network":{"protocol":"Cyclon","nodes":1000},)"
      R"("phases":[{"kind":"stabilize","cycles":20},)" +
          empty +
          R"(,{"kind":"crash","fraction":0.8},)"
          R"({"kind":"heal_until","baseline":"b","max_cycles":10,)"
          R"("probes_per_cycle":10}]})",
      "phases[3].baseline");
  // An earlier broadcast phase is a valid baseline.
  const RunSpec ok =
      spec_from_json(json::Value::parse(spec(broadcast + "," + heal)));
  EXPECT_EQ(ok.experiment.phases().size(), 2u);
}

TEST(SpecJsonTest, TcpInheritsEveryProtocolFieldFromNetwork) {
  // Every protocol parameter reaches the TCP substrate (tcp-eager-64 relies
  // on network.gossip.dedup_window); the tcp block overrides only the node
  // count, the seed, its drain deadlines and the stats port, each key set
  // here away from its default.
  const RunSpec spec = spec_from_json(json::Value::parse(R"({
    "name": "x",
    "network": {
      "protocol": "Scamp", "nodes": 300, "seed": 9, "fanout": 6,
      "hyparview": {"passive_capacity": 17},
      "cyclon": {"shuffle_length": 9},
      "scamp": {"c": 2},
      "gossip": {"engine": "plumtree", "dedup_window": 4096},
      "adversary": {"attack": "drop", "fraction": 0.2}
    },
    "tcp": {"nodes": 24, "seed": 5, "join_settle_ms": 1,
            "cycle_settle_ms": 2, "broadcast_timeout_ms": 6,
            "stats_port": 0},
    "phases": []
  })"));
  EXPECT_EQ(spec.tcp.node_count, 24u);
  EXPECT_EQ(spec.tcp.seed, 5u);
  EXPECT_EQ(spec.tcp.gossip.dedup_window, 4096u);
  EXPECT_EQ(spec.tcp.join_settle, milliseconds(1));
  EXPECT_EQ(spec.tcp.cycle_settle, milliseconds(2));
  EXPECT_EQ(spec.tcp.broadcast_timeout, milliseconds(6));
  EXPECT_EQ(spec.tcp.stats_port, 0);
  // Every other field equals the network block's.
  ClusterConfig inherited = spec.tcp;
  inherited.node_count = spec.net.node_count;
  inherited.seed = spec.net.seed;
  EXPECT_TRUE(inherited == static_cast<const ClusterConfig&>(spec.net));
}

TEST(SpecJsonTest, BenchmarkWorkloadsLoadAsHpvBenchSplitsThem) {
  // hpv_bench's load_workload: "setup" becomes the spec's phase list and
  // "measure" a second one, its own keys stay out, and the rest loads
  // through spec_from_json. A loader change that would stop the frozen
  // benchmark from loading fails here.
  std::size_t loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(HPV_WORKLOAD_DIR)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    const json::Value doc = json::parse_file(entry.path().string());
    json::Value common = json::Value::object();
    const json::Value* setup = nullptr;
    const json::Value* measure = nullptr;
    for (const json::Member& m : doc.as_object()) {
      if (m.first == "setup") {
        setup = &m.second;
      } else if (m.first == "measure") {
        measure = &m.second;
      } else if (m.first != "reliability_floor" && m.first != "passes") {
        common.set(m.first, m.second);
      }
    }
    ASSERT_TRUE(setup != nullptr && measure != nullptr);
    json::Value spec_doc = common;
    spec_doc.set("phases", *setup);
    const RunSpec spec = spec_from_json(spec_doc);
    json::Value measure_doc = json::Value::object();
    measure_doc.set("name", spec.name).set("phases", *measure);
    EXPECT_FALSE(Experiment::from_json(measure_doc).phases().empty());
    // Experiment::from_json knows no dedup window, so hpv_bench's measure
    // list skips that check; every frozen stream must fit its window too.
    json::Value measured = common;
    measured.set("phases", *measure);
    EXPECT_NO_THROW((void)spec_from_json(measured));
    ++loaded;
  }
  EXPECT_GE(loaded, 4u);
}

constexpr const char* kSweepSpec = R"({
  "name": "grid",
  "network": {"protocol": "HyParView", "nodes": 100, "seed": 7},
  "phases": [
    {"kind": "stabilize", "cycles": 3},
    {"kind": "broadcast", "count": 4, "label": "base"},
    {"kind": "crash", "fraction": 0.5},
    {"kind": "leave", "count": 2, "graceful_fraction": 0.5},
    {"kind": "broadcast", "count": 6, "label": "measure"},
    {"kind": "broadcast", "count": 8, "label": "measure"},
    {"kind": "heal_until", "baseline": "base", "max_cycles": 9,
     "probes_per_cycle": 2}
  ],
  "sweep": [
    [{"network": {"protocol": "Cyclon"}}, {"network": {"protocol": "Scamp"}}],
    [{"phases": {"crash": {"fraction": 0.25}}},
     {"phases": {"measure": {"count": 1}, "heal": {"max_cycles": 3}}}]
  ]
})";

TEST(SpecJsonTest, SweepCrossesAxesInOrderWithRunsInnermost) {
  const auto points = expand_sweep(json::Value::parse(kSweepSpec), 2);
  ASSERT_EQ(points.size(), 2u * 2u * 2u);
  const ProtocolKind kinds[] = {ProtocolKind::kCyclon, ProtocolKind::kScamp};
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(i);
    const RunSpec& spec = points[i].spec;
    EXPECT_EQ(spec.name, "grid");
    EXPECT_EQ(spec.net.kind, kinds[i / 4]);
    EXPECT_EQ(spec.net.node_count, 100u);
    // seed + run, in both the cluster and the simulator config.
    EXPECT_EQ(spec.net.seed, 7u + i % 2);
    EXPECT_EQ(spec.net.sim.seed, 7u + i % 2);
    ASSERT_EQ(points[i].patches.as_array().size(), 2u);
    EXPECT_EQ(points[i].patches.as_array()[0].dump(),
              i / 4 == 0 ? R"({"network":{"protocol":"Cyclon"}})"
                         : R"({"network":{"protocol":"Scamp"}})");
    const auto& phases = spec.experiment.phases();
    if (i / 2 % 2 == 0) {
      // A patch keyed by a default label ("crash") reaches that phase only.
      EXPECT_EQ(phases[2].fraction, 0.25);
      EXPECT_EQ(phases[4].count, 6u);
      EXPECT_EQ(phases[6].cycles, 9u);
    } else {
      // A label shared by two phases patches both; the heal phase is
      // keyed by its default label.
      EXPECT_EQ(phases[2].fraction, 0.5);
      EXPECT_EQ(phases[4].count, 1u);
      EXPECT_EQ(phases[5].count, 1u);
      EXPECT_EQ(phases[6].cycles, 3u);
    }
    EXPECT_EQ(phases[1].count, 4u);
  }
}

TEST(SpecJsonTest, SpecWithoutSweepIsOnePointPerRun) {
  const auto points = expand_sweep(json::Value::parse(kSmallSpec), 3);
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t run = 0; run < 3; ++run) {
    EXPECT_TRUE(points[run].patches.as_array().empty());
    EXPECT_EQ(points[run].spec.net.seed, 7u + run);
  }
  // A document naming no seed starts from the default 42.
  const auto unseeded = expand_sweep(
      json::Value::parse(R"({"name":"x","phases":[]})"), 2);
  EXPECT_EQ(unseeded[0].spec.net.seed, 42u);
  EXPECT_EQ(unseeded[1].spec.net.seed, 43u);
}

TEST(SpecJsonTest, ScalePatchReachesExactlyItsKeys) {
  ScalePatch scale;
  scale.nodes = 60;
  scale.messages = 11;
  scale.seed = 1000;
  const auto points = expand_sweep(json::Value::parse(kSweepSpec), 2, scale);
  ASSERT_EQ(points.size(), 8u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(i);
    const RunSpec& spec = points[i].spec;
    EXPECT_EQ(spec.net.node_count, 60u);
    EXPECT_EQ(spec.net.seed, 1000u + i % 2);
    const auto& phases = spec.experiment.phases();
    // Every broadcast count, a sweep patch's too, and the heal probes.
    EXPECT_EQ(phases[1].count, 11u);
    EXPECT_EQ(phases[4].count, 11u);
    EXPECT_EQ(phases[5].count, 11u);
    EXPECT_EQ(phases[6].count, 11u);
    // Not the leave count, the stabilize rounds or the heal cycles.
    EXPECT_EQ(phases[3].count, 2u);
    EXPECT_EQ(phases[0].cycles, 3u);
    EXPECT_EQ(phases[6].cycles, i / 2 % 2 == 0 ? 9u : 3u);
  }
}

/// Expects expand_sweep on `text` to throw a CheckError containing every
/// needle.
void expect_sweep_rejected(const std::string& text,
                           std::initializer_list<std::string> needles) {
  SCOPED_TRACE(text);
  try {
    (void)expand_sweep(json::Value::parse(text));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "error was: " << e.what();
    }
  }
}

TEST(SpecJsonTest, RejectsMalformedSweeps) {
  const auto with_sweep = [](const std::string& sweep) {
    return R"({"name":"x","network":{"nodes":10},"phases":[)"
           R"({"kind":"crash","fraction":0.5}],"sweep":)" +
           sweep + "}";
  };
  expect_sweep_rejected(with_sweep("{}"), {"spec.sweep"});
  expect_sweep_rejected(with_sweep("[[]]"), {"sweep[0]", "non-empty"});
  expect_sweep_rejected(with_sweep("[[{}],[5]]"), {"sweep[1][0]"});
  expect_sweep_rejected(with_sweep(R"([[{"phases":{"crsh":{}}}]])"),
                        {"sweep[0][0].phases.crsh", "names no phase"});
  expect_sweep_rejected(with_sweep(R"([[{"phases":[]}]])"),
                        {"sweep[0][0].phases", "keyed by phase label"});
  expect_sweep_rejected(with_sweep(R"([[{"sweep":[]}]])"),
                        {"sweep[0][0]", "cannot hold a sweep"});
  // A point that does not load names its patches and the offending key.
  expect_sweep_rejected(
      with_sweep(R"([[{},{"phases":{"crash":{"fraction":2}}}]])"),
      {R"(sweep point [{"phases":{"crash":{"fraction":2}}}])",
       "phases[0].fraction"});
  expect_sweep_rejected(with_sweep(R"([[{"network":{"nodez":3}}]])"),
                        {"network.nodez"});
  // spec_from_json checks the block's shape too.
  expect_rejected(with_sweep("[[]]"), "sweep[0]");
}

TEST(SpecJsonTest, SweepRejectsPointThatLowersOnlyTheDedupWindow) {
  // The base document is valid; one point's patch shrinks the window
  // below the tick's sources x rate, and the loader names that point.
  expect_sweep_rejected(
      R"({"name":"x","network":{"nodes":64,"gossip":{"dedup_window":8}},)"
      R"("phases":[{"kind":"pubsub","sources":4,"rate":2,"ticks":1}],)"
      R"("sweep":[[{},{"network":{"gossip":{"dedup_window":7}}}]]})",
      {R"(sweep point [{"network":{"gossip":{"dedup_window":7}}}])",
       "network.gossip.dedup_window (7)", "phases[0]"});
}

TEST(SpecJsonTest, RejectsUnknownPhaseKind) {
  expect_rejected(R"({"name":"x","phases":[{"kind":"warp"}]})", "kind");
}

TEST(SpecJsonTest, RejectsHashInPhaseLabels) {
  // hpv_run keys a repeated label as "<label>#k"; a label of that shape
  // could collide with it.
  expect_rejected(
      R"({"name":"x","phases":[{"kind":"settle","label":"a#2"}]})",
      "phases[0].label");
}

}  // namespace
}  // namespace hyparview::harness
