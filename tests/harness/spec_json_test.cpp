// JSON spec codec tests.
//
// Four pins, in increasing strength:
//  1. every committed specs/<name>.json is byte-equal to its canonical
//     C++-built spec (builtin_spec) — a drifted file or schema change
//     fails here with the regeneration command in the message;
//  2. a spec loaded from JSON runs bit-identical (event counts) to the
//     same experiment hand-built through the Experiment builder API;
//  3. randomized phase programs survive to_json → dump → parse →
//     from_json unchanged, and the reloaded copy replays bit-identical;
//  4. schema violations throw CheckError naming the offending key path
//     (a typo must fail the run, not silently fall back to a default).
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/harness/spec_json.hpp"

namespace hyparview::harness {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SpecJsonTest, CommittedFilesPinnedToBuiltins) {
  const std::vector<std::string> names = builtin_spec_names();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    const std::string path = spec_path(name);
    SCOPED_TRACE(path);
    const std::string committed = slurp(path);
    ASSERT_FALSE(committed.empty()) << "missing committed spec file";
    EXPECT_EQ(committed, spec_to_json(builtin_spec(name)).dump(2))
        << "regenerate with: hpv_run --emit=" << name << " > " << path;
  }
}

TEST(SpecJsonTest, CommittedFilesReload) {
  for (const std::string& name : builtin_spec_names()) {
    SCOPED_TRACE(name);
    const RunSpec spec = load_spec_file(spec_path(name));
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.experiment.phases().empty());
    // Full-document round trip: reload of the dump is byte-stable.
    const std::string dumped = spec_to_json(spec).dump(2);
    EXPECT_EQ(dumped,
              spec_to_json(spec_from_json(json::Value::parse(dumped)))
                  .dump(2));
  }
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

/// A random but runnable phase program: small cycle/broadcast counts, crash
/// fractions bounded away from total collapse.
Experiment random_experiment(std::mt19937& rng, int index) {
  Experiment spec("prop" + std::to_string(index));
  std::uniform_int_distribution<int> kind_dist(0, 6);
  std::uniform_int_distribution<std::size_t> small(1, 6);
  std::uniform_real_distribution<double> frac(0.0, 1.0);
  const int phases = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < phases; ++i) {
    // Built with += rather than `"p" + std::to_string(i)`: the rvalue
    // string operator+ trips GCC 12's spurious -Wrestrict (PR 105651)
    // under -Werror once inlining decisions shift.
    std::string label = "p";
    label += std::to_string(i);
    switch (kind_dist(rng)) {
      case 0:
        spec.stabilize(small(rng), label);
        break;
      case 1:
        spec.set_fanout(small(rng), label);
        break;
      case 2:
        spec.crash(0.5 * frac(rng), label);
        break;
      case 3:
        spec.leave(small(rng), frac(rng), label);
        break;
      case 4:
        spec.broadcast(small(rng), label);
        break;
      case 5: {
        ChurnConfig churn;
        churn.cycles = small(rng);
        churn.joins_per_cycle = small(rng);
        churn.leaves_per_cycle = small(rng);
        churn.graceful_fraction = frac(rng);
        churn.probes_per_cycle = 1;
        spec.churn(churn, label);
        break;
      }
      case 6: {
        HeavyChurnConfig heavy;
        heavy.cycles = small(rng);
        heavy.joins_per_cycle = small(rng);
        heavy.dist = (rng() % 2 == 0) ? HeavyChurnConfig::Dist::kPareto
                                      : HeavyChurnConfig::Dist::kLognormal;
        heavy.pareto_alpha = 1.0 + frac(rng);
        heavy.lognormal_mu = frac(rng);
        heavy.graceful_fraction = frac(rng);
        heavy.probes_per_cycle = 1;
        spec.heavy_churn(heavy, label);
        break;
      }
      default:
        break;
    }
  }
  return spec;
}

TEST(SpecJsonTest, RandomizedRoundTripIsByteStable) {
  std::mt19937 rng(42);
  for (int i = 0; i < 50; ++i) {
    const Experiment spec = random_experiment(rng, i);
    const std::string dumped = spec.to_json().dump(2);
    SCOPED_TRACE(dumped);
    const Experiment reloaded =
        Experiment::from_json(json::Value::parse(dumped));
    EXPECT_EQ(dumped, reloaded.to_json().dump(2));
    // Compact form parses back to the same document too.
    EXPECT_EQ(dumped, Experiment::from_json(
                          json::Value::parse(spec.to_json().dump()))
                          .to_json()
                          .dump(2));
  }
}

TEST(SpecJsonTest, RandomizedRoundTripReplaysBitIdentical) {
  std::mt19937 rng(7);
  for (int i = 0; i < 3; ++i) {
    const Experiment spec = random_experiment(rng, i);
    SCOPED_TRACE(spec.to_json().dump(2));
    const Experiment reloaded =
        Experiment::from_json(json::Value::parse(spec.to_json().dump()));
    const auto cfg =
        NetworkConfig::defaults_for(ProtocolKind::kHyParView, 150, 11);
    auto original = Cluster::sim(cfg);
    auto replay = Cluster::sim(cfg);
    const auto original_result = original.run(spec);
    const auto replay_result = replay.run(reloaded);
    EXPECT_EQ(original->events_processed(), replay->events_processed());
    EXPECT_EQ(original_result.events, replay_result.events);
  }
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
  // Each of these used to pass validation and then trip an HPV_CHECK deep
  // inside the run (negative timer delay, zero-capacity ring buffers).
  const auto gossip = [](const std::string& member) {
    return R"({"name":"x","network":{"gossip":{)" + member +
           R"(}},"phases":[]})";
  };
  expect_rejected(gossip(R"("graft_timeout_ms":-1)"),
                  "network.gossip.graft_timeout_ms");
  // One past the largest millisecond count whose microseconds fit int64.
  expect_rejected(gossip(R"("graft_timeout_ms":9223372036854776)"),
                  "network.gossip.graft_timeout_ms");
  expect_rejected(gossip(R"("dedup_window":0)"),
                  "network.gossip.dedup_window");
  expect_rejected(gossip(R"("cache_window":0)"),
                  "network.gossip.cache_window");
  for (const char* key :
       {"join_settle_ms", "cycle_settle_ms", "leave_settle_ms",
        "settle_window_ms", "broadcast_timeout_ms",
        "broadcast_quiet_window_ms"}) {
    const std::string k = key;
    expect_rejected(R"({"name":"x","tcp":{")" + k + R"(":-1},"phases":[]})",
                    "tcp." + k);
    expect_rejected(R"({"name":"x","tcp":{")" + k +
                        R"(":9223372036854776},"phases":[]})",
                    "tcp." + k);
  }
  // The boundaries themselves load.
  const RunSpec edge = spec_from_json(json::Value::parse(
      R"({"name":"x","network":{"gossip":{"graft_timeout_ms":0,)"
      R"("dedup_window":1,"cache_window":1}},)"
      R"("tcp":{"settle_window_ms":9223372036854775},"phases":[]})"));
  EXPECT_EQ(edge.net.gossip.graft_timeout, 0);
  EXPECT_EQ(edge.net.gossip.dedup_window, 1u);
  EXPECT_EQ(edge.net.gossip.cache_window, 1u);
  EXPECT_EQ(edge.tcp.settle_window, milliseconds(9223372036854775));
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
  // An earlier broadcast phase is a valid baseline.
  const RunSpec ok =
      spec_from_json(json::Value::parse(spec(broadcast + "," + heal)));
  EXPECT_EQ(ok.experiment.phases().size(), 2u);
}

TEST(SpecJsonTest, TcpInheritsEveryProtocolFieldFromNetwork) {
  // Every protocol parameter reaches the TCP substrate (tcp-eager-64 relies
  // on network.gossip.dedup_window); the tcp block overrides only the node
  // count and seed.
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
    "tcp": {"nodes": 24, "seed": 5},
    "phases": []
  })"));
  EXPECT_EQ(spec.tcp.node_count, 24u);
  EXPECT_EQ(spec.tcp.seed, 5u);
  EXPECT_EQ(spec.tcp.gossip.dedup_window, 4096u);
  // Every other field: the network block rebuilt from the TCP config
  // serializes identically to the loaded one.
  RunSpec from_tcp = spec;
  static_cast<ClusterConfig&>(from_tcp.net) = spec.tcp;
  from_tcp.net.node_count = spec.net.node_count;
  from_tcp.net.seed = spec.net.seed;
  EXPECT_EQ(spec_to_json(from_tcp).find("network")->dump(2),
            spec_to_json(spec).find("network")->dump(2));
}

TEST(SpecJsonTest, RejectsUnknownPhaseKind) {
  expect_rejected(R"({"name":"x","phases":[{"kind":"warp"}]})", "kind");
}

TEST(SpecJsonTest, RejectsUnknownBuiltinName) {
  EXPECT_THROW((void)builtin_spec("fig99"), CheckError);
}

}  // namespace
}  // namespace hyparview::harness
