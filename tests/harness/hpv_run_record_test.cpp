// hpv_run's BENCH json, read back through the repo's own strict parser
// (json::parse_file rejects a duplicate key): two phases sharing a label
// get distinct keys in the record and the row, a 32-node TCP run writes
// the same keys as the sim, its counters under the sim's names, and an
// overlay phase writes the adversary's share of the honest views.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "hyparview/common/json.hpp"
#include "hyparview/harness/backend.hpp"

namespace hyparview {
namespace {

/// Two broadcast phases labelled "measure", a crash between them.
constexpr const char* kSpec = R"({
  "name": "repeated_labels",
  "network": {"protocol": "HyParView", "nodes": 100},
  "tcp": {"nodes": 32},
  "phases": [
    {"kind": "stabilize", "cycles": 5},
    {"kind": "broadcast", "count": 5, "label": "measure"},
    {"kind": "crash", "fraction": 0.5},
    {"kind": "broadcast", "count": 5, "label": "measure"}
  ]
})";

struct HpvRun {
  json::Value point;  ///< the record's one point
  std::string rows;   ///< what hpv_run printed
};

/// Runs `hpv_run <spec> --out=<name>.json <args>` with the environment
/// assignments `env` in front; `spec` is a file or a committed spec name.
HpvRun run_spec(const std::string& name, const std::string& spec,
                const std::string& args, const std::string& env = "") {
  const std::string out = name + ".json";
  const std::string log = name + ".log";
  const std::string cmd = env + " " + std::string(HPV_RUN_BINARY) + " " +
                          spec + " --out=" + out + " " + args + " > " + log;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream printed(log);
  return {json::parse_file(out).find("points")->as_array().front(),
          std::string(std::istreambuf_iterator<char>(printed), {})};
}

/// Runs hpv_run on `text`, written to <name>_spec.json.
HpvRun run_hpv(const std::string& name, const std::string& args,
               const std::string& text = kSpec) {
  const std::string spec = name + "_spec.json";
  std::ofstream(spec) << text;
  return run_spec(name, spec, args);
}

std::set<std::string> keys_of(const json::Value& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.as_object()) keys.insert(key);
  return keys;
}

TEST(HpvRunRecordTest, RepeatedLabelsGetDistinctKeys) {
  const HpvRun run = run_hpv("repeated_labels", "");
  const json::Value* first = run.point.find("reliabilities_measure");
  const json::Value* second = run.point.find("reliabilities_measure#2");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->as_array().size(), 5u);
  EXPECT_EQ(second->as_array().size(), 5u);
  ASSERT_NE(run.point.find("reliability_measure"), nullptr);
  ASSERT_NE(run.point.find("reliability_measure#2"), nullptr);
  // The crash sits between the two: each key holds its own phase.
  EXPECT_EQ(run.point.find("alive_measure")->as_int(), 100);
  EXPECT_EQ(run.point.find("alive_measure#2")->as_int(), 50);
  EXPECT_NE(run.rows.find(" measure="), std::string::npos) << run.rows;
  EXPECT_NE(run.rows.find(" measure#2="), std::string::npos) << run.rows;
}

TEST(HpvRunRecordTest, TcpRecordHasTheSimKeysAndCounterNames) {
  const HpvRun sim = run_hpv("record_sim", "");
  const HpvRun tcp = run_hpv("record_tcp", "--backend=tcp");
  // Only the simulator has the event queue the storage figures measure.
  std::set<std::string> sim_keys = keys_of(sim.point);
  EXPECT_EQ(sim_keys.erase("queue_event_storage"), 1u);
  EXPECT_EQ(sim_keys.erase("history_byte_storage"), 1u);
  EXPECT_EQ(sim_keys, keys_of(tcp.point));

  std::set<std::string> names;
  for (const auto& [name, value] : harness::Counters{}.named()) {
    names.insert(name);
  }
  for (const std::string key : {"counters_stabilize", "counters_measure",
                                "counters_crash", "counters_measure#2"}) {
    SCOPED_TRACE(key);
    for (const std::string& name : keys_of(*tcp.point.find(key))) {
      EXPECT_EQ(names.count(name), 1u) << name;
    }
  }
  const json::Value& sim_measure = *sim.point.find("counters_measure");
  const json::Value& tcp_measure = *tcp.point.find("counters_measure");
  for (const char* shared :
       {"frames_sent", "bytes_sent", "payload_bytes", "forwards"}) {
    SCOPED_TRACE(shared);
    ASSERT_NE(sim_measure.find(shared), nullptr);
    ASSERT_NE(tcp_measure.find(shared), nullptr);
  }
  EXPECT_GT(tcp_measure.find("payload_bytes")->as_int(), 0);
  EXPECT_GT(tcp_measure.find("frames_sent")->as_int(), 0);
  // The transports count per wire type too: the broadcasts' GOSSIP frames
  // are a part of everything the phase queued.
  const json::Value* gossip = tcp_measure.find("frames_GOSSIP");
  ASSERT_NE(gossip, nullptr);
  EXPECT_GT(gossip->as_int(), 0);
  EXPECT_LE(gossip->as_int(), tcp_measure.find("frames_sent")->as_int());
  EXPECT_EQ(tcp.point.find("counters_crash")->find("crashes")->as_int(), 16);
}

TEST(HpvRunRecordTest, LongLabelledOverlayRowEndsWithItsLastField) {
  // The label alone is longer than a line buffer of a terminal's width.
  const std::string label = "overlay_" + std::string(120, 'x');
  const HpvRun run = run_hpv("long_overlay_label", "", R"({
    "name": "long_overlay_label",
    "network": {"protocol": "HyParView", "nodes": 100},
    "phases": [
      {"kind": "stabilize", "cycles": 5},
      {"kind": "overlay", "label": ")" + label + R"("}
    ]
  })");
  const std::size_t begin = run.rows.find("  [0]");
  ASSERT_NE(begin, std::string::npos) << run.rows;
  const std::string row =
      run.rows.substr(begin, run.rows.find('\n', begin) - begin);
  EXPECT_NE(row.find(" " + label + ": "), std::string::npos) << row;
  // An honest cluster: no view entry names the adversary.
  const std::string last = " backup_poison=0.0000";
  ASSERT_GE(row.size(), last.size());
  EXPECT_EQ(row.substr(row.size() - last.size()), last) << row;
  EXPECT_EQ(run.point.find("eclipse_" + label)->as_double(), 0.0);
  EXPECT_EQ(run.point.find("backup_poison_" + label)->as_double(), 0.0);
  EXPECT_EQ(run.point.find("honest_alive_" + label)->as_int(), 100);
}

TEST(HpvRunRecordTest, OverlayPhaseMeasuresTheAdversarysShare) {
  // The committed poison spec's first point is HyParView's.
  const HpvRun poison = run_spec("adversarial_poison", "adversarial_poison",
                                 "", "HPV_NODES=100 HPV_MSGS=2");
  EXPECT_EQ(poison.point.find("patches")->dump(),
            R"([{"network":{"protocol":"HyParView"}}])");
  EXPECT_GT(poison.point.find("eclipse_overlay")->as_double(), 0.0);
  // The adversary's 10 nodes are alive but not measured.
  EXPECT_EQ(poison.point.find("alive_overlay")->as_int(), 100);
  EXPECT_EQ(poison.point.find("honest_alive_overlay")->as_int(), 90);
}

}  // namespace
}  // namespace hyparview
