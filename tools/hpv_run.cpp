// hpv_run — run JSON experiment specs, sweeps included, on either backend.
//
//   hpv_run <spec.json | spec-name> [...]   run each spec in order
//     --backend=sim|tcp    override every point's substrate
//     --stats-port=N       override the TCP stats endpoint port (-1 off,
//                          0 ephemeral; the bound port is printed)
//     --out=<path>         BENCH-style JSON output path; one spec only
//                          (default BENCH_<spec-name>.json in the working
//                          directory)
//     --validate           load every sweep point of the specs and exit (no
//                          runs) — the `specs` CTest target runs this over
//                          specs/
//
// Scale: HPV_NODES, HPV_MSGS and HPV_SEED form the scale patch of
// spec_json.hpp, applied to every point; HPV_RUNS runs each point with
// seeds seed + run; HPV_THREADS sizes the SweepRunner pool (TCP points run
// one at a time). Unset or malformed values keep the spec's; negative ones
// fail naming the variable.
//
// A positional argument containing '/' or ending in ".json" is a file path;
// anything else names a committed spec and resolves through spec_path()
// (specs/<name>.json, HPV_SPEC_DIR overrides the directory). The JSON file
// is the experiment's only definition.
//
// Output: one row per point, in index order, and one BENCH json per spec:
// the scale header, `events` summed over the points, and under "points"
// each point's patches, seed, events and phase metrics. A phase's metrics
// are keyed `<metric>_<key>`, where the key is the phase's label, or
// `<label>#k` for the k-th phase carrying a label (k >= 2; the loader
// rejects '#' in labels, so a repeated label never reuses a key). Every
// phase writes `alive_<key>` and `counters_<key>`, an object of its nonzero
// counters under the names of harness::Counters::named (frames_sent,
// payload_bytes, crashes, frames_GOSSIP...), which both backends share.
// A sim point also writes, as its run ends, `queue_event_storage` (the
// event queue's storage in events) and `history_byte_storage` (the bytes
// of every node's delivered-id table); the record's top level holds the
// largest of each, which bench_compare fails on when it grows.
//
// Determinism: this binary never reads a clock — wall timings come from
// ExperimentResult, which the harness stamps (tools/ is inside the
// determinism linter's roots).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/common/options.hpp"
#include "hyparview/harness/scale.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/stats_export.hpp"
#include "hyparview/harness/sweep_runner.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace {

using namespace hyparview;
using harness::Experiment;
using harness::ExperimentResult;
using harness::PhaseResult;
using harness::SweepPoint;

bool looks_like_path(const std::string& arg) {
  if (arg.find('/') != std::string::npos) return true;
  const std::string suffix = ".json";
  return arg.size() >= suffix.size() &&
         arg.compare(arg.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct Options {
  std::string backend;  ///< "" = each point's own
  std::optional<int> stats_port;
  std::string out;
};

struct PointRun {
  bool tcp = false;
  std::size_t nodes = 0;
  std::uint64_t seed = 0;
  ExperimentResult result;
  // Sim points only, read when the run ends: the event queue's storage in
  // events and the bytes of every node's delivered-id table.
  std::size_t queue_event_storage = 0;
  std::size_t history_byte_storage = 0;
};

PointRun run_point(const harness::RunSpec& spec, const Options& opt) {
  PointRun run;
  run.tcp = (opt.backend.empty() ? spec.backend : opt.backend) == "tcp";
  if (!run.tcp) {
    run.nodes = spec.net.node_count;
    run.seed = spec.net.seed;
    harness::Cluster cluster = harness::Cluster::sim(spec.net);
    run.result = cluster.run(spec.experiment);
    run.queue_event_storage =
        cluster.sim_backend()->simulator().queue_storage_events();
    for (std::size_t i = 0; i < cluster->node_count(); ++i) {
      run.history_byte_storage += cluster->engine(i).history_bytes();
    }
    return run;
  }
  harness::TcpBackendConfig cfg = spec.tcp;
  if (opt.stats_port) cfg.stats_port = *opt.stats_port;
  run.nodes = cfg.node_count;
  run.seed = cfg.seed;
  harness::Cluster cluster = harness::Cluster::tcp(cfg);
  // Build before running so the stats endpoint is announced while the run
  // is still live (that is the point of polling it).
  auto& tcp = dynamic_cast<harness::TcpBackend&>(cluster.backend());
  tcp.build();
  if (harness::StatsExporter* stats = tcp.stats_exporter()) {
    std::printf("[stats endpoint: 127.0.0.1:%u — one JSON snapshot per "
                "connection]\n",
                static_cast<unsigned>(stats->port()));
  }
  run.result = cluster.run(spec.experiment);
  return run;
}

/// Each phase's report key: its label, or `<label>#k` for the k-th phase
/// carrying that label.
std::vector<std::string> phase_keys(const ExperimentResult& result) {
  std::map<std::string, std::size_t> seen;
  std::vector<std::string> keys;
  for (const PhaseResult& phase : result.phases) {
    const std::size_t k = ++seen[phase.label];
    keys.push_back(k == 1 ? phase.label
                          : phase.label + "#" + std::to_string(k));
  }
  return keys;
}

/// `value` with `digits` decimals, as printf's %.*f writes it.
std::string fixed(double value, int digits) {
  const int size = std::snprintf(nullptr, 0, "%.*f", digits, value);
  std::string out(static_cast<std::size_t>(size) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.*f", digits, value);
  out.pop_back();
  return out;
}

void print_row(std::size_t index, const SweepPoint& point,
               const PointRun& run) {
  std::string row = "  [" + std::to_string(index) + "]";
  for (const json::Value& patch : point.patches.as_array()) {
    row += " " + patch.dump();
  }
  row += " seed=" + std::to_string(run.seed) +
         " events=" + std::to_string(run.result.events);
  const std::vector<std::string> keys = phase_keys(run.result);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const PhaseResult& phase = run.result.phases[i];
    const std::string& label = keys[i];
    if (!phase.reliabilities.empty()) {
      row += " " + label + "=" + fixed(phase.avg_reliability(), 4);
    }
    if (phase.kind == Experiment::PhaseKind::kHealUntil) {
      row += " " + label + "_cycles=" + (phase.recovered ? "" : ">") +
             std::to_string(phase.cycles_to_heal);
    }
    if (phase.kind == Experiment::PhaseKind::kOverlay) {
      const harness::OverlayStats& o = phase.overlay;
      row += " " + label + ": " + (o.connected ? "connected" : "PARTITIONED") +
             " lcc=" + std::to_string(o.largest_component) + "/" +
             std::to_string(o.alive) +
             " clustering=" + fixed(o.clustering, 6) +
             " asp=" + fixed(o.avg_shortest_path, 5) +
             " indeg=" + fixed(o.in_degree.mean, 2) + "±" +
             fixed(o.in_degree.stddev, 2) + "[" + fixed(o.in_degree.min, 0) +
             "," + fixed(o.in_degree.max, 0) +
             "] backup=" + fixed(o.backup_view_mean(), 2) +
             " eclipse=" + fixed(o.dissemination.poisoned_share(), 4) +
             " backup_poison=" + fixed(o.backup.poisoned_share(), 4);
    }
  }
  std::printf("%s\n", row.c_str());
}

template <typename T>
json::Value array_of(const std::vector<T>& values) {
  return json::Value(json::Value::Array(values.begin(), values.end()));
}

void add_overlay(json::Value& p, const std::string& label,
                 const harness::OverlayStats& o) {
  p.set("honest_alive_" + label, o.alive);
  p.set("connected_" + label, o.connected);
  p.set("largest_component_" + label, o.largest_component);
  p.set("clustering_" + label, o.clustering);
  p.set("avg_shortest_path_" + label, o.avg_shortest_path);
  p.set("in_degree_histogram_" + label, array_of(o.in_degree_histogram));
  p.set("in_degree_mean_" + label, o.in_degree.mean);
  p.set("in_degree_stddev_" + label, o.in_degree.stddev);
  p.set("in_degree_min_" + label, o.in_degree.min);
  p.set("in_degree_max_" + label, o.in_degree.max);
  p.set("backup_view_mean_" + label, o.backup_view_mean());
  p.set("eclipse_" + label, o.dissemination.poisoned_share());
  p.set("backup_poison_" + label, o.backup.poisoned_share());
}

json::Value point_json(const SweepPoint& point, const PointRun& run) {
  json::Value p = json::Value::object();
  p.set("patches", point.patches);
  p.set("seed", run.seed);
  p.set("events", run.result.events);
  p.set("wall_seconds", run.result.wall_seconds);
  if (!run.tcp) {
    p.set("queue_event_storage", run.queue_event_storage);
    p.set("history_byte_storage", run.history_byte_storage);
  }
  const std::vector<std::string> keys = phase_keys(run.result);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const PhaseResult& phase = run.result.phases[i];
    if (phase.kind == Experiment::PhaseKind::kSetFanout) continue;
    const std::string& label = keys[i];
    p.set("phase_seconds_" + label, phase.wall_seconds);
    p.set("alive_" + label, phase.alive);
    json::Value counters = json::Value::object();
    for (const auto& [name, value] : phase.counters.named()) {
      if (value != 0) counters.set(name, value);
    }
    p.set("counters_" + label, std::move(counters));
    if (!phase.reliabilities.empty()) {
      p.set("reliability_" + label, phase.avg_reliability());
      p.set("min_reliability_" + label, phase.min_reliability());
      p.set("last_reliability_" + label, phase.last_reliability());
      p.set("reliabilities_" + label, array_of(phase.reliabilities));
    }
    if (!phase.broadcasts.empty()) {
      double hops = 0.0;
      double latency = 0.0;
      for (const auto& m : phase.broadcasts) {
        hops += m.max_hops;
        latency += static_cast<double>(m.latency_to_last());
      }
      const auto messages = static_cast<double>(phase.broadcasts.size());
      p.set("max_hops_" + label, hops / messages);
      p.set("latency_to_last_" + label, latency / messages);
    }
    if (phase.kind == Experiment::PhaseKind::kHealUntil) {
      p.set("cycles_to_heal_" + label, phase.cycles_to_heal);
      p.set("recovered_" + label, phase.recovered);
    }
    if (phase.kind == Experiment::PhaseKind::kOverlay) {
      add_overlay(p, label, phase.overlay);
    }
  }
  return p;
}

/// Runs every point, prints one row per point in index order and writes
/// the BENCH_<name>.json record: the scale of point 0, totals over every
/// point, and the points themselves.
void run_sweep(const std::string& name, const std::vector<SweepPoint>& points,
               std::size_t runs, const Options& opt) {
  bool any_tcp = false;
  bool all_tcp = true;
  for (const SweepPoint& p : points) {
    const bool tcp =
        (opt.backend.empty() ? p.spec.backend : opt.backend) == "tcp";
    any_tcp = any_tcp || tcp;
    all_tcp = all_tcp && tcp;
  }
  // Real sockets share the machine's ports and timing: one TCP point at a
  // time.
  const harness::SweepRunner runner(any_tcp ? 1 : 0);
  const std::size_t threads = std::min(runner.threads(), points.size());
  std::printf("== %s: %zu points across %zu threads ==\n", name.c_str(),
              points.size(), threads);

  std::vector<PointRun> done(points.size());
  std::vector<std::function<void()>> jobs;
  jobs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    jobs.push_back([&, i] {
      try {
        done[i] = run_point(points[i].spec, opt);
      } catch (const CheckError& e) {
        throw CheckError("point " + std::to_string(i) + " " +
                         points[i].patches.dump() + ": " + e.what());
      }
    });
  }
  (void)runner.run(jobs);

  std::uint64_t events = 0;
  double wall = 0.0;
  std::size_t queue_storage = 0;
  std::size_t history_storage = 0;
  json::Value list = json::Value::array();
  for (std::size_t i = 0; i < points.size(); ++i) {
    print_row(i, points[i], done[i]);
    events += done[i].result.events;
    wall += done[i].result.wall_seconds;
    queue_storage = std::max(queue_storage, done[i].queue_event_storage);
    history_storage = std::max(history_storage, done[i].history_byte_storage);
    list.push_back(point_json(points[i], done[i]));
  }
  std::printf("total: %llu events in %.3fs\n",
              static_cast<unsigned long long>(events), wall);

  json::Value doc = json::Value::object();
  doc.set("bench", name);
  doc.set("backend", done.front().tcp ? "tcp" : "sim");
  doc.set("nodes", done.front().nodes);
  doc.set("messages", points.front().spec.experiment.planned_broadcasts());
  doc.set("runs", runs);
  doc.set("seed", done.front().seed);
  doc.set("quick", false);
  doc.set("threads", threads);
  doc.set("wall_seconds", wall);
  doc.set("events", events);
  doc.set("events_per_second",
          wall > 0.0 ? static_cast<double>(events) / wall : 0.0);
  if (!all_tcp) {
    // The largest point's figures: bench_compare gates every *_storage key.
    doc.set("queue_event_storage", queue_storage);
    doc.set("history_byte_storage", history_storage);
  }
  doc.set("points", std::move(list));
  const std::string path =
      opt.out.empty() ? "BENCH_" + name + ".json" : opt.out;
  std::ofstream out(path, std::ios::binary);
  HPV_CHECK_THROW(out.good(), "hpv_run: cannot write " + path);
  out << doc.dump(2);
  std::printf("[bench json -> %s]\n", path.c_str());
}

int run_main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  args.check_known({"backend", "stats-port", "out", "validate"});

  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: hpv_run <spec.json | spec-name> [...]\n"
                 "  [--backend=sim|tcp] [--stats-port=N] [--out=path]\n"
                 "  [--validate]\n");
    return 2;
  }

  Options opt;
  opt.backend = args.get("backend", "");
  HPV_CHECK_THROW(opt.backend.empty() || opt.backend == "sim" ||
                      opt.backend == "tcp",
                  "hpv_run: --backend expects sim or tcp");
  if (args.has("stats-port")) {
    const std::int64_t port = args.get_int("stats-port", -1);
    HPV_CHECK_THROW(port >= -1 && port <= 65535,
                    "hpv_run: --stats-port expects -1..65535");
    opt.stats_port = static_cast<int>(port);
  }
  // Every run would write the same file, each overwriting the one before.
  HPV_CHECK_THROW(!args.has("out") || args.positional().size() == 1,
                  "hpv_run: --out names one output file, so it takes exactly "
                  "one spec");
  opt.out = args.get("out", "");

  const bool validate = args.has("validate");
  harness::ScalePatch scale;
  std::size_t runs = 1;
  if (!validate) {
    scale.nodes = harness::env_count("HPV_NODES");
    scale.messages = harness::env_count("HPV_MSGS");
    scale.seed = harness::env_count("HPV_SEED");
    runs = harness::env_count("HPV_RUNS").value_or(1);
    HPV_CHECK_THROW(runs >= 1, "hpv_run: env var HPV_RUNS: expected >= 1");
  }

  for (const std::string& arg : args.positional()) {
    const std::string path =
        looks_like_path(arg) ? arg : harness::spec_path(arg);
    const std::vector<SweepPoint> points =
        harness::load_sweep_file(path, runs, scale);
    const std::string& name = points.front().spec.name;
    if (validate) {
      std::printf("%s: OK (%s, %zu points, %zu phases)\n", path.c_str(),
                  name.c_str(), points.size(),
                  points.front().spec.experiment.phases().size());
      continue;
    }
    run_sweep(name, points, runs, opt);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpv_run: %s\n", e.what());
    return 1;
  }
}
