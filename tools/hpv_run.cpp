// hpv_run — run a JSON experiment spec on either backend.
//
//   hpv_run <spec.json | spec-name> [...]   run each spec in order
//     --backend=sim|tcp    override the spec's default substrate
//     --stats-port=N       override the TCP stats endpoint port (-1 off,
//                          0 ephemeral; the bound port is printed)
//     --out=<path>         BENCH-style JSON output path; one spec only
//                          (default BENCH_<spec-name>.json in the working
//                          directory)
//     --validate           load and check the specs and exit (no runs) —
//                          the `specs` CTest target runs this over specs/
//
// A positional argument containing '/' or ending in ".json" is a file path;
// anything else names a committed spec and resolves through spec_path()
// (specs/<name>.json, HPV_SPEC_DIR overrides the directory). The JSON file
// is the experiment's only definition.
//
// Determinism: this binary never reads a clock — wall timings come from
// ExperimentResult, which the harness stamps (tools/ is inside the
// determinism linter's roots).
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/common/options.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/stats_export.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace {

using namespace hyparview;

bool looks_like_path(const std::string& arg) {
  if (arg.find('/') != std::string::npos) return true;
  const std::string suffix = ".json";
  return arg.size() >= suffix.size() &&
         arg.compare(arg.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The BENCH_<name>.json record the bench drivers emit, fed from the
/// experiment result instead of a stopwatch.
void write_bench_json(const std::string& path, const harness::RunSpec& spec,
                      const std::string& backend,
                      const harness::ExperimentResult& result,
                      std::size_t nodes) {
  json::Value doc = json::Value::object();
  doc.set("bench", spec.name);
  doc.set("backend", backend);
  doc.set("nodes", nodes);
  doc.set("messages", spec.experiment.planned_broadcasts());
  doc.set("runs", 1);
  doc.set("seed", backend == "tcp" ? spec.tcp.seed : spec.net.seed);
  doc.set("quick", false);
  doc.set("wall_seconds", result.wall_seconds);
  doc.set("events", result.events);
  doc.set("events_per_second",
          result.wall_seconds > 0.0
              ? static_cast<double>(result.events) / result.wall_seconds
              : 0.0);
  for (const harness::PhaseResult& phase : result.phases) {
    if (phase.kind == harness::Experiment::PhaseKind::kSetFanout) continue;
    doc.set("phase_seconds_" + phase.label, phase.wall_seconds);
    if (!phase.reliabilities.empty()) {
      doc.set("reliability_" + phase.label, phase.avg_reliability());
    }
    if (phase.kind == harness::Experiment::PhaseKind::kHealUntil) {
      doc.set("cycles_to_heal_" + phase.label, phase.cycles_to_heal);
      doc.set("recovered_" + phase.label, phase.recovered);
    }
  }
  std::ofstream out(path, std::ios::binary);
  HPV_CHECK_THROW(out.good(), "hpv_run: cannot write " + path);
  out << doc.dump(2);
  std::printf("[bench json -> %s]\n", path.c_str());
}

int run_spec(const harness::RunSpec& spec, const std::string& backend,
             std::int64_t stats_port_override, bool has_port_override,
             const std::string& out_path) {
  std::printf("== %s (backend: %s) ==\n", spec.name.c_str(), backend.c_str());

  harness::Cluster cluster = [&] {
    if (backend == "tcp") {
      harness::TcpBackendConfig cfg = spec.tcp;
      if (has_port_override) {
        cfg.stats_port = static_cast<int>(stats_port_override);
      }
      return harness::Cluster::tcp(cfg);
    }
    return harness::Cluster::sim(spec.net);
  }();

  std::size_t nodes = 0;
  if (backend == "tcp") {
    // Build before running so the stats endpoint is announced while the
    // run is still live (that is the point of polling it).
    auto& tcp = dynamic_cast<harness::TcpBackend&>(cluster.backend());
    tcp.build();
    nodes = tcp.node_count();
    if (harness::StatsExporter* stats = tcp.stats_exporter()) {
      std::printf("[stats endpoint: 127.0.0.1:%u — one JSON snapshot per "
                  "connection]\n",
                  static_cast<unsigned>(stats->port()));
    }
  } else {
    nodes = spec.net.node_count;
  }

  const harness::ExperimentResult result = cluster.run(spec.experiment);

  for (const harness::PhaseResult& phase : result.phases) {
    std::printf("  %-16s events=%llu", phase.label.c_str(),
                static_cast<unsigned long long>(phase.events));
    if (!phase.reliabilities.empty()) {
      std::printf(" reliability=%.4f", phase.avg_reliability());
    }
    if (phase.kind == harness::Experiment::PhaseKind::kHealUntil) {
      std::printf(" cycles_to_heal=%zu recovered=%s", phase.cycles_to_heal,
                  phase.recovered ? "yes" : "no");
    }
    std::printf("\n");
  }
  std::printf("total: %llu events in %.3fs\n",
              static_cast<unsigned long long>(result.events),
              result.wall_seconds);

  write_bench_json(out_path.empty() ? "BENCH_" + spec.name + ".json"
                                    : out_path,
                   spec, backend, result, nodes);
  return 0;
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

  const std::string backend_override = args.get("backend", "");
  HPV_CHECK_THROW(backend_override.empty() || backend_override == "sim" ||
                      backend_override == "tcp",
                  "hpv_run: --backend expects sim or tcp");
  const bool has_port_override = args.has("stats-port");
  const std::int64_t stats_port = args.get_int("stats-port", -1);
  HPV_CHECK_THROW(stats_port >= -1 && stats_port <= 65535,
                  "hpv_run: --stats-port expects -1..65535");
  // Every run would write the same file, each overwriting the one before.
  HPV_CHECK_THROW(!args.has("out") || args.positional().size() == 1,
                  "hpv_run: --out names one output file, so it takes exactly "
                  "one spec");

  for (const std::string& arg : args.positional()) {
    const std::string path =
        looks_like_path(arg) ? arg : harness::spec_path(arg);
    const harness::RunSpec spec = harness::load_spec_file(path);
    if (args.has("validate")) {
      std::printf("%s: OK (%s, %zu phases)\n", path.c_str(),
                  spec.name.c_str(), spec.experiment.phases().size());
      continue;
    }
    const std::string backend =
        backend_override.empty() ? spec.backend : backend_override;
    const int rc = run_spec(spec, backend, stats_port, has_port_override,
                            args.get("out", ""));
    if (rc != 0) return rc;
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
