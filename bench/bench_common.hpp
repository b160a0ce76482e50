// Shared helpers for the experiment drivers (one binary per paper figure).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hyparview/analysis/stats.hpp"
#include "hyparview/analysis/table.hpp"
#include "hyparview/common/options.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/scale.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/sweep_runner.hpp"

namespace hyparview::bench {

inline void print_header(const char* experiment, const char* paper_ref,
                         const harness::BenchScale& scale) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("nodes=%zu messages=%zu runs=%zu seed=%llu%s\n",
              scale.nodes, scale.messages, scale.runs,
              static_cast<unsigned long long>(scale.seed),
              scale.quick ? " (HPV_QUICK)" : "");
  std::printf("Scale with HPV_NODES / HPV_MSGS / HPV_RUNS / HPV_SEED / HPV_QUICK=1.\n");
  std::printf("==================================================================\n");
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// A sim Cluster with the protocol's §5 defaults, ready for Experiment specs.
inline harness::Cluster sim_cluster(harness::ProtocolKind kind,
                                    std::size_t nodes, std::uint64_t seed) {
  return harness::Cluster::sim(
      harness::NetworkConfig::defaults_for(kind, nodes, seed));
}

/// Loads a committed experiment spec (specs/<name>.json; HPV_SPEC_DIR
/// overrides the directory) and returns its phase program. The committed
/// file pins the program's *shape*; drivers patch the scale-dependent knobs
/// (broadcast counts, crash fractions) through
/// mutable_phases(), so env-scaled runs stay bit-identical to the
/// historical hand-built specs.
inline harness::Experiment load_spec_experiment(const std::string& name) {
  return harness::load_spec_file(harness::spec_path(name)).experiment;
}

/// Machine-readable benchmark record, written as BENCH_<name>.json in the
/// working directory so the perf trajectory is tracked across PRs (diffable,
/// greppable, trivially parsed by CI).
inline void write_bench_json(
    const char* name, const harness::BenchScale& scale, double wall_seconds,
    std::uint64_t events,
    const std::vector<std::pair<std::string, double>>& extra = {}) {
  const std::string path = std::string("BENCH_") + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", name);
  std::fprintf(f, "  \"nodes\": %zu,\n", scale.nodes);
  std::fprintf(f, "  \"messages\": %zu,\n", scale.messages);
  std::fprintf(f, "  \"runs\": %zu,\n", scale.runs);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(scale.seed));
  std::fprintf(f, "  \"quick\": %s,\n", scale.quick ? "true" : "false");
  std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wall_seconds);
  std::fprintf(f, "  \"events\": %llu,\n",
               static_cast<unsigned long long>(events));
  std::fprintf(f, "  \"events_per_second\": %.0f",
               wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                                  : 0.0);
  for (const auto& [key, value] : extra) {
    std::fprintf(f, ",\n  \"%s\": %g", key.c_str(), value);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("[bench json → %s]\n", path.c_str());
}

/// Appends the per-phase timing fields of an experiment run to the BENCH
/// json (phase_seconds_<prefix><label>); bench_compare.py knows these are
/// informational. Instant phases (fanout switches) are skipped.
template <typename Recorder>
inline void add_phase_timings(Recorder& rec,
                              const harness::ExperimentResult& result,
                              const std::string& prefix = "") {
  for (const harness::PhaseResult& phase : result.phases) {
    if (phase.kind == harness::Experiment::PhaseKind::kSetFanout) continue;
    rec.add_metric("phase_seconds_" + prefix + phase.label,
                   phase.wall_seconds);
  }
}

/// Guards worker-side progress prints inside sweep jobs (see run_sweep).
inline std::mutex& sweep_print_mutex() {
  static std::mutex mutex;
  return mutex;
}

/// RAII bench record: starts timing at construction, accumulates simulator
/// event counts as networks finish, writes BENCH_<name>.json on destruction
/// (so a driver cannot forget the emit and every exit path is covered).
class JsonRecorder {
 public:
  JsonRecorder(const char* name, const harness::BenchScale& scale)
      : name_(name), scale_(scale) {}

  JsonRecorder(const JsonRecorder&) = delete;
  JsonRecorder& operator=(const JsonRecorder&) = delete;

  ~JsonRecorder() {
    write_bench_json(name_, scale_, watch_.seconds(), events_, extra_);
  }

  void add_events(std::uint64_t n) { events_ += n; }
  void add_metric(std::string key, double value) {
    extra_.emplace_back(std::move(key), value);
  }

 private:
  const char* name_;
  harness::BenchScale scale_;
  Stopwatch watch_;
  std::uint64_t events_ = 0;
  std::vector<std::pair<std::string, double>> extra_;
};

/// Shared scaffolding for the threaded sweep drivers (fig2/fig3 and the
/// ablations): announces the fan-out, runs the jobs on a SweepRunner
/// (HPV_THREADS), records the resolved thread count on `rec`, and returns
/// per-job wall seconds for the drivers' point_seconds_* metrics. Jobs must
/// follow the SweepRunner determinism contract (own SimBackend, own result
/// slot); guard worker-side progress prints with sweep_print_mutex().
inline std::vector<double> run_sweep(
    const std::vector<std::function<void()>>& jobs, JsonRecorder& rec) {
  harness::SweepRunner runner;
  const std::size_t threads = std::min(runner.threads(), jobs.size());
  std::printf("[sweep: %zu points across %zu threads]\n", jobs.size(),
              threads);
  std::vector<double> seconds = runner.run(jobs);
  rec.add_metric("threads", static_cast<double>(threads));
  return seconds;
}

}  // namespace hyparview::bench
