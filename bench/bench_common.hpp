// Shared helpers for the bench programs that stay in C++ (gates, churn and
// the ablations whose measurements no spec phase expresses).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "hyparview/analysis/stats.hpp"
#include "hyparview/analysis/table.hpp"
#include "hyparview/common/options.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/scale.hpp"
#include "hyparview/harness/spec_json.hpp"

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
    // Whole numbers (counts, byte totals) print exactly; %g would round
    // them to six digits and hide a drift the gates compare for.
    const bool whole = value == std::floor(value) && std::fabs(value) < 1e15;
    std::fprintf(f, whole ? ",\n  \"%s\": %.0f" : ",\n  \"%s\": %g",
                 key.c_str(), value);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("[bench json → %s]\n", path.c_str());
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

}  // namespace hyparview::bench
