// Threaded fan-out for statistically independent experiment points.
//
// The paper's figure sweeps (hpv_run over a spec's sweep block: protocol ×
// failure fraction × seed, variant × parameter) are embarrassingly
// parallel: each point builds its own SimBackend — simulator, RNG streams,
// recorder and all — from a (config, seed) pair and never touches another
// point's state. The SweepRunner claims points off a shared atomic counter
// with a small std::thread pool.
//
// Determinism contract: a point's result is a pure function of its
// (config, seed), so the threaded sweep is bit-identical to the serial loop
// per point — only wall-clock order changes. Callers must (a) give every
// job its own SimBackend and result slot (index into a pre-sized vector), and
// (b) aggregate in index order after run() returns. A SweepRunner with
// one thread executes the jobs inline in index order: that *is* the serial
// path, not an emulation of it. A throwing job fails the whole run the same
// way at any thread count: run() rethrows the lowest-index job's exception.
//
// Thread count: explicit argument, else the HPV_THREADS environment knob,
// else hardware_concurrency — clamped to the job count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace hyparview::harness {

class SweepRunner {
 public:
  /// threads == 0 → HPV_THREADS env var, else std::hardware_concurrency.
  explicit SweepRunner(std::size_t threads = 0);

  /// Threads run() will use for a sufficiently large job list.
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Executes every job; returns per-job wall-clock seconds (same indexing
  /// as `jobs`) for the per-point timing records in BENCH_*.json. Jobs must
  /// not share mutable state (see file comment). When a job throws,
  /// workers stop claiming jobs, the running ones finish, and the exception
  /// of the lowest-index thrower propagates.
  std::vector<double> run(const std::vector<std::function<void()>>& jobs) const;

 private:
  std::size_t threads_;
};

}  // namespace hyparview::harness
