#include "hyparview/harness/sweep_runner.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/options.hpp"

namespace hyparview::harness {

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

SweepRunner::SweepRunner(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) {
    const std::int64_t env = env_int("HPV_THREADS", 0);
    if (env > 0) {
      threads_ = static_cast<std::size_t>(env);
    } else {
      threads_ = std::thread::hardware_concurrency();
    }
  }
  if (threads_ == 0) threads_ = 1;
}

std::vector<double> SweepRunner::run(
    const std::vector<std::function<void()>>& jobs) const {
  std::vector<double> seconds(jobs.size(), 0.0);
  const std::size_t workers = std::min(threads_, jobs.size());
  if (workers <= 1) {
    // Serial reference path: inline, in index order; the first throw
    // propagates and no later job starts.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      jobs[i]();
      seconds[i] = wall_seconds_since(start);
    }
    return seconds;
  }

  // Work stealing off one atomic counter: long points (high failure
  // fractions take longer to drain) do not convoy short ones. Jobs are
  // claimed in index order, so when job i throws every job below i is
  // already claimed and runs to the end; workers stop claiming after a
  // throw, and the lowest-index exception is the one the serial path would
  // have thrown.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(jobs.size());
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      const auto start = std::chrono::steady_clock::now();
      try {
        jobs[i]();
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      seconds[i] = wall_seconds_since(start);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 0; t + 1 < workers; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is the last worker
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return seconds;
}

}  // namespace hyparview::harness
