#include "hyparview/harness/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/harness/sim_backend.hpp"

namespace hyparview::harness {
namespace {

TEST(SweepRunnerTest, ResolvesAtLeastOneThread) {
  const SweepRunner runner;
  EXPECT_GE(runner.threads(), 1u);
  const SweepRunner four(4);
  EXPECT_EQ(four.threads(), 4u);
}

TEST(SweepRunnerTest, RunsEveryJobExactlyOnce) {
  constexpr std::size_t kJobs = 23;
  std::vector<std::atomic<int>> runs(kJobs);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back([&runs, i] { ++runs[i]; });
  }
  const SweepRunner runner(4);
  const std::vector<double> seconds = runner.run(jobs);
  ASSERT_EQ(seconds.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
    EXPECT_GE(seconds[i], 0.0);
  }
}

TEST(SweepRunnerTest, SingleThreadRunsInline) {
  // threads == 1 is the serial reference path: jobs execute on the calling
  // thread, in index order.
  std::vector<std::size_t> order;
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    jobs.push_back([&order, i] { order.push_back(i); });
  }
  SweepRunner(1).run(jobs);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(SweepRunnerTest, EmptyJobListIsFine) {
  EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunnerTest, ThrowingJobsRethrowTheLowestIndexAtAnyThreadCount) {
  // A throw inside a pool thread must not reach std::terminate: every
  // worker is joined, then the lowest-index thrower's exception propagates
  // — the one the serial path meets first.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    constexpr std::size_t kJobs = 16;
    std::vector<std::atomic<int>> runs(kJobs);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
      jobs.push_back([&runs, i] {
        ++runs[i];
        if (i == 5 || i == 9) throw CheckError("job " + std::to_string(i));
      });
    }
    try {
      (void)SweepRunner(threads).run(jobs);
      FAIL() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_STREQ(e.what(), "job 5");
    }
    // Jobs are claimed in index order, so everything below the first
    // thrower ran, exactly once.
    for (std::size_t i = 0; i <= 5; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
    for (std::size_t i = 6; i < kJobs; ++i) EXPECT_LE(runs[i].load(), 1) << i;
  }
}

/// The determinism contract behind the threaded figure sweeps: each point is
/// a pure function of (config, seed), so the threaded fan-out must produce
/// bit-identical per-point results to the serial loop.
TEST(SweepRunnerTest, ThreadedNetworkSweepBitIdenticalToSerial) {
  struct Point {
    ProtocolKind kind;
    double fraction;
    std::uint64_t seed;
  };
  std::vector<Point> points;
  for (const auto kind : {ProtocolKind::kHyParView, ProtocolKind::kCyclon}) {
    for (const double fraction : {0.2, 0.5}) {
      for (const std::uint64_t seed : {3ull, 11ull}) {
        points.push_back({kind, fraction, seed});
      }
    }
  }

  const auto sweep = [&](std::size_t threads) {
    // One result slot per point; each job owns its SimBackend.
    std::vector<std::vector<double>> results(points.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < points.size(); ++i) {
      jobs.push_back([&, i] {
        const Point& p = points[i];
        auto cfg = NetworkConfig::defaults_for(p.kind, 48, p.seed);
        SimBackend net(cfg);
        net.build();
        net.run_cycles(5);
        net.fail_random_fraction(p.fraction);
        std::vector<double>& out = results[i];
        for (int m = 0; m < 5; ++m) {
          out.push_back(net.broadcast_one().reliability());
        }
        out.push_back(static_cast<double>(net.simulator().messages_sent()));
        out.push_back(static_cast<double>(net.simulator().bytes_sent()));
        out.push_back(
            static_cast<double>(net.simulator().events_processed()));
      });
    }
    SweepRunner(threads).run(jobs);
    return results;
  };

  const auto serial = sweep(1);
  const auto threaded = sweep(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "point " << i;
  }
}

}  // namespace
}  // namespace hyparview::harness
