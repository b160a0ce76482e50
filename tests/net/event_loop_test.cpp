#include "hyparview/net/event_loop.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

namespace hyparview::net {
namespace {

TEST(EventLoopTest, RunUntilPredicateImmediatelyTrue) {
  EventLoop loop;
  EXPECT_TRUE(loop.run_until([] { return true; }, seconds(1)));
}

TEST(EventLoopTest, RunUntilTimesOut) {
  EventLoop loop;
  const TimePoint start = loop.now();
  EXPECT_FALSE(loop.run_until([] { return false; }, milliseconds(50)));
  EXPECT_GE(loop.now() - start, milliseconds(45));
}

TEST(EventLoopTest, TimerFires) {
  EventLoop loop;
  bool fired = false;
  loop.schedule(milliseconds(10), [&] { fired = true; });
  EXPECT_TRUE(loop.run_until([&] { return fired; }, seconds(2)));
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(milliseconds(30), [&] { order.push_back(3); });
  loop.schedule(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule(milliseconds(20), [&] { order.push_back(2); });
  EXPECT_TRUE(loop.run_until([&] { return order.size() == 3; }, seconds(2)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, CancelledTimerDoesNotFire) {
  EventLoop loop;
  bool fired = false;
  const auto id = loop.schedule(milliseconds(10), [&] { fired = true; });
  loop.cancel(id);
  loop.run_until([] { return false; }, milliseconds(60));
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, ZeroDelayTimerRunsPromptly) {
  EventLoop loop;
  bool fired = false;
  loop.schedule(0, [&] { fired = true; });
  EXPECT_TRUE(loop.run_until([&] { return fired; }, seconds(1)));
}

TEST(EventLoopTest, TimerMayScheduleAnotherTimer) {
  EventLoop loop;
  int stage = 0;
  loop.schedule(milliseconds(5), [&] {
    stage = 1;
    loop.schedule(milliseconds(5), [&] { stage = 2; });
  });
  EXPECT_TRUE(loop.run_until([&] { return stage == 2; }, seconds(2)));
}

TEST(EventLoopTest, NowIsMonotonic) {
  EventLoop loop;
  const TimePoint a = loop.now();
  const TimePoint b = loop.now();
  EXPECT_LE(a, b);
}

TEST(EventLoopTest, ManyTimersAllFire) {
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    loop.schedule(milliseconds(1 + i % 10), [&] { ++fired; });
  }
  EXPECT_TRUE(loop.run_until([&] { return fired == 100; }, seconds(5)));
}

/// Counts its runs; optionally runs `action` on each. Reports `idle`.
class CountingHook final : public PrePollHook {
 public:
  void before_poll() override {
    ++runs;
    if (action) action();
  }
  [[nodiscard]] bool idle() const override { return quiet; }
  int runs = 0;
  bool quiet = true;
  std::function<void()> action;
};

TEST(EventLoopTest, PrePollHookRunsBeforeRunUntilReturns) {
  EventLoop loop;
  CountingHook hook;
  loop.add_pre_poll(&hook);
  EXPECT_TRUE(loop.run_until([] { return true; }, seconds(1)));
  EXPECT_EQ(hook.runs, 1) << "the exit pass runs even with no poll";

  // Work a timer defers is taken up before control returns to the caller.
  bool deferred = false;
  bool flushed = false;
  hook.action = [&] {
    if (deferred) flushed = true;
  };
  loop.schedule(milliseconds(5), [&] { deferred = true; });
  EXPECT_TRUE(loop.run_until([&] { return deferred; }, seconds(2)));
  EXPECT_TRUE(flushed);
  loop.remove_pre_poll(&hook);
}

TEST(EventLoopTest, PrePollHookRunsBeforeEachPoll) {
  EventLoop loop;
  CountingHook hook;
  loop.add_pre_poll(&hook);
  int fired = 0;
  for (int i = 1; i <= 3; ++i) {
    loop.schedule(milliseconds(5 * i), [&] { ++fired; });
  }
  EXPECT_TRUE(loop.run_until([&] { return fired == 3; }, seconds(2)));
  EXPECT_GE(hook.runs, 4);  // one poll per timer, then the exit pass
  loop.remove_pre_poll(&hook);

  const int before = hook.runs;
  loop.run_until([] { return true; }, seconds(1));
  EXPECT_EQ(hook.runs, before) << "a removed hook never runs again";
}

TEST(EventLoopTest, DrainWaitsForLiveTimerDueBeforeDeadline) {
  EventLoop loop;
  bool fired = false;
  bool late_fired = false;
  loop.schedule(milliseconds(30), [&] { fired = true; });
  loop.schedule(seconds(60), [&] { late_fired = true; });
  const TimePoint start = loop.now();
  EXPECT_TRUE(loop.run_until_quiescent(seconds(5)));
  EXPECT_TRUE(fired) << "a timer due before the deadline holds the drain";
  EXPECT_GE(loop.now() - start, milliseconds(30));
  // The timer due after the deadline neither holds the drain nor fires.
  EXPECT_FALSE(late_fired);
  EXPECT_LT(loop.now() - start, seconds(4));
}

TEST(EventLoopTest, CancelledTimerDoesNotHoldDrain) {
  EventLoop loop;
  bool fired = false;
  loop.cancel(loop.schedule(seconds(2), [&] { fired = true; }));
  const TimePoint start = loop.now();
  EXPECT_TRUE(loop.run_until_quiescent(seconds(5)));
  EXPECT_LT(loop.now() - start, seconds(1));
  EXPECT_FALSE(fired);
  // A deadline at the int64 limit (the largest a spec can set) saturates
  // instead of wrapping into the past.
  EXPECT_TRUE(loop.run_until_quiescent(std::numeric_limits<Duration>::max()));
}

TEST(EventLoopTest, BusyHookHoldsDrainUntilDeadline) {
  EventLoop loop;
  CountingHook hook;
  hook.quiet = false;
  loop.add_pre_poll(&hook);
  const TimePoint start = loop.now();
  EXPECT_FALSE(loop.run_until_quiescent(milliseconds(60)));
  EXPECT_GE(loop.now() - start, milliseconds(60));
  EXPECT_GT(hook.runs, 1) << "the drain keeps polling while the hook is busy";

  // `done` ends a drain the hook would otherwise hold until its deadline.
  const int before = hook.runs;
  const TimePoint again = loop.now();
  EXPECT_TRUE(loop.run_until_quiescent(
      seconds(5), [&] { return hook.runs >= before + 3; }));
  EXPECT_LT(loop.now() - again, seconds(4));
  loop.remove_pre_poll(&hook);
}

}  // namespace
}  // namespace hyparview::net
