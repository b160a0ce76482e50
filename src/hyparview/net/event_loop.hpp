// Single-threaded epoll event loop with a timer heap and cross-thread task
// posting. All protocol code on the TCP backend runs on the loop thread,
// which keeps the protocol implementations lock-free (the same property the
// simulator gives them).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "hyparview/common/function.hpp"
#include "hyparview/common/time.hpp"
#include "hyparview/net/fd.hpp"
#include "hyparview/sim/min_heap.hpp"

namespace hyparview::net {

/// Timer callback storage. Allocation-free like membership::TaskCallback but
/// with headroom to absorb a wrapped ConnectCallback (TcpTransport defers
/// connect completions through 0-delay timers).
using TimerTask = InplaceFunction<void(), 96>;

/// Callbacks for a registered file descriptor.
class IoHandler {
 public:
  virtual ~IoHandler() = default;
  virtual void on_readable() = 0;
  virtual void on_writable() = 0;
  /// EPOLLERR / EPOLLHUP. Default: treat as readable so the read path sees
  /// the error from the syscall.
  virtual void on_io_error() { on_readable(); }
};

/// Work deferred to just before the loop blocks. TcpTransport flushes the
/// frames each connection gathered during one loop iteration here, so one
/// send() carries them all.
class PrePollHook {
 public:
  virtual ~PrePollHook() = default;
  virtual void before_poll() = 0;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs until stop(). Must be called from exactly one thread.
  void run();

  /// Runs pending work until `pred` returns true or `timeout` elapses.
  /// Returns pred(). For tests and single-threaded drivers. The pre-poll
  /// hooks run once more before it returns, so work they defer (unsent
  /// frames) never outlives the call.
  bool run_until(const std::function<bool()>& pred, Duration timeout);

  /// Thread-safe: wakes the loop and stops run().
  void stop();

  /// Thread-safe: enqueues fn to execute on the loop thread.
  void post(std::function<void()> fn);

  /// Loop thread only: one-shot timer. Returns an id usable with cancel().
  std::uint64_t schedule(Duration delay, TimerTask fn);
  void cancel(std::uint64_t timer_id);

  /// Loop thread only.
  void register_fd(int fd, IoHandler* handler, bool want_read,
                   bool want_write);
  void update_fd(int fd, bool want_read, bool want_write);
  void unregister_fd(int fd);

  /// Loop thread only: `hook` runs before every epoll_wait, in registration
  /// order. Remove it before destroying it. A running hook must not add or
  /// remove hooks.
  void add_pre_poll(PrePollHook* hook);
  void remove_pre_poll(PrePollHook* hook);

  /// Monotonic clock in microseconds.
  [[nodiscard]] TimePoint now() const;

  [[nodiscard]] bool in_loop_thread() const;

 private:
  struct Timer {
    TimePoint deadline = 0;
    std::uint64_t id = 0;
    TimerTask fn;
  };
  struct TimerLess {
    bool operator()(const Timer& a, const Timer& b) const {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.id < b.id;
    }
  };

  void iterate(int timeout_ms);
  void run_pre_poll();
  void drain_posted();
  void fire_due_timers();
  [[nodiscard]] int next_timeout_ms() const;

  Fd epoll_fd_;
  Fd wake_fd_;  // eventfd
  std::atomic<bool> stop_{false};
  std::atomic<const void*> loop_thread_{nullptr};

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;

  sim::MinHeap<Timer, TimerLess> timers_;
  std::uint64_t next_timer_id_ = 1;
  std::unordered_map<std::uint64_t, bool> timer_alive_;

  std::unordered_map<int, IoHandler*> handlers_;
  std::vector<PrePollHook*> pre_poll_;
};

}  // namespace hyparview::net
