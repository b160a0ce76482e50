// Single-threaded epoll event loop with a timer heap. One thread drives it
// (run_until, run_until_quiescent) and owns everything registered on it;
// nothing here is thread-safe. All protocol code on the TCP backend runs on
// that thread, which keeps the protocol implementations lock-free (the same
// property the simulator gives them). Every socket of an in-process cluster
// lives on one loop, so the loop can tell when nothing is in flight:
// run_until_quiescent is the counterpart of the simulator's drained queue.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
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
  /// False while the hook has work in flight that no poll would report.
  /// run_until_quiescent asks only after a zero-timeout poll found
  /// nothing, so this may cost a system call per socket.
  [[nodiscard]] virtual bool idle() const = 0;
};

class EventLoop {
 public:
  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs pending work until `pred` returns true or `timeout` elapses.
  /// Returns pred(). The pre-poll hooks run once more before it returns,
  /// so work they defer (unsent frames) never outlives the call.
  bool run_until(const std::function<bool()>& pred, Duration timeout);

  /// Runs pending work until `done` (when given) returns true, `timeout`
  /// elapses, or the loop is quiescent: an epoll_wait with timeout 0
  /// dispatches nothing and fires no timer, every pre-poll hook reports
  /// idle(), and no live timer is due before the deadline. Returns false
  /// only when the deadline ended it. Timers due after the deadline neither
  /// hold the drain nor fire. The pre-poll hooks run once more before it
  /// returns, as in run_until.
  bool run_until_quiescent(Duration timeout,
                           const std::function<bool()>& done = nullptr);

  /// One-shot timer. Returns an id usable with cancel().
  std::uint64_t schedule(Duration delay, TimerTask fn);
  /// A cancelled timer never fires; an unknown or fired id is a no-op.
  void cancel(std::uint64_t timer_id);

  void register_fd(int fd, IoHandler* handler, bool want_read,
                   bool want_write);
  void update_fd(int fd, bool want_read, bool want_write);
  void unregister_fd(int fd);

  /// `hook` runs before every epoll_wait, in registration order. Remove it
  /// before destroying it. A running hook must not add or remove hooks.
  void add_pre_poll(PrePollHook* hook);
  void remove_pre_poll(PrePollHook* hook);

  /// Monotonic clock in microseconds.
  [[nodiscard]] TimePoint now() const;

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

  /// One epoll_wait of at most `timeout_ms`, then the due timers. Returns
  /// how many handlers and timers ran.
  std::size_t iterate(int timeout_ms);
  void run_pre_poll();
  std::size_t fire_due_timers();
  /// Deadline of the earliest live timer (cancelled ones on top of the
  /// heap are dropped), or the largest TimePoint when there is none.
  TimePoint next_timer();
  /// epoll_wait timeout up to the next live timer or `deadline`, whichever
  /// comes first, and at most 100 ms: a predicate may read state another
  /// thread sets, and no event would wake the loop for it.
  int wait_ms(TimePoint deadline);

  Fd epoll_fd_;

  sim::MinHeap<Timer, TimerLess> timers_;
  std::uint64_t next_timer_id_ = 1;
  /// Ids of the scheduled timers that are neither fired nor cancelled.
  std::unordered_set<std::uint64_t> live_timers_;

  std::unordered_map<int, IoHandler*> handlers_;
  std::vector<PrePollHook*> pre_poll_;
};

}  // namespace hyparview::net
