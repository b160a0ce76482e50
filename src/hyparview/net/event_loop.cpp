#include "hyparview/net/event_loop.hpp"

#include <sys/epoll.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/logging.hpp"

namespace hyparview::net {
namespace {

constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();
constexpr Duration kMaxWait = milliseconds(100);

TimePoint monotonic_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimePoint>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
}

/// `timeout` after `now`, saturating: a spec may set a deadline or a
/// timer delay (in microseconds) up to the int64 limit.
TimePoint deadline_after(TimePoint now, Duration timeout) {
  return timeout > kNever - now ? kNever : now + timeout;
}

std::uint32_t epoll_mask(bool want_read, bool want_write) {
  std::uint32_t events = 0;
  if (want_read) events |= EPOLLIN;
  if (want_write) events |= EPOLLOUT;
  return events;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  HPV_CHECK_THROW(epoll_fd_.valid(), "epoll_create1 failed");
}

TimePoint EventLoop::now() const { return monotonic_now(); }

bool EventLoop::run_until(const std::function<bool()>& pred,
                          Duration timeout) {
  const TimePoint deadline = deadline_after(now(), timeout);
  while (!pred() && now() < deadline) {
    run_pre_poll();
    iterate(wait_ms(deadline));
  }
  run_pre_poll();
  return pred();
}

bool EventLoop::run_until_quiescent(Duration timeout,
                                    const std::function<bool()>& done) {
  const TimePoint deadline = deadline_after(now(), timeout);
  while (!(done && done())) {
    if (now() >= deadline) {
      run_pre_poll();
      return false;
    }
    run_pre_poll();
    if (iterate(0) > 0) continue;  // progress: look again before judging
    // Nothing was ready. A live timer due before the deadline is still to
    // come: sleep until it (an fd event wakes the loop sooner). Otherwise
    // ask the hooks; a busy one has bytes in flight that raise an event on
    // the receiving socket, so a 1 ms poll is enough to re-check.
    if (next_timer() < deadline) {
      iterate(wait_ms(deadline));
    } else if (std::all_of(pre_poll_.begin(), pre_poll_.end(),
                           [](const PrePollHook* h) { return h->idle(); })) {
      break;
    } else {
      iterate(1);
    }
  }
  run_pre_poll();
  return true;
}

std::size_t EventLoop::iterate(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms);
  if (n < 0 && errno != EINTR) {
    HPV_LOG_ERROR("epoll_wait failed: errno=%d", errno);
    return 0;
  }
  std::size_t ran = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // unregistered while queued
    ++ran;
    IoHandler* handler = it->second;
    const std::uint32_t mask = events[i].events;
    if ((mask & (EPOLLERR | EPOLLHUP)) != 0) {
      handler->on_io_error();
      continue;
    }
    if ((mask & EPOLLIN) != 0) {
      handler->on_readable();
      // The handler may unregister itself while reading.
      if (!handlers_.contains(fd)) continue;
    }
    if ((mask & EPOLLOUT) != 0) handler->on_writable();
  }
  return ran + fire_due_timers();
}

void EventLoop::run_pre_poll() {
  for (PrePollHook* hook : pre_poll_) hook->before_poll();
}

std::size_t EventLoop::fire_due_timers() {
  const TimePoint t = now();
  std::size_t fired = 0;
  while (!timers_.empty() && timers_.top().deadline <= t) {
    Timer timer = timers_.pop();
    if (live_timers_.erase(timer.id) == 0) continue;  // cancelled
    ++fired;
    if (timer.fn) timer.fn();
  }
  return fired;
}

TimePoint EventLoop::next_timer() {
  while (!timers_.empty() && !live_timers_.contains(timers_.top().id)) {
    timers_.pop();
  }
  return timers_.empty() ? kNever : timers_.top().deadline;
}

int EventLoop::wait_ms(TimePoint deadline) {
  const TimePoint until = std::min(deadline, next_timer());
  const TimePoint t = now();
  if (until <= t) return 0;
  // Round up, so a wait shorter than 1 ms sleeps instead of spinning.
  return static_cast<int>((std::min(until - t, kMaxWait) + 999) / 1000);
}

std::uint64_t EventLoop::schedule(Duration delay, TimerTask fn) {
  HPV_CHECK(delay >= 0);
  Timer timer;
  timer.deadline = deadline_after(now(), delay);
  timer.id = next_timer_id_++;
  timer.fn = std::move(fn);
  live_timers_.insert(timer.id);
  timers_.push(std::move(timer));
  return next_timer_id_ - 1;
}

void EventLoop::cancel(std::uint64_t timer_id) {
  live_timers_.erase(timer_id);
}

void EventLoop::register_fd(int fd, IoHandler* handler, bool want_read,
                            bool want_write) {
  HPV_CHECK(handler != nullptr);
  handlers_[fd] = handler;
  epoll_event ev{};
  ev.events = epoll_mask(want_read, want_write);
  ev.data.fd = fd;
  HPV_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) == 0);
}

void EventLoop::update_fd(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = epoll_mask(want_read, want_write);
  ev.data.fd = fd;
  HPV_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) == 0);
}

void EventLoop::unregister_fd(int fd) {
  handlers_.erase(fd);
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::add_pre_poll(PrePollHook* hook) {
  HPV_CHECK(hook != nullptr);
  pre_poll_.push_back(hook);
}

void EventLoop::remove_pre_poll(PrePollHook* hook) {
  std::erase(pre_poll_, hook);
}

}  // namespace hyparview::net
