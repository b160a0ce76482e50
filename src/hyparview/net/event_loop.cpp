#include "hyparview/net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>

#include <cerrno>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/logging.hpp"

namespace hyparview::net {
namespace {

thread_local const void* t_current_loop = nullptr;

TimePoint monotonic_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimePoint>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
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
  wake_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  HPV_CHECK_THROW(wake_fd_.valid(), "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  HPV_CHECK(::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) ==
            0);
}

EventLoop::~EventLoop() = default;

TimePoint EventLoop::now() const { return monotonic_now(); }

bool EventLoop::in_loop_thread() const {
  return loop_thread_.load(std::memory_order_relaxed) == &t_current_loop ||
         loop_thread_.load(std::memory_order_relaxed) == nullptr;
}

void EventLoop::run() {
  loop_thread_.store(&t_current_loop, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_relaxed)) {
    run_pre_poll();
    iterate(next_timeout_ms());
  }
  loop_thread_.store(nullptr, std::memory_order_relaxed);
}

bool EventLoop::run_until(const std::function<bool()>& pred,
                          Duration timeout) {
  loop_thread_.store(&t_current_loop, std::memory_order_relaxed);
  const TimePoint deadline = now() + timeout;
  while (!pred() && now() < deadline) {
    run_pre_poll();
    int wait_ms = next_timeout_ms();
    const auto remaining_ms = static_cast<int>((deadline - now()) / 1000);
    if (wait_ms < 0 || wait_ms > remaining_ms) wait_ms = remaining_ms;
    iterate(wait_ms < 1 ? 1 : wait_ms);
  }
  run_pre_poll();
  loop_thread_.store(nullptr, std::memory_order_relaxed);
  return pred();
}

void EventLoop::iterate(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_.get(), events, 64, timeout_ms);
  if (n < 0 && errno != EINTR) {
    HPV_LOG_ERROR("epoll_wait failed: errno=%d", errno);
    return;
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_.get()) {
      std::uint64_t value = 0;
      // Drain the eventfd counter; posted tasks run below.
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_.get(), &value, sizeof(value));
      continue;
    }
    const auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // unregistered while queued
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
  drain_posted();
  fire_due_timers();
}

void EventLoop::run_pre_poll() {
  for (PrePollHook* hook : pre_poll_) hook->before_poll();
}

void EventLoop::drain_posted() {
  std::vector<std::function<void()>> tasks;
  {
    const std::lock_guard<std::mutex> lock(posted_mutex_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EventLoop::fire_due_timers() {
  const TimePoint t = now();
  while (!timers_.empty() && timers_.top().deadline <= t) {
    Timer timer = timers_.pop();
    const auto it = timer_alive_.find(timer.id);
    const bool alive = it != timer_alive_.end() && it->second;
    timer_alive_.erase(timer.id);
    if (alive && timer.fn) timer.fn();
  }
}

int EventLoop::next_timeout_ms() const {
  if (timers_.empty()) return 100;  // wake periodically for stop()/posted
  const Duration delta = timers_.top().deadline - now();
  if (delta <= 0) return 0;
  const Duration ms = delta / 1000;
  return ms > 100 ? 100 : static_cast<int>(ms) + 1;
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_relaxed);
  post([] {});  // wake
}

void EventLoop::post(std::function<void()> fn) {
  {
    const std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

std::uint64_t EventLoop::schedule(Duration delay, TimerTask fn) {
  HPV_CHECK(delay >= 0);
  Timer timer;
  timer.deadline = now() + delay;
  timer.id = next_timer_id_++;
  timer.fn = std::move(fn);
  timer_alive_[timer.id] = true;
  timers_.push(std::move(timer));
  return next_timer_id_ - 1;
}

void EventLoop::cancel(std::uint64_t timer_id) {
  const auto it = timer_alive_.find(timer_id);
  if (it != timer_alive_.end()) it->second = false;
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
