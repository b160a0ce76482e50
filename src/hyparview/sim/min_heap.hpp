// Binary min-heap with move-aware pop.
//
// std::priority_queue cannot move elements out of top(); timer payloads
// (task closures) make that copy expensive, so net::EventLoop uses this
// small heap instead. The simulator schedules on calendar_queue.hpp, and
// the tests use this heap as its ordering oracle.
#pragma once

#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"

namespace hyparview::sim {

template <typename T, typename Less>
class MinHeap {
 public:
  explicit MinHeap(Less less = Less{}) : less_(std::move(less)) {}

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  void push(T item) {
    items_.push_back(std::move(item));
    sift_up(items_.size() - 1);
  }

  [[nodiscard]] const T& top() const {
    HPV_ASSERT(!items_.empty());
    return items_.front();
  }

  /// Removes and returns the minimum element.
  T pop() {
    HPV_ASSERT(!items_.empty());
    T out = std::move(items_.front());
    // With one element, front() and back() alias: the hole-filling move
    // below would be a self-move-assignment, which non-trivial Ts (the
    // EventLoop's TimerTask closures, test payloads) are allowed to
    // clobber on. Skip straight to the shrink instead.
    if (items_.size() > 1) {
      items_.front() = std::move(items_.back());
      items_.pop_back();
      sift_down(0);
    } else {
      items_.pop_back();
    }
    return out;
  }

  void clear() { items_.clear(); }

 private:
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less_(items_[i], items_[parent])) break;
      using std::swap;
      swap(items_[i], items_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = items_.size();
    while (true) {
      const std::size_t left = 2 * i + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = i;
      if (left < n && less_(items_[left], items_[smallest])) smallest = left;
      if (right < n && less_(items_[right], items_[smallest])) smallest = right;
      if (smallest == i) break;
      using std::swap;
      swap(items_[i], items_[smallest]);
      i = smallest;
    }
  }

  std::vector<T> items_;
  Less less_;
};

}  // namespace hyparview::sim
