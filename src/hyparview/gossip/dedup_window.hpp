// Fixed-capacity duplicate-suppression window.
//
// The gossip engine remembers the last W message ids per node to detect
// duplicate copies (§2.5 redundancy accounting). The previous implementation
// paired an unordered_set with a deque — two node-based heap structures that
// allocate per *message* on the dissemination hot path, forever. This window
// is a ring buffer (arrival order = eviction order) plus an open-addressing
// probe table for membership. Both grow geometrically up to the capacity
// bound and never beyond, so:
//
//   * memory is proportional to the ids actually seen (a node that never
//     receives gossip pays nothing — there are 10k instances at paper
//     scale, so an eagerly pre-sized window would dominate the harness's
//     cache footprint);
//   * once `capacity` distinct ids have been seen the structure has reached
//     its steady footprint and remember() never allocates again — the
//     invariant bench/micro_sim_events enforces in CI.
#pragma once

#include <cstdint>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/flat_hash.hpp"

namespace hyparview::gossip {

class DedupWindow {
 public:
  explicit DedupWindow(std::size_t capacity) : capacity_(capacity) {
    HPV_CHECK(capacity_ >= 1);
  }

  /// Records `id`; returns true if it was new (first sighting within the
  /// window). When the window is full the oldest id is evicted first.
  bool remember(std::uint64_t id) {
    // Single probe walk answers membership and inserts. The table briefly
    // holds capacity_+1 ids until the eviction below; its slab therefore
    // settles one growth step above slots_for(capacity_) and then never
    // grows again.
    if (!index_.try_insert(id, 0)) return false;
    if (count_ == capacity_) {
      // Full: the ring holds exactly capacity_ ids and head_ points at the
      // oldest — evict it and write the newcomer in its place.
      index_.erase(ring_[head_]);
      ring_[head_] = id;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    } else {
      // Filling up: plain append (head_ stays at the oldest entry, slot 0).
      ring_.push_back(id);
      ++count_;
    }
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.contains(id);
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Forgets everything; keeps all storage (no allocation on reuse).
  void clear() {
    index_.clear();
    ring_.clear();
    head_ = 0;
    count_ = 0;
  }

 private:
  std::size_t capacity_;
  /// FIFO of remembered ids; circular once count_ == capacity_.
  std::vector<std::uint64_t> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  /// Membership index over the ring contents (value unused). Ids come
  /// from a counter, so the window's ids sit in adjacent slots.
  FlatMap<std::uint64_t, std::uint8_t, SequentialIndex> index_;
};

}  // namespace hyparview::gossip
