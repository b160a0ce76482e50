// Fixed-capacity duplicate-suppression window, optionally with a payload
// cache over a second horizon.
//
// The gossip engines remember the last W message ids per node to detect
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
//   * once the ring has filled, the structure has reached its steady
//     footprint and remember() never allocates again — the invariant
//     bench/micro_sim_events enforces in CI.
//
// DedupWindow<> keeps ids only: the eager engine's window, a 16-byte probe
// slot per id. DedupWindow<V> also keeps a V per id and answers two
// questions over two horizons, counted in first deliveries:
//
//   * seen(id)   — delivered within the last `dedup_window` first
//                  deliveries (duplicate suppression);
//   * cached(id) — delivered within the last `cache_window` (Plumtree's
//                  Graft answers read the cached V).
//
// One ring of max(dedup_window, cache_window) ids and one probe table serve
// both: each slot stamps its id's latest first delivery with a 32-bit
// arrival number, and both questions compare that stamp with the current
// count. This equals a separate dedup window plus a separate cache whenever
// an id is first-delivered at most once within the larger horizon. When an
// id is delivered again after leaving a smaller dedup window while still
// cached, the delivery refreshes its value and stamp; the ring then holds
// the id twice, and evicting the older copy leaves the slot in place.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/flat_hash.hpp"

namespace hyparview::gossip {

/// Value type of a window that keeps ids only.
struct NoValue {};

template <typename Value = NoValue>
class DedupWindow {
  static constexpr bool kCaching = !std::is_same_v<Value, NoValue>;

 public:
  /// Largest horizon, in ids: arrival stamps are 32-bit counts compared by
  /// wrapping difference, and a ring this long is already 128 MB per node.
  static constexpr std::size_t kMaxWindow = std::size_t{1} << 24;

  /// Ids only: remembers the last `dedup_window` first deliveries.
  explicit DedupWindow(std::size_t dedup_window)
    requires(!kCaching)
      : dedup_window_(dedup_window), cache_window_(0), length_(dedup_window) {
    HPV_CHECK(dedup_window_ >= 1 && dedup_window_ <= kMaxWindow);
  }

  /// Ids with a value: seen() spans the last `dedup_window` first
  /// deliveries, cached() the last `cache_window`.
  DedupWindow(std::size_t dedup_window, std::size_t cache_window)
    requires kCaching
      : dedup_window_(dedup_window),
        cache_window_(cache_window),
        length_(std::max(dedup_window, cache_window)) {
    HPV_CHECK(dedup_window_ >= 1 && dedup_window_ <= kMaxWindow);
    HPV_CHECK(cache_window_ >= 1 && cache_window_ <= kMaxWindow);
  }

  /// Records `id`; returns true if it was new (first sighting within the
  /// window). When the window is full the oldest id is evicted first.
  bool remember(std::uint64_t id)
    requires(!kCaching)
  {
    // Single probe walk answers membership and inserts. The table briefly
    // holds the ring's length + 1 ids until the eviction below; its slab
    // therefore settles one growth step above slots_for(length) and then
    // never grows again.
    if (!index_.try_insert(id, 0)) return false;
    append(id);
    return true;
  }

  /// Records a first delivery of `id` carrying `value`; returns false for a
  /// duplicate (seen() was true, nothing changes). A delivery outside the
  /// dedup horizon of an id still cached refreshes its value and stamp.
  bool remember(std::uint64_t id, const Value& value)
    requires kCaching
  {
    const auto [slot, inserted] = index_.find_or_insert(id);
    if (!inserted && within(*slot, dedup_window_)) return false;
    slot->value = value;
    slot->arrival = arrivals_;
    append(id);  // may erase from the table: `slot` dies here
    return true;
  }

  /// True if `id` was first-delivered within the dedup horizon.
  [[nodiscard]] bool seen(std::uint64_t id) const {
    if constexpr (kCaching) {
      const Slot* slot = index_.find(id);
      return slot != nullptr && within(*slot, dedup_window_);
    } else {
      return index_.contains(id);
    }
  }

  /// The value of `id`'s latest first delivery, if that lies within the
  /// cache horizon; nullptr otherwise. Valid until the next remember().
  [[nodiscard]] const Value* cached(std::uint64_t id) const
    requires kCaching
  {
    const Slot* slot = index_.find(id);
    return slot != nullptr && within(*slot, cache_window_) ? &slot->value
                                                           : nullptr;
  }

  /// Distinct ids held (at most the ring's length).
  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// Bytes held by the ring and the probe table (memory accounting).
  [[nodiscard]] std::size_t storage_bytes() const {
    return ring_.capacity() * sizeof(std::uint64_t) + index_.storage_bytes();
  }

  /// Forgets everything; keeps all storage (no allocation on reuse).
  void clear() {
    index_.clear();
    ring_.clear();
    head_ = 0;
    arrivals_ = 0;
  }

 private:
  /// A cached id's value and the arrival number of its latest first
  /// delivery.
  struct Stamped {
    Value value{};
    std::uint32_t arrival = 0;
  };
  using Slot = std::conditional_t<kCaching, Stamped, std::uint8_t>;

  /// The slot's latest first delivery is among the last `horizon`. Stamps
  /// stay in the table for at most length_ arrivals, so the wrapping
  /// difference is exact.
  [[nodiscard]] bool within(const Stamped& slot, std::size_t horizon) const {
    return static_cast<std::uint32_t>(arrivals_ - slot.arrival) <= horizon;
  }

  /// Writes `id` at the ring's next position. Once the ring is full that
  /// position holds the id first-delivered length_ arrivals ago; its slot
  /// goes unless a later delivery refreshed it.
  void append(std::uint64_t id) {
    if (ring_.size() < length_) {
      // Filling up: grow geometrically, but never past the ring's length.
      if (ring_.size() == ring_.capacity()) {
        ring_.reserve(std::min(length_, std::max<std::size_t>(
                                            16, 2 * ring_.capacity())));
      }
      ring_.push_back(id);
    } else {
      const std::uint64_t old = ring_[head_];
      if constexpr (kCaching) {
        // The evicted copy was stamped arrivals_ - length_; a refreshed id
        // carries a later stamp and keeps its slot.
        if (index_.find(old)->arrival ==
            static_cast<std::uint32_t>(arrivals_ - length_)) {
          index_.erase(old);
        }
      } else {
        index_.erase(old);
      }
      ring_[head_] = id;
      head_ = head_ + 1 == length_ ? 0 : head_ + 1;
    }
    ++arrivals_;
  }

  std::size_t dedup_window_;
  std::size_t cache_window_;  ///< 0 when keeping ids only
  std::size_t length_;  ///< ring length: the larger horizon
  /// Ids in first-delivery order; circular once full, head_ the oldest.
  std::vector<std::uint64_t> ring_;
  std::size_t head_ = 0;
  /// First deliveries so far (wrapping): the next arrival stamp.
  std::uint32_t arrivals_ = 0;
  /// Ids held, each with its stamp and value when caching. Ids come from a
  /// counter, so the window's ids sit in adjacent slots.
  FlatMap<std::uint64_t, Slot, SequentialIndex> index_;
};

}  // namespace hyparview::gossip
