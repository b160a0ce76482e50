// Free-list slot pool for event payloads.
//
// The simulator's event queue sifts a small POD; the fat payloads (wire
// messages, callbacks) live here, addressed by a 32-bit slot index. Released
// slots are recycled LIFO, so a steady-state workload (broadcast storms,
// timer chains) reuses the same few slots and never touches the allocator —
// the slab only grows while the number of *in-flight* payloads grows.
//
// A released slot keeps its moved-from value until reuse; `put` assigns over
// it. For types whose moved-from state owns no resources (wire::Message
// list frames, InplaceFunction) recycling is therefore allocation-free.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"

namespace hyparview::sim {

/// Sentinel for "event carries no payload".
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

template <typename T>
class SlotPool {
 public:
  /// Stores `value`, reusing a free slot when available. Returns its index.
  std::uint32_t put(T value) {
    const std::uint32_t index = alloc();
    slots_[index] = std::move(value);
    return index;
  }

  /// Reserves a slot WITHOUT assigning it: the caller writes the payload in
  /// place via operator[]. This matters for large variant payloads — a
  /// whole-object assignment of a trivially copyable variant copies its
  /// full storage, while an in-place `emplace` of the active alternative
  /// copies only the bytes that mean something (see Simulator::put_message).
  [[nodiscard]] std::uint32_t alloc() {
    if (free_.empty()) {
      const auto index = static_cast<std::uint32_t>(slots_.size());
      HPV_ASSERT(index != kNoSlot);
      slots_.emplace_back();
      return index;
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }

  /// Moves the payload out and releases the slot.
  [[nodiscard]] T take(std::uint32_t index) {
    HPV_ASSERT(index < slots_.size());
    T out = std::move(slots_[index]);
    free_.push_back(index);
    return out;
  }

  /// Releases the slot without moving the payload out (dropped events).
  ///
  /// CONTRACT: the slot's contents stay intact until the next put()/alloc()
  /// — release only pushes the index onto the free list, it must never
  /// poison or destroy the payload. Simulator::take_message relies on this
  /// to release *before* copying the payload out (keeping the copy a
  /// prvalue return, which measured ~25% faster on the membership frame
  /// path than a named local whose NRVO the compiler declined). If you add
  /// debug poisoning or eager destruction here, fix that caller first.
  void release(std::uint32_t index) {
    HPV_ASSERT(index < slots_.size());
    free_.push_back(index);
  }

  [[nodiscard]] T& operator[](std::uint32_t index) {
    HPV_ASSERT(index < slots_.size());
    return slots_[index];
  }

  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

  /// Slab size (high-water mark of concurrently live payloads).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  [[nodiscard]] std::size_t in_use() const {
    return slots_.size() - free_.size();
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace hyparview::sim
