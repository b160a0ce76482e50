// Open-addressing hash map for the simulation hot paths.
//
// The standard-library node-based containers allocate per element and chase
// a pointer per lookup; the three hottest lookup structures in the harness
// (the simulator's per-node link tables, the gossip dedup window and the
// broadcast recorder's message index) want neither. FlatMap keeps
// {key, occupied, value} triples in one contiguous power-of-two slab with
// linear probing and backward-shift deletion, so:
//
//   * find/insert/erase touch one cache line in the common case;
//   * erase leaves no tombstones — probe chains never degrade over the
//     lifetime of a long simulation;
//   * reserve() pre-sizes the slab, after which no operation allocates
//     until the size exceeds the reserved capacity (the zero-allocation
//     steady state bench/micro_sim_events enforces in CI).
//
// Keys are unsigned integers (node indices, message ids). Values must be
// trivially copyable-ish (they are moved on rehash and slid on erase).
//
// The index function — key to home slot — is a type parameter. MixIndex,
// the default, scrambles every key bit into the slot; SequentialIndex keeps
// counter-assigned ids (the harness numbers broadcasts 1, 2, 3, ...) in
// adjacent slots, so a window of recent ids fills a few contiguous cache
// lines instead of one line per id. No FlatMap is ever iterated, so the
// choice moves only memory traffic, never a result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"

namespace hyparview {

/// Default FlatMap index: a 64-bit finalizer (murmur3/splitmix style), so
/// keys whose low bits carry little entropy still spread over the whole
/// table. NodeId::raw() keys need it: their low 16 bits are the port, which
/// is 0 for every simulated node.
struct MixIndex {
  [[nodiscard]] static std::uint64_t of(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }
};

/// Message-id index: the low bits, with the high 32 bits folded in.
/// Consecutive ids from one counter land in consecutive slots, and ids
/// shaped as `publisher << 32 | seq` still spread across publishers.
struct SequentialIndex {
  [[nodiscard]] static std::uint64_t of(std::uint64_t x) {
    return x ^ (x >> 32);
  }
};

template <typename Key, typename Value, typename Index = MixIndex>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned integers");

 public:
  FlatMap() = default;

  /// Pre-sizes the slab for at least `n` entries without rehashing.
  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    rehash(slots_for(n));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Bytes the slab holds (memory accounting).
  [[nodiscard]] std::size_t storage_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// Entries insertable before the next rehash.
  [[nodiscard]] std::size_t capacity() const {
    // Max load factor 7/8: linear probe chains stay short and the growth
    // check below is a shift+compare.
    return slots_.empty() ? 0 : slots_.size() - slots_.size() / 8;
  }

  [[nodiscard]] Value* find(Key key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = index_of(key);; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  [[nodiscard]] const Value* find(Key key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  /// Finds `key`, inserting it with a default value when absent: one probe
  /// walk answers the membership test and finds the insertion point (the
  /// hot-path shape of DedupWindow::remember). Returns the value's address,
  /// valid until the next insert or erase, and whether the key was
  /// inserted.
  std::pair<Value*, bool> find_or_insert(Key key) {
    if (size_ + 1 > capacity()) rehash(slots_.empty() ? 16 : slots_.size() * 2);
    const std::size_t home = index_of(key);
    for (std::size_t i = home;; i = next(i)) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        ++size_;
        note_displacement(home, i);
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }

  /// Inserts key → value only if the key is absent. Returns true if
  /// inserted.
  bool try_insert(Key key, Value value) {
    const auto [slot, inserted] = find_or_insert(key);
    if (inserted) *slot = std::move(value);
    return inserted;
  }

  /// Inserts key → value; overwrites the value if the key exists.
  /// Returns a reference valid until the next insert/erase.
  Value& insert(Key key, Value value) {
    Value& slot = *find_or_insert(key).first;
    slot = std::move(value);
    return slot;
  }

  /// Removes the key if present (backward-shift: no tombstones).
  bool erase(Key key) {
    if (slots_.empty()) return false;
    std::size_t i = index_of(key);
    while (true) {
      if (!slots_[i].used) return false;
      if (slots_[i].key == key) break;
      i = next(i);
    }
    // Slide the rest of the probe chain back over the hole so every
    // surviving entry stays reachable from its home slot. An entry more
    // than max_displacement_ past the hole sits at most that far from its
    // home, so its home lies after the hole and it stays put — and so does
    // everything beyond it. Stopping there matters for SequentialIndex: a
    // window of consecutive ids is one long run of entries at their homes,
    // and walking the run to its end would make each FIFO eviction O(W).
    std::size_t hole = i;
    for (std::size_t j = next(i);
         slots_[j].used && ((j - hole) & mask_) <= max_displacement_;
         j = next(j)) {
      const std::size_t home = index_of(slots_[j].key);
      // Move j into the hole unless j's home lies strictly after the hole
      // (cyclically): distance(home → j) >= distance(hole → j).
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = Value{};
    --size_;
    return true;
  }

  /// Drops all entries, keeping the slab (no shrink, no allocation).
  void clear() {
    for (Slot& s : slots_) {
      s.used = false;
      s.value = Value{};
    }
    size_ = 0;
    max_displacement_ = 0;
  }

 private:
  /// `used` sits next to the key, so a probe reads one cache line per slot
  /// even when the value is large (Plumtree's missing-message entries).
  struct Slot {
    Key key{};
    bool used = false;
    Value value{};
  };

  [[nodiscard]] static std::size_t slots_for(std::size_t n) {
    // Smallest power of two whose 7/8 load bound holds n entries.
    std::size_t slots = 16;
    while (slots - slots / 8 < n) slots *= 2;
    return slots;
  }

  [[nodiscard]] std::size_t index_of(Key key) const {
    return static_cast<std::size_t>(Index::of(key)) & mask_;
  }

  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & mask_;
  }

  void note_displacement(std::size_t home, std::size_t slot) {
    const std::size_t d = (slot - home) & mask_;
    if (d > max_displacement_) max_displacement_ = d;
  }

  void rehash(std::size_t new_slots) {
    HPV_ASSERT((new_slots & (new_slots - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    mask_ = new_slots - 1;
    size_ = 0;
    max_displacement_ = 0;
    for (Slot& s : old) {
      if (s.used) insert(s.key, std::move(s.value));
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  /// Upper bound on any live entry's distance from its home slot (erase
  /// only shortens distances, so the bound holds until clear or rehash).
  std::size_t max_displacement_ = 0;
};

}  // namespace hyparview
