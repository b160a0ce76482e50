#include "hyparview/common/flat_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "hyparview/common/rng.hpp"

namespace hyparview {
namespace {

TEST(FlatMapTest, EmptyMapFindsNothing) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_FALSE(map.contains(42));
  EXPECT_FALSE(map.erase(42));
}

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<std::uint64_t, int> map;
  map.insert(1, 10);
  map.insert(2, 20);
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 10);
  EXPECT_EQ(*map.find(2), 20);
  EXPECT_EQ(map.find(3), nullptr);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.erase(1));
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_EQ(*map.find(2), 20);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, InsertOverwritesExistingKey) {
  FlatMap<std::uint32_t, std::uint32_t> map;
  map.insert(7, 1);
  map.insert(7, 2);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(7), 2u);
}

TEST(FlatMapTest, GrowsPastInitialCapacity) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map.insert(k, k * 3);
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), k * 3);
  }
}

TEST(FlatMapTest, ReservePreventsRehash) {
  FlatMap<std::uint64_t, int> map;
  map.reserve(100);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap, 100u);
  for (std::uint64_t k = 0; k < 100; ++k) map.insert(k, 0);
  EXPECT_EQ(map.capacity(), cap);  // no growth happened
}

TEST(FlatMapTest, ClearKeepsCapacity) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t k = 0; k < 50; ++k) map.insert(k, 1);
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.find(10), nullptr);
  map.insert(10, 2);
  EXPECT_EQ(*map.find(10), 2);
}

TEST(FlatMapTest, EraseKeepsProbeChainsReachable) {
  // Backward-shift deletion: erasing from the middle of a probe chain must
  // not orphan entries that probed past the erased slot. Dense sequential
  // keys force shared chains at small table sizes.
  FlatMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t k = 0; k < 12; ++k) map.insert(k, k);
  for (std::uint32_t victim = 0; victim < 12; victim += 3) {
    EXPECT_TRUE(map.erase(victim));
  }
  for (std::uint32_t k = 0; k < 12; ++k) {
    if (k % 3 == 0) {
      EXPECT_EQ(map.find(k), nullptr) << k;
    } else {
      ASSERT_NE(map.find(k), nullptr) << k;
      EXPECT_EQ(*map.find(k), k);
    }
  }
}

TEST(FlatMapTest, RandomizedAgainstUnorderedMapReference) {
  Rng rng(2024);
  FlatMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.below(512);  // small key space → collisions
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t value = rng.next();
        map.insert(key, value);
        ref[key] = value;
        break;
      }
      case 1: {
        EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {
        const auto it = ref.find(key);
        const std::uint64_t* found = map.find(key);
        if (it == ref.end()) {
          EXPECT_EQ(found, nullptr);
        } else {
          ASSERT_NE(found, nullptr);
          EXPECT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Full sweep at the end.
  for (const auto& [key, value] : ref) {
    ASSERT_NE(map.find(key), nullptr);
    EXPECT_EQ(*map.find(key), value);
  }
}

// --- SequentialIndex: differential tests against std::unordered_map -------

using SeqMap = FlatMap<std::uint64_t, std::uint64_t, SequentialIndex>;
using RefMap = std::unordered_map<std::uint64_t, std::uint64_t>;

/// Every probe key answers the same in both maps, and the sizes agree.
void expect_same(const SeqMap& map, const RefMap& ref,
                 const std::vector<std::uint64_t>& probes) {
  ASSERT_EQ(map.size(), ref.size());
  for (const std::uint64_t key : probes) {
    const auto it = ref.find(key);
    const std::uint64_t* found = map.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(found, nullptr) << key;
    } else {
      ASSERT_NE(found, nullptr) << key;
      EXPECT_EQ(*found, it->second) << key;
    }
  }
}

TEST(FlatMapSequentialIndexTest, SlidingWindowOfCounterIdsWithFifoErase) {
  // DedupWindow's pattern: ids from one counter arrive slightly out of
  // order (some twice, some never), the newest is inserted if absent, and
  // the oldest is erased once the window is full.
  Rng rng(7);
  SeqMap map;
  RefMap ref;
  std::deque<std::uint64_t> window;
  constexpr std::size_t kWindow = 300;
  std::uint64_t counter = 1;
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t id = counter++ + rng.below(8);
    const std::uint64_t value = rng.next();
    const bool inserted = ref.emplace(id, value).second;
    ASSERT_EQ(map.try_insert(id, value), inserted) << id;
    std::uint64_t evicted = 0;
    if (inserted) {
      window.push_back(id);
      if (window.size() > kWindow) {
        evicted = window.front();
        window.pop_front();
        ASSERT_TRUE(map.erase(evicted)) << evicted;
        ref.erase(evicted);
      }
    }
    const std::uint64_t old =
        counter > 2 * kWindow ? counter - rng.below(2 * kWindow) : counter;
    expect_same(map, ref, {id, evicted, old, counter + 8});
  }
  std::vector<std::uint64_t> all(window.begin(), window.end());
  expect_same(map, ref, all);
}

TEST(FlatMapSequentialIndexTest, KeysSharingTheirLowBits) {
  // Keys the index maps onto few home slots: multiples of 4096 collide on
  // every table smaller than 4096 slots, and `p << 32 | seq` ids collide
  // wherever seq ^ p does.
  std::vector<std::vector<std::uint64_t>> families(2);
  for (std::uint64_t k = 0; k < 400; ++k) families[0].push_back(k * 4096);
  for (std::uint64_t p = 1; p <= 8; ++p) {
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      families[1].push_back(p << 32 | seq);
    }
  }
  Rng rng(11);
  for (const std::vector<std::uint64_t>& keys : families) {
    SeqMap map;
    RefMap ref;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = keys[rng.below(keys.size())];
      const std::uint64_t value = rng.next();
      switch (rng.below(4)) {
        case 0:
          map.insert(key, value);
          ref[key] = value;
          break;
        case 1:
          ASSERT_EQ(map.try_insert(key, value), ref.emplace(key, value).second)
              << key;
          break;
        case 2:
          ASSERT_EQ(map.erase(key), ref.erase(key) > 0) << key;
          break;
        default:
          expect_same(map, ref, {key});
          break;
      }
      ASSERT_EQ(map.size(), ref.size());
    }
    expect_same(map, ref, keys);
  }
}

TEST(FlatMapSequentialIndexTest, EraseAcrossTheTableWrapAround) {
  // 16-slot tables. In the long set, homes 13-15 hold a probe chain that
  // runs past the last slot and wraps to slot 0. In the pairs, the second
  // key sits exactly the largest displacement past the first, so erasing
  // the first must still shift it, both mid-table and across the wrap.
  // Every insertion and erase order must leave the survivors reachable.
  const std::vector<std::vector<std::uint64_t>> key_sets = {
      {13, 14, 15, 29, 30, 31, 45, 47, 16}, {13, 29}, {15, 31}};
  Rng rng(5);
  for (const std::vector<std::uint64_t>& keys : key_sets) {
    for (int round = 0; round < 300; ++round) {
      SeqMap map;
      map.reserve(keys.size());
      RefMap ref;
      std::vector<std::uint64_t> order = keys;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      for (const std::uint64_t k : order) {
        ASSERT_TRUE(map.try_insert(k, k * 3)) << k;
        ref[k] = k * 3;
      }
      expect_same(map, ref, keys);
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
      for (const std::uint64_t k : order) {
        ASSERT_TRUE(map.erase(k)) << k;
        ref.erase(k);
        expect_same(map, ref, keys);
      }
      EXPECT_TRUE(map.empty());
    }
  }
}

}  // namespace
}  // namespace hyparview
