#include "hyparview/gossip/dedup_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "hyparview/common/rng.hpp"

namespace hyparview::gossip {
namespace {

TEST(DedupWindowTest, FirstSightingIsNewSecondIsDuplicate) {
  DedupWindow<> w(8);
  EXPECT_TRUE(w.remember(42));
  EXPECT_FALSE(w.remember(42));
  EXPECT_TRUE(w.seen(42));
  EXPECT_FALSE(w.seen(43));
  EXPECT_EQ(w.size(), 1u);
}

TEST(DedupWindowTest, EvictsOldestInFifoOrder) {
  DedupWindow<> w(4);
  for (std::uint64_t id = 1; id <= 4; ++id) EXPECT_TRUE(w.remember(id));
  EXPECT_EQ(w.size(), 4u);
  // 5 evicts 1; 6 evicts 2.
  EXPECT_TRUE(w.remember(5));
  EXPECT_FALSE(w.seen(1));
  EXPECT_TRUE(w.seen(2));
  EXPECT_TRUE(w.remember(6));
  EXPECT_FALSE(w.seen(2));
  for (std::uint64_t id = 3; id <= 6; ++id) EXPECT_TRUE(w.seen(id));
  EXPECT_EQ(w.size(), 4u);
  // An evicted id is treated as new again (window semantics).
  EXPECT_TRUE(w.remember(1));
}

TEST(DedupWindowTest, DuplicateDoesNotEvict) {
  DedupWindow<> w(2);
  EXPECT_TRUE(w.remember(1));
  EXPECT_TRUE(w.remember(2));
  // Re-remembering 2 must not push 1 out.
  EXPECT_FALSE(w.remember(2));
  EXPECT_TRUE(w.seen(1));
}

TEST(DedupWindowTest, CapacityOne) {
  DedupWindow<> w(1);
  EXPECT_TRUE(w.remember(1));
  EXPECT_FALSE(w.remember(1));
  EXPECT_TRUE(w.remember(2));
  EXPECT_FALSE(w.seen(1));
  EXPECT_TRUE(w.seen(2));
}

TEST(DedupWindowTest, ClearForgetsEverything) {
  DedupWindow<> w(4);
  w.remember(1);
  w.remember(2);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.seen(1));
  EXPECT_TRUE(w.remember(1));
}

/// What Plumtree caches per id.
struct Header {
  std::uint32_t payload_size = 0;
  std::uint16_t hops = 0;
  bool operator==(const Header&) const = default;
};

TEST(DedupWindowTest, ProbeSlotsAreSixteenAndTwentyFourBytes) {
  // One id: a 16-id ring and the table's first 16-slot slab.
  DedupWindow<> ids(64);
  ids.remember(1);
  EXPECT_EQ(ids.storage_bytes(), 16 * 8 + 16 * 16u);
  DedupWindow<Header> headers(64, 64);
  headers.remember(1, {128, 3});
  EXPECT_EQ(headers.storage_bytes(), 16 * 8 + 16 * 24u);
}

TEST(DedupWindowTest, RedeliveryPastTheDedupHorizonRefreshesTheCacheEntry) {
  // Dedup horizon 2, cache horizon 4: id 1 leaves the dedup horizon after
  // two more deliveries while its cache entry stays.
  DedupWindow<Header> w(2, 4);
  EXPECT_TRUE(w.remember(1, {100, 1}));
  EXPECT_TRUE(w.remember(2, {100, 2}));
  EXPECT_TRUE(w.remember(3, {100, 3}));
  EXPECT_FALSE(w.seen(1));
  ASSERT_NE(w.cached(1), nullptr);
  EXPECT_EQ(w.cached(1)->hops, 1u);
  // A late copy of 1 is delivered again and refreshes the entry: new
  // value, new age. A separate cache would have kept {100, 1}.
  EXPECT_TRUE(w.remember(1, {100, 7}));
  EXPECT_TRUE(w.seen(1));
  ASSERT_NE(w.cached(1), nullptr);
  EXPECT_EQ(w.cached(1)->hops, 7u);
  EXPECT_FALSE(w.remember(1, {100, 9}));  // a duplicate changes nothing
  EXPECT_EQ(w.cached(1)->hops, 7u);
  // The first of three more deliveries evicts 1's first ring copy: the slot
  // stays, since the refresh stamped it later.
  for (std::uint64_t id = 4; id <= 6; ++id) w.remember(id, {100, 4});
  EXPECT_FALSE(w.seen(1));
  ASSERT_NE(w.cached(1), nullptr);
  EXPECT_EQ(w.cached(1)->hops, 7u);
  // The fourth evicts the refreshed copy, and the slot with it.
  w.remember(7, {100, 4});
  EXPECT_EQ(w.cached(1), nullptr);
  EXPECT_EQ(w.size(), 4u);
}

TEST(DedupWindowTest, CachingWindowClearForgetsEverything) {
  DedupWindow<Header> w(2, 4);
  w.remember(1, {1, 1});
  w.remember(2, {1, 1});
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_FALSE(w.seen(1));
  EXPECT_EQ(w.cached(1), nullptr);
  EXPECT_TRUE(w.remember(1, {1, 2}));
  EXPECT_EQ(w.cached(1)->hops, 2u);
}

/// One horizon of the reference model: the last `k` first deliveries
/// (ids may repeat), as a deque plus a multiset of its ids.
class RefHorizon {
 public:
  explicit RefHorizon(std::size_t k) : k_(k) {}

  void push(std::uint64_t id) {
    order_.push_back(id);
    ++count_[id];
    if (order_.size() > k_) {
      const std::uint64_t old = order_.front();
      order_.pop_front();
      if (--count_[old] == 0) count_.erase(old);
    }
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return count_.contains(id);
  }

 private:
  std::size_t k_;
  std::deque<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, int> count_;
};

/// Id streams with repeats: uniform over a small space, or a counter with
/// late copies of recent ids (the shape of stragglers in a stream).
std::uint64_t next_id(Rng& rng, bool stragglers, std::uint64_t& counter,
                      std::size_t span) {
  if (!stragglers) return 1 + rng.below(2 * span + 2);
  if (counter == 0 || rng.below(10) < 6) return ++counter;
  return counter - std::min<std::uint64_t>(counter - 1, rng.below(2 * span));
}

TEST(DedupWindowTest, RandomizedAgainstSetPlusDequeReference) {
  // The previous implementation (unordered_set + deque) is the semantic
  // reference; the ring + probe table must agree id-for-id.
  for (const std::size_t window : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 16u}) {
    for (const bool stragglers : {false, true}) {
      DedupWindow<> w(window);
      RefHorizon ref(window);
      Rng rng(7 + window);
      std::uint64_t counter = 0;
      for (int op = 0; op < 5000; ++op) {
        const std::uint64_t id = next_id(rng, stragglers, counter, window);
        const bool ref_new = !ref.contains(id);
        if (ref_new) ref.push(id);
        ASSERT_EQ(w.remember(id), ref_new)
            << "window " << window << " op " << op << " id " << id;
        for (std::uint64_t probe = 1; probe <= 2 * window + 2; ++probe) {
          ASSERT_EQ(w.seen(probe), ref.contains(probe))
              << "window " << window << " op " << op << " probe " << probe;
        }
      }
    }
  }
}

TEST(DedupWindowTest, CachingWindowAgreesWithOneReferencePerHorizon) {
  // Every pair of horizons in 1..8, dedup below, equal to and above the
  // cache. The reference keeps each horizon's last k first deliveries and
  // the value of every id's latest one.
  for (std::size_t dedup = 1; dedup <= 8; ++dedup) {
    for (std::size_t cache = 1; cache <= 8; ++cache) {
      for (const bool stragglers : {false, true}) {
        DedupWindow<Header> w(dedup, cache);
        RefHorizon ref_dedup(dedup);
        RefHorizon ref_cache(cache);
        std::unordered_map<std::uint64_t, Header> latest;
        const std::size_t span = std::max(dedup, cache);
        Rng rng(1000 + 10 * dedup + cache);
        std::uint64_t counter = 0;
        for (int op = 0; op < 3000; ++op) {
          const std::uint64_t id = next_id(rng, stragglers, counter, span);
          const Header value{static_cast<std::uint32_t>(op),
                             static_cast<std::uint16_t>(rng.below(100))};
          const bool ref_new = !ref_dedup.contains(id);
          if (ref_new) {
            ref_dedup.push(id);
            ref_cache.push(id);
            latest[id] = value;
          }
          ASSERT_EQ(w.remember(id, value), ref_new)
              << dedup << "/" << cache << " op " << op << " id " << id;
          const std::uint64_t top =
              stragglers ? counter : static_cast<std::uint64_t>(2 * span + 2);
          for (std::uint64_t probe = top > 3 * span ? top - 3 * span : 1;
               probe <= top; ++probe) {
            ASSERT_EQ(w.seen(probe), ref_dedup.contains(probe))
                << dedup << "/" << cache << " op " << op << " probe "
                << probe;
            const Header* got = w.cached(probe);
            ASSERT_EQ(got != nullptr, ref_cache.contains(probe))
                << dedup << "/" << cache << " op " << op << " probe "
                << probe;
            if (got != nullptr) {
              ASSERT_EQ(*got, latest.at(probe))
                  << dedup << "/" << cache << " op " << op << " probe "
                  << probe;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hyparview::gossip
