// Unit tests for the CREW-style warm connection cache (§2.4): pre-opened
// connections to passive-view members that let active-view repair skip the
// dial round-trip.
#include <gtest/gtest.h>

#include <algorithm>

#include "../support/fake_env.hpp"
#include "hyparview/core/hyparview.hpp"

namespace hyparview::core {
namespace {

using test::FakeEnv;

NodeId nid(std::uint32_t i) { return NodeId::from_index(i); }

bool contains(const std::vector<NodeId>& v, const NodeId& id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

class WarmCacheTest : public ::testing::Test {
 protected:
  WarmCacheTest() : env_(nid(0)), proto_(env_, make_config()) {}

  static Config make_config() {
    Config cfg;
    cfg.warm_cache_size = 3;
    return cfg;
  }

  void fill_active(std::uint32_t base = 100) {
    for (std::uint32_t i = 0; i < proto_.config().active_capacity; ++i) {
      proto_.handle(nid(base + i), wire::Join{});
    }
    env_.clear();
  }

  /// Seeds the passive view through a shuffle reply (all entries land in
  /// the passive view).
  void seed_passive(std::uint32_t base, std::uint32_t count) {
    std::vector<NodeId> entries;
    for (std::uint32_t i = 0; i < count; ++i) entries.push_back(nid(base + i));
    proto_.handle(nid(99), wire::ShuffleReply{{}, entries});
    env_.clear();
  }

  /// Runs a cycle and completes every warm dial successfully.
  void warm_up() {
    proto_.on_cycle();
    for (std::size_t i = 0; i < env_.connects.size(); ++i) {
      if (!env_.connects[i].completed) env_.complete_connect(i, true);
    }
    env_.clear();
  }

  FakeEnv env_;
  HyParView proto_;
};

TEST_F(WarmCacheTest, ConfigRejectsCacheLargerThanPassiveView) {
  Config bad;
  bad.passive_capacity = 5;
  bad.warm_cache_size = 6;
  EXPECT_THROW(HyParView(env_, bad), CheckError);
}

TEST_F(WarmCacheTest, RefreshDialsUpToCacheSizeDistinctCandidates) {
  fill_active();
  seed_passive(200, 6);
  proto_.on_cycle();
  ASSERT_EQ(env_.connects.size(), 3u);
  std::vector<NodeId> dialed;
  for (const auto& c : env_.connects) {
    EXPECT_TRUE(contains(proto_.passive_view(), c.to));
    EXPECT_FALSE(contains(dialed, c.to)) << "double dial to " << c.to.to_string();
    dialed.push_back(c.to);
  }
  for (std::size_t i = 0; i < 3; ++i) env_.complete_connect(i, true);
  EXPECT_EQ(proto_.warm_cache().size(), 3u);
  EXPECT_EQ(proto_.stats().warm_dials, 3u);
}

TEST_F(WarmCacheTest, PendingDialsAreNotRepeatedAcrossCycles) {
  fill_active();
  seed_passive(200, 6);
  proto_.on_cycle();
  proto_.on_cycle();  // dials still pending: no new ones
  EXPECT_EQ(env_.connects.size(), 3u);
}

TEST_F(WarmCacheTest, ZeroCacheSizeNeverDials) {
  Config cfg;  // warm_cache_size = 0
  HyParView plain(env_, cfg);
  for (std::uint32_t i = 0; i < cfg.active_capacity; ++i) {
    plain.handle(nid(100 + i), wire::Join{});
  }
  std::vector<NodeId> entries;
  for (std::uint32_t i = 0; i < 6; ++i) entries.push_back(nid(200 + i));
  plain.handle(nid(99), wire::ShuffleReply{{}, entries});
  env_.clear();
  plain.on_cycle();
  EXPECT_TRUE(env_.connects.empty());
}

TEST_F(WarmCacheTest, FailedWarmDialExpungesPassiveCandidate) {
  fill_active();
  seed_passive(200, 6);
  proto_.on_cycle();
  const NodeId victim = env_.connects[0].to;
  env_.complete_connect(0, false);
  EXPECT_FALSE(contains(proto_.passive_view(), victim));
  EXPECT_FALSE(contains(proto_.warm_cache(), victim));
  env_.complete_connect(1, true);
  env_.complete_connect(2, true);
  EXPECT_EQ(proto_.warm_cache().size(), 2u);
  // The next cycle covers the deficit with a fresh candidate.
  env_.clear();
  proto_.on_cycle();
  ASSERT_EQ(env_.connects.size(), 1u);
  EXPECT_NE(env_.connects[0].to, victim);
}

TEST_F(WarmCacheTest, WarmPromotionSendsNeighborWithoutDialing) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  ASSERT_EQ(proto_.warm_cache().size(), 3u);

  // Open a slot politely: the departing neighbor sends DISCONNECT.
  const NodeId leaver = proto_.active_view().front();
  proto_.handle(leaver, wire::Disconnect{});

  EXPECT_TRUE(env_.connects.empty()) << "warm promotion must not dial";
  const auto neighbors = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_TRUE(contains(proto_.warm_cache(), neighbors[0].first));
  EXPECT_FALSE(neighbors[0].second.high_priority);  // view not empty
  EXPECT_EQ(proto_.stats().warm_promotions, 0u) << "no reply yet";

  // The counter counts promotions, so it moves on the accepted reply.
  proto_.handle(neighbors[0].first, wire::NeighborReply{true});
  EXPECT_EQ(proto_.stats().warm_promotions, 1u);
  EXPECT_EQ(proto_.stats().promotions, 1u);
}

TEST_F(WarmCacheTest, AcceptedWarmPromotionKeepsLinkAndLeavesCache) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  const NodeId leaver = proto_.active_view().front();
  proto_.handle(leaver, wire::Disconnect{});
  const auto neighbors = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(neighbors.size(), 1u);
  const NodeId promoted = neighbors[0].first;

  env_.clear();
  proto_.handle(promoted, wire::NeighborReply{true});
  EXPECT_TRUE(contains(proto_.active_view(), promoted));
  EXPECT_FALSE(contains(proto_.warm_cache(), promoted));
  EXPECT_FALSE(contains(env_.disconnects, promoted))
      << "the pre-opened link becomes the active-view link";
}

TEST_F(WarmCacheTest, RejectedWarmPromotionKeepsCachedLinkOpen) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  const NodeId leaver = proto_.active_view().front();
  proto_.handle(leaver, wire::Disconnect{});
  auto neighbors = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(neighbors.size(), 1u);
  const NodeId first = neighbors[0].first;

  env_.clear();
  proto_.handle(first, wire::NeighborReply{false});
  EXPECT_FALSE(contains(env_.disconnects, first))
      << "rejection must not burn the cached connection";
  EXPECT_TRUE(contains(proto_.warm_cache(), first));
  EXPECT_TRUE(contains(proto_.passive_view(), first));
  // Repair moves on to the next warm candidate.
  neighbors = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(neighbors.size(), 1u);
  EXPECT_NE(neighbors[0].first, first);
  EXPECT_TRUE(contains(proto_.warm_cache(), neighbors[0].first));
}

TEST_F(WarmCacheTest, RejectedWarmAttemptIsNoWarmPromotion) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  const NodeId leaver = proto_.active_view().front();
  proto_.handle(leaver, wire::Disconnect{});
  const auto neighbors = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(neighbors.size(), 1u);

  proto_.handle(neighbors[0].first, wire::NeighborReply{false});
  EXPECT_EQ(proto_.stats().warm_promotions, 0u);
  EXPECT_EQ(proto_.stats().promotions, 0u);
  // The retry went out over another warm link; it is no promotion either
  // until accepted.
  ASSERT_EQ(env_.sent_of_type<wire::Neighbor>().size(), 2u);
  EXPECT_EQ(proto_.stats().warm_promotions, 0u);
}

TEST_F(WarmCacheTest, StaleWarmLinkDiscoveredOnUseAdvancesRepair) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  const NodeId leaver = proto_.active_view().front();
  proto_.handle(leaver, wire::Disconnect{});
  const auto neighbors = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(neighbors.size(), 1u);
  const NodeId dead = neighbors[0].first;

  env_.clear();
  proto_.on_send_failed(dead, wire::Neighbor{false});
  EXPECT_FALSE(contains(proto_.passive_view(), dead));
  EXPECT_FALSE(contains(proto_.warm_cache(), dead));
  // A fresh attempt goes out (warm preferred, so a NEIGHBOR, not a dial).
  const auto retry = env_.sent_of_type<wire::Neighbor>();
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_NE(retry[0].first, dead);
}

TEST_F(WarmCacheTest, NodeFailureClosesWarmLink) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  ASSERT_FALSE(proto_.warm_cache().empty());
  const NodeId member = proto_.warm_cache().front();
  proto_.peer_unreachable(member);
  EXPECT_FALSE(contains(proto_.warm_cache(), member));
  EXPECT_FALSE(contains(proto_.passive_view(), member));
  EXPECT_TRUE(contains(env_.disconnects, member));
}

TEST_F(WarmCacheTest, LinkClosedDropsWarmEntryButKeepsCandidate) {
  fill_active();
  seed_passive(200, 6);
  warm_up();
  ASSERT_FALSE(proto_.warm_cache().empty());
  const NodeId member = proto_.warm_cache().front();
  proto_.on_link_closed(member);
  EXPECT_FALSE(contains(proto_.warm_cache(), member));
  EXPECT_TRUE(contains(proto_.passive_view(), member))
      << "a closed connection is not evidence of a crash";
}

TEST_F(WarmCacheTest, WarmSetAlwaysSubsetOfPassiveView) {
  fill_active();
  seed_passive(200, 10);
  for (int round = 0; round < 20; ++round) {
    proto_.on_cycle();
    for (std::size_t i = 0; i < env_.connects.size(); ++i) {
      if (!env_.connects[i].completed) {
        env_.complete_connect(i, (static_cast<std::size_t>(round) + i) % 3 != 0);
      }
    }
    // Churn the views a little.
    proto_.handle(nid(300 + static_cast<std::uint32_t>(round)), wire::Join{});
    if (!proto_.active_view().empty()) {
      proto_.handle(proto_.active_view().front(), wire::Disconnect{});
    }
    for (const NodeId& w : proto_.warm_cache()) {
      EXPECT_TRUE(contains(proto_.passive_view(), w));
    }
    EXPECT_LE(proto_.warm_cache().size(), proto_.config().warm_cache_size);
    env_.clear();
  }
}

}  // namespace
}  // namespace hyparview::core
