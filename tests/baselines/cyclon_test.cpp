#include "hyparview/baselines/cyclon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "../support/fake_env.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/sim_backend.hpp"

namespace hyparview::baselines {
namespace {

using test::FakeEnv;

NodeId nid(std::uint32_t i) { return NodeId::from_index(i); }

bool has_id(const std::vector<wire::AgedId>& v, const NodeId& id) {
  return std::any_of(v.begin(), v.end(),
                     [&](const wire::AgedId& e) { return e.id == id; });
}

class CyclonUnitTest : public ::testing::Test {
 protected:
  CyclonUnitTest() : env_(nid(0)), proto_(env_, CyclonConfig{}) {}

  void seed_view(std::uint32_t base, std::size_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      proto_.handle(nid(99), wire::CyclonJoinGift{{nid(base + i), 0}});
    }
    env_.clear();
  }

  FakeEnv env_;
  Cyclon proto_;
};

TEST_F(CyclonUnitTest, ConfigValidation) {
  CyclonConfig bad;
  bad.shuffle_length = 100;
  bad.view_capacity = 10;
  EXPECT_THROW(Cyclon(env_, bad), CheckError);
}

TEST_F(CyclonUnitTest, StartContactsIntroducer) {
  proto_.start(nid(5));
  ASSERT_EQ(env_.sent.size(), 1u);
  EXPECT_EQ(env_.sent[0].to, nid(5));
  const auto* walk = std::get_if<wire::CyclonJoinWalk>(&env_.sent[0].msg);
  ASSERT_NE(walk, nullptr);
  EXPECT_EQ(walk->new_node, nid(0));
  // The joiner does not keep the introducer: its view is filled exclusively
  // by walk gifts, which is what preserves in-degrees.
  EXPECT_TRUE(proto_.view().empty());
}

TEST_F(CyclonUnitTest, IntroducerFiresWalksForJoiner) {
  seed_view(10, 5);
  // Walk arriving directly from the joiner marks us as introducer.
  proto_.handle(nid(7), wire::CyclonJoinWalk{nid(7), 5});
  const auto walks = env_.sent_of_type<wire::CyclonJoinWalk>();
  EXPECT_EQ(walks.size(), proto_.config().view_capacity);
  for (const auto& [to, w] : walks) {
    EXPECT_EQ(w.new_node, nid(7));
    EXPECT_EQ(w.ttl, 5);
    EXPECT_TRUE(has_id(proto_.view(), to));
  }
}

TEST_F(CyclonUnitTest, WalkForwardedWithDecrementedTtl) {
  seed_view(10, 5);
  proto_.handle(nid(20), wire::CyclonJoinWalk{nid(7), 3});
  const auto walks = env_.sent_of_type<wire::CyclonJoinWalk>();
  ASSERT_EQ(walks.size(), 1u);
  EXPECT_EQ(walks[0].second.ttl, 2);
}

TEST_F(CyclonUnitTest, WalkTerminatesAtTtlZeroWithSwapAndGift) {
  CyclonConfig cfg;
  cfg.view_capacity = 3;
  cfg.shuffle_length = 3;
  FakeEnv env(nid(0));
  Cyclon p(env, cfg);
  for (std::uint32_t i = 0; i < 3; ++i) {
    p.handle(nid(99), wire::CyclonJoinGift{{nid(10 + i), 0}});
  }
  env.clear();

  p.handle(nid(20), wire::CyclonJoinWalk{nid(7), 0});
  EXPECT_TRUE(has_id(p.view(), nid(7)));
  EXPECT_EQ(p.view().size(), 3u);  // swapped, not grown
  const auto gifts = env.sent_of_type<wire::CyclonJoinGift>();
  ASSERT_EQ(gifts.size(), 1u);
  EXPECT_EQ(gifts[0].first, nid(7));
  // The displaced entry is the gift.
  EXPECT_FALSE(has_id(p.view(), gifts[0].second.entry.id));
}

TEST_F(CyclonUnitTest, WalkIntoNonFullViewInsertsAndGiftsSelf) {
  seed_view(10, 2);
  proto_.handle(nid(20), wire::CyclonJoinWalk{nid(7), 0});
  EXPECT_TRUE(has_id(proto_.view(), nid(7)));
  // Non-full adoption gifts a fresh self entry so the joiner's view is
  // never left empty during bootstrap.
  const auto gifts = env_.sent_of_type<wire::CyclonJoinGift>();
  ASSERT_EQ(gifts.size(), 1u);
  EXPECT_EQ(gifts[0].first, nid(7));
  EXPECT_EQ(gifts[0].second.entry.id, nid(0));
}

TEST_F(CyclonUnitTest, GiftIgnoredWhenDuplicateOrSelf) {
  seed_view(10, 2);
  proto_.handle(nid(99), wire::CyclonJoinGift{{nid(10), 5}});  // duplicate
  proto_.handle(nid(99), wire::CyclonJoinGift{{nid(0), 5}});   // self
  EXPECT_EQ(proto_.view().size(), 2u);
}

TEST_F(CyclonUnitTest, CycleAgesEntriesAndShufflesOldest) {
  seed_view(10, 4);
  // Make node 12 the oldest.
  proto_.handle(nid(99), wire::CyclonShuffleReply{{{nid(50), 9}}});
  env_.clear();

  proto_.on_cycle();
  const auto shuffles = env_.sent_of_type<wire::CyclonShuffle>();
  ASSERT_EQ(shuffles.size(), 1u);
  EXPECT_EQ(shuffles[0].first, nid(50));  // oldest after aging
  // The target was removed from the view when the shuffle started.
  EXPECT_FALSE(has_id(proto_.view(), nid(50)));
  // Outgoing list starts with a fresh self entry.
  ASSERT_FALSE(shuffles[0].second.entries.empty());
  EXPECT_EQ(shuffles[0].second.entries.front().id, nid(0));
  EXPECT_EQ(shuffles[0].second.entries.front().age, 0);
  // All other entries aged by one.
  for (const auto& e : proto_.view()) EXPECT_GE(e.age, 1);
}

TEST_F(CyclonUnitTest, ShuffleLengthRespected) {
  CyclonConfig cfg;
  cfg.view_capacity = 20;
  cfg.shuffle_length = 5;
  FakeEnv env(nid(0));
  Cyclon p(env, cfg);
  for (std::uint32_t i = 0; i < 20; ++i) {
    p.handle(nid(99), wire::CyclonJoinGift{{nid(10 + i), 0}});
  }
  env.clear();
  p.on_cycle();
  const auto shuffles = env.sent_of_type<wire::CyclonShuffle>();
  ASSERT_EQ(shuffles.size(), 1u);
  EXPECT_EQ(shuffles[0].second.entries.size(), 5u);  // self + 4 samples
}

TEST_F(CyclonUnitTest, IncomingShuffleAnsweredAndIntegrated) {
  seed_view(10, 4);
  wire::CyclonShuffle incoming{{{nid(70), 0}, {nid(71), 2}}};
  proto_.handle(nid(70), incoming);
  const auto replies = env_.sent_of_type<wire::CyclonShuffleReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, nid(70));
  EXPECT_LE(replies[0].second.entries.size(), 2u);
  EXPECT_TRUE(has_id(proto_.view(), nid(70)));
  EXPECT_TRUE(has_id(proto_.view(), nid(71)));
}

TEST_F(CyclonUnitTest, IntegrationFillsEmptySlotsThenReplacesShipped) {
  CyclonConfig cfg;
  cfg.view_capacity = 3;
  cfg.shuffle_length = 3;
  FakeEnv env(nid(0));
  Cyclon p(env, cfg);
  for (std::uint32_t i = 0; i < 3; ++i) {
    p.handle(nid(99), wire::CyclonJoinGift{{nid(10 + i), 0}});
  }
  env.clear();

  // Incoming shuffle with 3 unknown ids; view full -> replacements come from
  // the entries shipped in the reply.
  p.handle(nid(70), wire::CyclonShuffle{{{nid(70), 0}, {nid(71), 0}, {nid(72), 0}}});
  const auto replies = env.sent_of_type<wire::CyclonShuffleReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(p.view().size(), 3u);
  // Every received id that made it displaced a shipped entry.
  std::size_t received_present = 0;
  for (const auto id : {nid(70), nid(71), nid(72)}) {
    if (has_id(p.view(), id)) ++received_present;
  }
  EXPECT_EQ(received_present, replies[0].second.entries.size());
}

TEST_F(CyclonUnitTest, IntegrationSkipsSelfAndDuplicates) {
  seed_view(10, 4);
  const std::size_t before = proto_.view().size();
  proto_.handle(nid(70), wire::CyclonShuffleReply{{{nid(0), 0}, {nid(10), 0}}});
  EXPECT_EQ(proto_.view().size(), before);  // nothing new inserted
}

TEST_F(CyclonUnitTest, ViewNeverExceedsCapacity) {
  for (std::uint32_t i = 0; i < 100; ++i) {
    proto_.handle(nid(99), wire::CyclonJoinGift{{nid(100 + i), 0}});
  }
  EXPECT_LE(proto_.view().size(), proto_.config().view_capacity);
}

TEST_F(CyclonUnitTest, BroadcastTargetsAreDistinctViewMembers) {
  seed_view(10, 20);
  const auto targets = proto_.broadcast_targets(4, nid(10));
  EXPECT_EQ(targets.size(), 4u);
  const std::set<NodeId> distinct(targets.begin(), targets.end());
  EXPECT_EQ(distinct.size(), targets.size());
  for (const auto& t : targets) {
    EXPECT_NE(t, nid(10));  // sender excluded
    EXPECT_TRUE(has_id(proto_.view(), t));
  }
}

TEST_F(CyclonUnitTest, BroadcastTargetsClampedBySmallView) {
  seed_view(10, 2);
  EXPECT_EQ(proto_.broadcast_targets(4, kNoNode).size(), 2u);
}

TEST_F(CyclonUnitTest, PlainCyclonIgnoresUnreachablePeers) {
  seed_view(10, 5);
  proto_.peer_unreachable(nid(10));
  EXPECT_TRUE(has_id(proto_.view(), nid(10)));  // no detector in plain mode
}

TEST_F(CyclonUnitTest, AckedCyclonPurgesUnreachablePeers) {
  CyclonConfig cfg;
  cfg.purge_on_unreachable = true;
  FakeEnv env(nid(0));
  Cyclon p(env, cfg);
  p.handle(nid(99), wire::CyclonJoinGift{{nid(10), 0}});
  p.peer_unreachable(nid(10));
  EXPECT_FALSE(has_id(p.view(), nid(10)));
  EXPECT_EQ(p.stats().entries_purged, 1u);
  EXPECT_STREQ(p.name(), "cyclon-acked");
}

TEST_F(CyclonUnitTest, ShuffleSendFailureRetriesNextOldest) {
  seed_view(10, 3);
  proto_.on_cycle();
  const auto first = env_.sent_of_type<wire::CyclonShuffle>();
  ASSERT_EQ(first.size(), 1u);
  const NodeId dead = first[0].first;
  proto_.on_send_failed(dead, first[0].second);
  const auto all = env_.sent_of_type<wire::CyclonShuffle>();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NE(all[1].first, dead);
  EXPECT_FALSE(has_id(proto_.view(), dead));
}

TEST_F(CyclonUnitTest, EmptyViewCycleIsNoop) {
  proto_.on_cycle();
  EXPECT_TRUE(env_.sent.empty());
}

// --- System-level: in-degree preservation (the Cyclon join guarantee) -------

TEST(CyclonNetworkTest, JoinKeepsInDegreesBoundedAndViewsFull) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kCyclon, 300, 5);
  cfg.cyclon.view_capacity = 8;
  cfg.cyclon.shuffle_length = 4;
  harness::SimBackend net(cfg);
  net.build();
  const auto g = net.dissemination_graph(false);
  const auto indeg = g.in_degrees();
  // "The join process ensures that, if there are no message losses or node
  // failures, the in-degree of all nodes will remain unchanged" — in
  // particular no node accumulates unbounded popularity during joins.
  const std::size_t max_in = *std::max_element(indeg.begin(), indeg.end());
  EXPECT_LE(max_in, 3 * cfg.cyclon.view_capacity);
  // And the overlay stays weakly connected.
  EXPECT_TRUE(graph::is_weakly_connected(g));
}

TEST(CyclonNetworkTest, ShufflingConvergesAgesAndKeepsConnectivity) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kCyclon, 200, 7);
  cfg.cyclon.view_capacity = 8;
  cfg.cyclon.shuffle_length = 4;
  harness::SimBackend net(cfg);
  net.build();
  net.run_cycles(15);
  EXPECT_TRUE(graph::is_weakly_connected(net.dissemination_graph(false)));
}

}  // namespace
}  // namespace hyparview::baselines
