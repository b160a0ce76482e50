#include "hyparview/baselines/scamp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../support/fake_env.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/sim_backend.hpp"

namespace hyparview::baselines {
namespace {

using test::FakeEnv;

NodeId nid(std::uint32_t i) { return NodeId::from_index(i); }

bool contains(std::span<const NodeId> v, const NodeId& id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

class ScampUnitTest : public ::testing::Test {
 protected:
  ScampUnitTest() : env_(nid(0)), proto_(env_, ScampConfig{}) {}

  void seed_partial_view(std::uint32_t base, std::size_t count) {
    // Keeps are probabilistic (1/(1+|view|)); replay each forwarded sub with
    // ttl=0 (drop-on-reject) until it lands. Deterministic given the seed.
    for (std::uint32_t i = 0; i < count; ++i) {
      while (!contains(proto_.partial_view(), nid(base + i))) {
        proto_.handle(nid(99), wire::ScampForwardedSub{nid(base + i), 0});
      }
    }
    env_.clear();
  }

  FakeEnv env_;
  Scamp proto_;
};

TEST_F(ScampUnitTest, StartSubscribesThroughContact) {
  proto_.start(nid(3));
  ASSERT_EQ(env_.sent.size(), 1u);
  EXPECT_EQ(env_.sent[0].to, nid(3));
  const auto* sub = std::get_if<wire::ScampSubscribe>(&env_.sent[0].msg);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->subscriber, nid(0));
  EXPECT_TRUE(contains(proto_.partial_view(), nid(3)));
}

TEST_F(ScampUnitTest, SubscriptionForwardedToAllPlusCExtraCopies) {
  proto_.start(std::nullopt);
  seed_partial_view(10, 6);
  proto_.handle(nid(7), wire::ScampSubscribe{nid(7)});
  const auto fwds = env_.sent_of_type<wire::ScampForwardedSub>();
  EXPECT_EQ(fwds.size(), 6 + proto_.config().c);
  for (const auto& [to, f] : fwds) {
    EXPECT_EQ(f.subscriber, nid(7));
    EXPECT_TRUE(contains(proto_.partial_view(), to));
  }
}

TEST_F(ScampUnitTest, SubscriptionRecordsTheSubscribersInEdge) {
  // start() makes the subscriber adopt its contact into its PartialView, so
  // a received subscription is an in-edge announcement — without this, the
  // contact's departure (unsubscription) could never reach the subscriber.
  proto_.start(std::nullopt);
  seed_partial_view(10, 4);
  proto_.handle(nid(7), wire::ScampSubscribe{nid(7)});
  EXPECT_TRUE(contains(proto_.in_view(), nid(7)));
  // Idempotent on resubscription (leases).
  proto_.handle(nid(7), wire::ScampSubscribe{nid(7)});
  EXPECT_EQ(std::count(proto_.in_view().begin(), proto_.in_view().end(),
                       nid(7)),
            1);
}

TEST_F(ScampUnitTest, LeaveDelegatesToUnsubscribe) {
  proto_.start(std::nullopt);
  seed_partial_view(10, 4);
  proto_.handle(nid(7), wire::ScampSubscribe{nid(7)});
  env_.clear();
  proto_.leave();
  const auto replaces = env_.sent_of_type<wire::ScampReplace>();
  ASSERT_FALSE(replaces.empty());
  EXPECT_TRUE(proto_.partial_view().empty());
  EXPECT_TRUE(proto_.in_view().empty());
}

TEST_F(ScampUnitTest, BootstrapContactAdoptsSubscriberDirectly) {
  proto_.start(std::nullopt);
  proto_.handle(nid(7), wire::ScampSubscribe{nid(7)});
  EXPECT_TRUE(contains(proto_.partial_view(), nid(7)));
  // The subscriber is told it entered our PartialView.
  const auto notifies = env_.sent_of_type<wire::ScampInViewNotify>();
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_EQ(notifies[0].first, nid(7));
}

TEST_F(ScampUnitTest, ForwardedSubKeptWhenViewEmpty) {
  proto_.start(std::nullopt);
  proto_.handle(nid(9), wire::ScampForwardedSub{nid(7), 10});
  EXPECT_TRUE(contains(proto_.partial_view(), nid(7)));
}

TEST_F(ScampUnitTest, ForwardedSubForSelfDropped) {
  proto_.handle(nid(9), wire::ScampForwardedSub{nid(0), 10});
  EXPECT_TRUE(proto_.partial_view().empty());
  EXPECT_TRUE(env_.sent.empty());
}

TEST_F(ScampUnitTest, DuplicateSubscriberIsForwardedNotKept) {
  proto_.start(std::nullopt);
  seed_partial_view(10, 3);
  proto_.handle(nid(9), wire::ScampForwardedSub{nid(10), 10});
  // Already in view: must be relayed onward, view unchanged.
  EXPECT_EQ(proto_.partial_view().size(), 3u);
  const auto fwds = env_.sent_of_type<wire::ScampForwardedSub>();
  ASSERT_EQ(fwds.size(), 1u);
  EXPECT_EQ(fwds[0].second.ttl, 9);
}

TEST_F(ScampUnitTest, TtlExhaustionDropsForwardedSub) {
  proto_.start(std::nullopt);
  seed_partial_view(10, 3);
  // With a full view, keep probability is 1/4 per hop; drive ttl to zero.
  // Use ttl=0 directly: must not relay further.
  proto_.handle(nid(9), wire::ScampForwardedSub{nid(10), 0});
  EXPECT_TRUE(env_.sent_of_type<wire::ScampForwardedSub>().empty());
}

TEST_F(ScampUnitTest, KeepingSubscriptionNotifiesSubscriber) {
  proto_.start(std::nullopt);
  proto_.handle(nid(9), wire::ScampForwardedSub{nid(7), 10});
  const auto notifies = env_.sent_of_type<wire::ScampInViewNotify>();
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_EQ(notifies[0].first, nid(7));
}

TEST_F(ScampUnitTest, InViewNotifyTracked) {
  proto_.handle(nid(5), wire::ScampInViewNotify{});
  proto_.handle(nid(5), wire::ScampInViewNotify{});  // idempotent
  ASSERT_EQ(proto_.in_view().size(), 1u);
  EXPECT_EQ(proto_.in_view()[0], nid(5));
  const auto backup = proto_.backup_view();
  EXPECT_TRUE(std::equal(backup.begin(), backup.end(),
                         proto_.in_view().begin(), proto_.in_view().end()));
}

TEST_F(ScampUnitTest, ReplaceSwapsPartialViewEntry) {
  seed_partial_view(10, 3);
  proto_.handle(nid(9), wire::ScampReplace{nid(10), nid(42)});
  EXPECT_FALSE(contains(proto_.partial_view(), nid(10)));
  EXPECT_TRUE(contains(proto_.partial_view(), nid(42)));
  // The replacement learns it is now pointed at.
  const auto notifies = env_.sent_of_type<wire::ScampInViewNotify>();
  ASSERT_EQ(notifies.size(), 1u);
  EXPECT_EQ(notifies[0].first, nid(42));
}

TEST_F(ScampUnitTest, ReplaceWithNoNodeJustRemoves) {
  seed_partial_view(10, 3);
  proto_.handle(nid(9), wire::ScampReplace{nid(11), kNoNode});
  EXPECT_FALSE(contains(proto_.partial_view(), nid(11)));
  EXPECT_EQ(proto_.partial_view().size(), 2u);
}

TEST_F(ScampUnitTest, UnsubscribeInformsInViewMembers) {
  proto_.start(std::nullopt);
  seed_partial_view(10, 4);
  for (std::uint32_t i = 0; i < 8; ++i) {
    proto_.handle(nid(50 + i), wire::ScampInViewNotify{});
  }
  env_.clear();

  proto_.unsubscribe();
  const auto replaces = env_.sent_of_type<wire::ScampReplace>();
  ASSERT_EQ(replaces.size(), 8u);
  std::size_t with_replacement = 0;
  for (const auto& [to, r] : replaces) {
    EXPECT_EQ(r.old_id, nid(0));
    if (r.replacement != kNoNode) ++with_replacement;
  }
  // c+1 = 5 members are left unreplaced (views shrink with the system).
  EXPECT_EQ(with_replacement, 8u - (proto_.config().c + 1));
  EXPECT_TRUE(proto_.partial_view().empty());
  EXPECT_TRUE(proto_.in_view().empty());
}

TEST_F(ScampUnitTest, CycleSendsHeartbeatsAlongPartialView) {
  proto_.start(nid(1));
  seed_partial_view(10, 3);
  proto_.on_cycle();
  const auto beats = env_.sent_of_type<wire::ScampHeartbeat>();
  EXPECT_EQ(beats.size(), 4u);  // 3 seeded + contact
}

TEST_F(ScampUnitTest, IsolationTriggersResubscription) {
  ScampConfig cfg;
  cfg.isolation_timeout_cycles = 3;
  FakeEnv env(nid(0));
  Scamp p(env, cfg);
  p.start(nid(1));
  env.clear();
  for (int i = 0; i < 5; ++i) p.on_cycle();  // never receives a heartbeat
  const auto subs = env.sent_of_type<wire::ScampSubscribe>();
  ASSERT_GE(subs.size(), 1u);
  EXPECT_EQ(subs[0].second.subscriber, nid(0));
  EXPECT_GE(p.stats().isolation_recoveries, 1u);
}

TEST_F(ScampUnitTest, HeartbeatsSuppressIsolationRecovery) {
  ScampConfig cfg;
  cfg.isolation_timeout_cycles = 3;
  FakeEnv env(nid(0));
  Scamp p(env, cfg);
  p.start(nid(1));
  env.clear();
  for (int i = 0; i < 10; ++i) {
    p.handle(nid(1), wire::ScampHeartbeat{});
    p.on_cycle();
  }
  EXPECT_EQ(p.stats().isolation_recoveries, 0u);
}

TEST_F(ScampUnitTest, LeaseResubscribesPeriodically) {
  ScampConfig cfg;
  cfg.lease_cycles = 4;
  cfg.heartbeat_period_cycles = 0;  // isolate the lease path
  FakeEnv env(nid(0));
  Scamp p(env, cfg);
  p.start(nid(1));
  env.clear();
  for (int i = 0; i < 8; ++i) p.on_cycle();
  EXPECT_EQ(env.sent_of_type<wire::ScampSubscribe>().size(), 2u);
  EXPECT_EQ(p.stats().resubscriptions, 2u);
}

TEST_F(ScampUnitTest, PlainScampIgnoresUnreachable) {
  seed_partial_view(10, 3);
  proto_.peer_unreachable(nid(10));
  EXPECT_TRUE(contains(proto_.partial_view(), nid(10)));
}

TEST_F(ScampUnitTest, BroadcastTargetsSampledFromPartialView) {
  seed_partial_view(10, 10);
  const auto targets = proto_.broadcast_targets(4, nid(10));
  EXPECT_EQ(targets.size(), 4u);
  for (const auto& t : targets) {
    EXPECT_NE(t, nid(10));
    EXPECT_TRUE(contains(proto_.partial_view(), t));
  }
}

// --- System-level: view sizes scale like (c+1)·ln(n) -------------------------

TEST(ScampNetworkTest, MeanViewSizeGrowsLogarithmically) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kScamp, 600, 11);
  harness::SimBackend net(cfg);
  net.build();
  double total = 0.0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    total += static_cast<double>(net.protocol(i).dissemination_view().size());
  }
  const double mean = total / static_cast<double>(net.node_count());
  const double expected =
      (static_cast<double>(cfg.scamp.c) + 1.0) * std::log(600.0);
  // Subscription arithmetic gives ≈ (c+1)·ln n on average; allow slack for
  // the stochastic forwarding.
  EXPECT_GT(mean, expected * 0.5);
  EXPECT_LT(mean, expected * 2.0);
}

TEST(ScampNetworkTest, OverlayConnectedAfterJoins) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kScamp, 400, 13);
  harness::SimBackend net(cfg);
  net.build();
  EXPECT_TRUE(graph::is_weakly_connected(net.dissemination_graph(false)));
}

}  // namespace
}  // namespace hyparview::baselines
