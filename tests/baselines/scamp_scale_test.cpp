// Scale behavior of Scamp's PartialView membership structure.
//
// PR 4 made in_partial adaptive: small views keep the linear scan, views
// past Scamp::kPartialIndexThreshold switch to a common/flat_hash id→slot
// index (the probe runs once per forwarded-subscription event — ~9.5M
// times in a 10k-node bootstrap). The rewrite must be *behaviorally
// invisible*: same membership answers as a scan, same views, same event
// counts on fixed seeds. This suite pins that, plus a regression bound on
// the bootstrap event count.
#include "hyparview/baselines/scamp.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "hyparview/harness/sim_backend.hpp"
#include "support/fake_env.hpp"

namespace hyparview::baselines {
namespace {

NodeId nid(std::uint32_t i) { return NodeId::from_index(i); }

bool scan(const std::vector<NodeId>& v, const NodeId& n) {
  return std::find(v.begin(), v.end(), n) != v.end();
}

/// Randomized op sequence driving every PartialView mutation path
/// (subscribe, forwarded-sub keep, replace add/remove, link-close erase,
/// unsubscribe clear); after each op, in_partial() must answer exactly as
/// a linear scan of the public view, for every id in the universe, and
/// the view must stay duplicate-free. Runs long enough to cross the index
/// threshold, so both the scan mode and the flat-hash mode are pinned.
TEST(ScampScaleTest, InPartialMatchesLinearScanAcrossAllMutationPaths) {
  test::FakeEnv env(nid(0), /*seed=*/7);
  ScampConfig cfg;
  cfg.purge_on_unreachable = true;  // enable the erase paths
  Scamp proto(env, cfg);
  proto.start(nid(1));

  Rng rng(1234);
  constexpr std::uint32_t kUniverse = 400;
  bool crossed_threshold = false;
  for (int op = 0; op < 12'000; ++op) {
    const NodeId x = nid(1 + static_cast<std::uint32_t>(rng.below(kUniverse)));
    const NodeId y = nid(1 + static_cast<std::uint32_t>(rng.below(kUniverse)));
    if (op == 9999) {
      // One deterministic full reset, late enough that the view has
      // already crossed the index threshold: unsubscribe clears the view
      // AND the active index (the index→scan mode transition), then the
      // remaining ops re-exercise scan mode from scratch.
      ASSERT_TRUE(crossed_threshold)
          << "reset scheduled before the view ever crossed the threshold";
      proto.unsubscribe();
      proto.start(x);
      ASSERT_FALSE(proto.partial_index_active());
      continue;
    }
    // Op mix: forwarded subs dominate (as in a real bootstrap); erase ops
    // are rare enough that the equilibrium view size crosses the index
    // threshold (keep rate 1/(1+s) vs removal rate ~s/(80·universe)).
    switch (rng.below(80)) {
      case 0:
        proto.handle(x, wire::ScampSubscribe{x});
        break;
      case 1:
      case 2:
      case 3:
        proto.handle(x, wire::ScampReplace{x, y});
        break;
      case 4:
        proto.on_link_closed(x);
        break;
      case 5:
        proto.peer_unreachable(x);
        break;
      default:
        // The dominant op, as in a real bootstrap: a forwarded
        // subscription (kept with probability 1/(1+|view|)).
        proto.handle(y, wire::ScampForwardedSub{x, 10});
        break;
    }
    const auto& view = proto.partial_view();
    // No duplicates — the invariant both the scan and the index rely on.
    for (std::size_t i = 0; i < view.size(); ++i) {
      for (std::size_t j = i + 1; j < view.size(); ++j) {
        ASSERT_NE(view[i], view[j]) << "duplicate at op " << op;
      }
    }
    crossed_threshold |= proto.partial_index_active();
    // Membership answers identical to a scan, for members and non-members.
    if (op % 50 == 0) {
      for (std::uint32_t u = 0; u <= kUniverse; ++u) {
        ASSERT_EQ(proto.in_partial(nid(u)), scan(view, nid(u)))
            << "id " << u << " at op " << op;
      }
    }
  }
  // The run must have exercised the flat-hash mode, or this test pins
  // nothing beyond the scan.
  EXPECT_TRUE(crossed_threshold)
      << "op mix never pushed the view past kPartialIndexThreshold ("
      << Scamp::kPartialIndexThreshold << ")";
}

TEST(ScampScaleTest, IndexActivationIsTransparentAroundThreshold) {
  test::FakeEnv env(nid(0), /*seed=*/3);
  Scamp proto(env, ScampConfig{});
  // Drive the view straight through the threshold via the replace-add
  // path, checking the scan/index answers agree at every size.
  proto.start(nid(1));
  for (std::uint32_t i = 2; i < 2 + 2 * Scamp::kPartialIndexThreshold; ++i) {
    // Replace a never-present id (no-op) then subscribe-keep via the
    // empty-view bootstrap is unavailable — use ScampReplace on a present
    // member to exercise erase+add at the same time.
    const NodeId present = proto.partial_view().front();
    proto.handle(nid(999999), wire::ScampReplace{present, nid(i)});
    ASSERT_TRUE(proto.in_partial(nid(i)));
    ASSERT_FALSE(proto.in_partial(present));
    // Re-add the displaced member through a forwarded sub until kept.
    int guard = 0;
    while (!proto.in_partial(present) && ++guard < 10'000) {
      proto.handle(nid(i), wire::ScampForwardedSub{present, 1});
    }
    ASSERT_TRUE(proto.in_partial(present)) << "forwarded sub never kept";
    ASSERT_EQ(proto.partial_view().size(), i);  // grew by one per round
  }
  EXPECT_TRUE(proto.partial_index_active());
  // Every member answers true; a sample of absent ids answers false.
  for (const NodeId& n : proto.partial_view()) {
    EXPECT_TRUE(proto.in_partial(n));
  }
  for (std::uint32_t u = 500'000; u < 500'050; ++u) {
    EXPECT_FALSE(proto.in_partial(nid(u)));
  }
}

/// Fixed-seed determinism at network scale: two identical Scamp bootstraps
/// must agree event-for-event and view-for-view — the flat-hash index is
/// pure lookup mechanics, invisible to protocol decisions.
TEST(ScampScaleTest, BootstrapDeterministicViewsAndEventCounts) {
  auto build = [](std::uint64_t seed) {
    auto cfg = harness::NetworkConfig::defaults_for(
        harness::ProtocolKind::kScamp, 600, seed);
    auto net = std::make_unique<harness::SimBackend>(cfg);
    net->build();
    return net;
  };
  auto a = build(91);
  auto b = build(91);
  EXPECT_EQ(a->simulator().events_processed(),
            b->simulator().events_processed());
  EXPECT_EQ(a->simulator().messages_sent(), b->simulator().messages_sent());
  for (std::size_t i = 0; i < a->node_count(); ++i) {
    const auto& sa = static_cast<Scamp&>(a->protocol(i));
    const auto& sb = static_cast<Scamp&>(b->protocol(i));
    ASSERT_EQ(sa.partial_view(), sb.partial_view()) << "node " << i;
    ASSERT_EQ(sa.in_view(), sb.in_view()) << "node " << i;
  }
}

/// Regression bound on the subscription-walk bootstrap: the event count is
/// deterministic per seed and protocol-inherent (~n·(c+1)·ln n forwarded
/// copies); a future change that loops or re-forwards pathologically
/// would blow straight past the 2x headroom here.
TEST(ScampScaleTest, BootstrapEventCountStaysBounded) {
  auto cfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kScamp, 2000, 42);
  harness::SimBackend net(cfg);
  net.build();
  const std::uint64_t events = net.simulator().events_processed();
  // Measured at this seed: ~1.34M events for 2000 joins. Bound with ~1.9x
  // headroom; also assert a sane floor so a silently skipped bootstrap
  // cannot pass.
  EXPECT_LT(events, 2'500'000u);
  EXPECT_GT(events, 200'000u);
  // Views came out at the Scamp steady state: mean |PartialView| near
  // (c+1)·ln(n) ≈ 38 for c=4, n=2000.
  double total = 0.0;
  for (std::size_t i = 0; i < net.node_count(); ++i) {
    total += static_cast<double>(
        static_cast<Scamp&>(net.protocol(i)).partial_view().size());
  }
  const double mean = total / static_cast<double>(net.node_count());
  EXPECT_GT(mean, 15.0);
  EXPECT_LT(mean, 80.0);
}

}  // namespace
}  // namespace hyparview::baselines
