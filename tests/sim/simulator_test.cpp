#include "hyparview/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <variant>
#include <vector>

namespace hyparview::sim {
namespace {

/// Records every upcall for assertions.
class RecordingHandler final : public membership::Endpoint {
 public:
  struct Delivery {
    NodeId from;
    wire::Message msg;
  };
  struct Failure {
    NodeId to;
    wire::Message msg;
  };

  void deliver(const NodeId& from, const wire::Message& msg) override {
    deliveries.push_back({from, msg});
  }
  void send_failed(const NodeId& to, const wire::Message& msg) override {
    failures.push_back({to, msg});
  }
  void link_closed(const NodeId& peer) override {
    closed_links.push_back(peer);
  }

  std::vector<Delivery> deliveries;
  std::vector<Failure> failures;
  std::vector<NodeId> closed_links;
};

class SimulatorTest : public ::testing::Test {
 protected:
  SimConfig config_{};
};

TEST_F(SimulatorTest, AddNodesAssignsDenseIndices) {
  Simulator sim(config_);
  RecordingHandler h;
  EXPECT_EQ(sim.add_node(&h), NodeId::from_index(0));
  EXPECT_EQ(sim.add_node(&h), NodeId::from_index(1));
  EXPECT_EQ(sim.node_count(), 2u);
  EXPECT_EQ(sim.alive_count(), 2u);
}

TEST_F(SimulatorTest, DeliversMessageWithLatency) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);

  sim.env(a).send(b, wire::Join{});
  EXPECT_TRUE(hb.deliveries.empty());  // asynchronous
  sim.run_until_quiescent();
  ASSERT_EQ(hb.deliveries.size(), 1u);
  EXPECT_EQ(hb.deliveries[0].from, a);
  EXPECT_TRUE(std::holds_alternative<wire::Join>(hb.deliveries[0].msg));
  EXPECT_GE(sim.now(), config_.latency_min);
  EXPECT_LE(sim.now(), config_.latency_max);
}

TEST_F(SimulatorTest, SendOpensSymmetricLink) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  EXPECT_FALSE(sim.linked(a, b));
  sim.env(a).send(b, wire::Join{});
  EXPECT_TRUE(sim.linked(a, b));
  EXPECT_TRUE(sim.linked(b, a));
}

TEST_F(SimulatorTest, DisconnectClosesLocallyThenNotifiesRemote) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.env(a).send(b, wire::Join{});
  sim.env(b).disconnect(a);
  // b's side closes immediately; a still holds a half-open link until the
  // FIN notification is dispatched.
  EXPECT_FALSE(sim.linked(b, a) && !sim.linked(a, b));
  sim.run_until_quiescent();
  EXPECT_FALSE(sim.linked(a, b));
  EXPECT_FALSE(sim.linked(b, a));
  ASSERT_EQ(ha.closed_links.size(), 1u);
  EXPECT_EQ(ha.closed_links[0], b);
}

TEST_F(SimulatorTest, MutualDisconnectSuppressesNotifications) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.env(a).send(b, wire::Join{});
  // Both ends close (the polite DISCONNECT pattern): nobody is notified.
  sim.env(a).disconnect(b);
  sim.env(b).disconnect(a);
  sim.run_until_quiescent();
  EXPECT_TRUE(ha.closed_links.empty());
  EXPECT_TRUE(hb.closed_links.empty());
}

TEST_F(SimulatorTest, CloseNotificationArrivesAfterInFlightMessages) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  // Message then immediate close: the data must be processed first, like a
  // FIN queued behind the stream.
  sim.env(a).send(b, wire::Disconnect{});
  sim.env(a).disconnect(b);
  bool saw_msg_first = false;
  while (sim.step()) {
    if (!hb.deliveries.empty() && hb.closed_links.empty()) {
      saw_msg_first = true;
    }
  }
  EXPECT_TRUE(saw_msg_first);
  ASSERT_EQ(hb.deliveries.size(), 1u);
}

TEST_F(SimulatorTest, SendToCrashedNodeFailsBack) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.crash(b);
  sim.env(a).send(b, wire::Neighbor{true});
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  ASSERT_EQ(ha.failures.size(), 1u);
  EXPECT_EQ(ha.failures[0].to, b);
  EXPECT_TRUE(std::holds_alternative<wire::Neighbor>(ha.failures[0].msg));
  EXPECT_EQ(sim.sends_failed(), 1u);
}

TEST_F(SimulatorTest, CrashWhileInFlightAlsoFailsBack) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.env(a).send(b, wire::Join{});
  sim.crash(b);  // after send, before delivery
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  ASSERT_EQ(ha.failures.size(), 1u);
}

TEST_F(SimulatorTest, DetectOnSendDoesNotNotifyPeersOfCrash) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.env(a).send(b, wire::Join{});
  sim.run_until_quiescent();
  sim.crash(b);
  sim.run_until_quiescent();
  EXPECT_TRUE(ha.closed_links.empty());
}

TEST_F(SimulatorTest, NotifyOnCrashClosesLinks) {
  config_.notify_on_crash = true;
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.env(a).send(b, wire::Join{});
  sim.run_until_quiescent();
  sim.crash(b);
  sim.run_until_quiescent();
  ASSERT_EQ(ha.closed_links.size(), 1u);
  EXPECT_EQ(ha.closed_links[0], b);
}

TEST_F(SimulatorTest, CrashedNodeSendsNothing) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.crash(a);
  sim.env(a).send(b, wire::Join{});
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  EXPECT_EQ(sim.messages_sent(), 0u);
}

// --- Blocked (slow) node semantics: uniformly inert -------------------------
// A frozen process must not initiate anything: do_send already refused, and
// these pin the dial-out paths to the same rule (regression tests for the
// blocked-node inconsistency where a blocked node could still connect() and
// have connect callbacks fire while its timers were dropped). Completions
// the *network* hands a blocked node are the flip side: they buffer and
// replay on unblock — dropping them would silently wedge protocol state
// machines waiting on a dial or send outcome.

TEST_F(SimulatorTest, BlockedNodeCannotDialOut) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(a);
  bool called = false;
  sim.env(a).connect(b, [&](bool) { called = true; });
  sim.run_until_quiescent();
  EXPECT_FALSE(called) << "a frozen process reached its dial loop";
  EXPECT_FALSE(sim.linked(a, b));
  EXPECT_EQ(sim.connections_opened(), 0u);
  // The dial never left the frozen process, so unblocking resurrects
  // nothing.
  sim.unblock(a);
  sim.run_until_quiescent();
  EXPECT_FALSE(called);
  EXPECT_FALSE(sim.linked(a, b));
}

TEST_F(SimulatorTest, ConnectResultBuffersWhileBlockedAndReplaysOnUnblock) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  bool called = false;
  bool result = false;
  sim.env(a).connect(b, [&](bool ok) {
    called = true;
    result = ok;
  });
  sim.block(a);  // freezes after dialing, before the result arrives
  sim.run_until_quiescent();
  // The kernel completed the handshake (the link exists) but the frozen
  // application has not observed the completion yet.
  EXPECT_FALSE(called);
  EXPECT_TRUE(sim.linked(a, b));
  sim.unblock(a);
  sim.run_until_quiescent();
  EXPECT_TRUE(called);
  EXPECT_TRUE(result);
}

TEST_F(SimulatorTest, SendFailureBuffersWhileBlockedAndReplaysOnUnblock) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.crash(b);
  sim.env(a).send(b, wire::Join{});
  sim.block(a);  // freezes before the RST comes back
  sim.run_until_quiescent();
  EXPECT_TRUE(ha.failures.empty());
  EXPECT_EQ(sim.sends_failed(), 1u);  // counted when the RST arrived
  sim.unblock(a);
  sim.run_until_quiescent();
  ASSERT_EQ(ha.failures.size(), 1u);
  EXPECT_EQ(ha.failures[0].to, b);
  EXPECT_EQ(sim.sends_failed(), 1u);  // the replay is not double-counted
}

TEST_F(SimulatorTest, BlockedNodeStillAcceptsInboundDials) {
  // Blocking freezes the application, not the peer's kernel handshake: an
  // inbound dial from a live node still succeeds (§5.5 — senders only give
  // up once the flow-control window toward the frozen node fills).
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  bool ok = false;
  sim.env(a).connect(b, [&](bool result) { ok = result; });
  sim.run_until_quiescent();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(sim.linked(a, b));
}

TEST_F(SimulatorTest, ConnectToAliveSucceeds) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  bool called = false;
  bool result = false;
  sim.env(a).connect(b, [&](bool ok) {
    called = true;
    result = ok;
  });
  EXPECT_FALSE(called);  // asynchronous
  sim.run_until_quiescent();
  EXPECT_TRUE(called);
  EXPECT_TRUE(result);
  EXPECT_TRUE(sim.linked(a, b));
}

TEST_F(SimulatorTest, ConnectToCrashedFails) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  sim.crash(b);
  bool result = true;
  sim.env(a).connect(b, [&](bool ok) { result = ok; });
  sim.run_until_quiescent();
  EXPECT_FALSE(result);
  EXPECT_FALSE(sim.linked(a, b));
}

TEST_F(SimulatorTest, ScheduleRunsTask) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  int runs = 0;
  sim.env(a).schedule(milliseconds(5), [&] { ++runs; });
  sim.run_until_quiescent();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.now(), milliseconds(5));
}

TEST_F(SimulatorTest, ScheduledTaskDroppedIfNodeCrashes) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  int runs = 0;
  sim.env(a).schedule(milliseconds(5), [&] { ++runs; });
  sim.crash(a);
  sim.run_until_quiescent();
  EXPECT_EQ(runs, 0);
}

TEST_F(SimulatorTest, TimeAdvancesMonotonically) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  std::vector<TimePoint> times;
  for (int i = 0; i < 10; ++i) {
    sim.env(a).send(b, wire::Gossip{static_cast<std::uint64_t>(i), 0, 0});
  }
  TimePoint last = -1;
  while (sim.step()) {
    EXPECT_GE(sim.now(), last);
    last = sim.now();
  }
}

TEST_F(SimulatorTest, FifoAmongEqualTimestamps) {
  // With zero latency, messages between the same pair keep send order.
  config_.latency_min = 0;
  config_.latency_max = 0;
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  for (std::uint64_t i = 0; i < 20; ++i) {
    sim.env(a).send(b, wire::Gossip{i, 0, 0});
  }
  sim.run_until_quiescent();
  ASSERT_EQ(hb.deliveries.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(std::get<wire::Gossip>(hb.deliveries[i].msg).msg_id, i);
  }
}

TEST_F(SimulatorTest, CountersTrackTraffic) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  sim.env(a).send(b, wire::Join{});
  sim.env(a).send(b, wire::Disconnect{});
  sim.run_until_quiescent();
  EXPECT_EQ(sim.messages_sent(), 2u);
  EXPECT_EQ(sim.messages_delivered(), 2u);
  EXPECT_EQ(sim.sent_by_type()[wire::type_tag(wire::Message{wire::Join{}})],
            1u);
}

TEST_F(SimulatorTest, ByteCountersChargeWireCostPerSend) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  const wire::Message join = wire::Join{};
  const wire::Message gossip = wire::Gossip{7, 0, 128};
  sim.env(a).send(b, join);
  sim.env(a).send(b, gossip);
  sim.run_until_quiescent();
  EXPECT_EQ(sim.bytes_sent(), wire::wire_cost(join) + wire::wire_cost(gossip));
  EXPECT_EQ(sim.bytes_by_type()[wire::type_tag(gossip)],
            wire::wire_cost(gossip));
}

TEST_F(SimulatorTest, ConnectionCounterCountsEstablishmentsOnce) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  const NodeId c = sim.add_node(&h);
  // Two sends over one (implicitly dialed) link: one handshake.
  sim.env(a).send(b, wire::Join{});
  sim.env(a).send(b, wire::Disconnect{});
  sim.run_until_quiescent();
  EXPECT_EQ(sim.connections_opened(), 1u);
  // Explicit connect to a fresh peer: a second handshake.
  bool connected = false;
  sim.env(a).connect(c, [&](bool ok) { connected = ok; });
  sim.run_until_quiescent();
  EXPECT_TRUE(connected);
  EXPECT_EQ(sim.connections_opened(), 2u);
  // connect() over the already-open link is free.
  sim.env(a).connect(c, [](bool) {});
  sim.run_until_quiescent();
  EXPECT_EQ(sim.connections_opened(), 2u);
  // Failed sends never open connections.
  sim.crash(c);
  sim.env(a).send(c, wire::Join{});
  sim.run_until_quiescent();
  EXPECT_EQ(sim.connections_opened(), 2u);
}

TEST_F(SimulatorTest, DeterministicAcrossRuns) {
  auto run_digest = [&]() {
    Simulator sim(config_);
    RecordingHandler ha;
    RecordingHandler hb;
    const NodeId a = sim.add_node(&ha);
    const NodeId b = sim.add_node(&hb);
    for (std::uint64_t i = 0; i < 50; ++i) {
      sim.env(a).send(b, wire::Gossip{i, 0, 0});
      sim.env(b).send(a, wire::Gossip{100 + i, 0, 0});
    }
    sim.run_until_quiescent();
    return sim.now();
  };
  EXPECT_EQ(run_digest(), run_digest());
}

TEST_F(SimulatorTest, PerNodeRngStreamsDiffer) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (sim.env(a).rng().next() == sim.env(b).rng().next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST_F(SimulatorTest, AliveCountTracksCrashes) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  sim.add_node(&h);
  sim.add_node(&h);
  EXPECT_EQ(sim.alive_count(), 3u);
  sim.crash(a);
  EXPECT_EQ(sim.alive_count(), 2u);
  sim.crash(a);  // idempotent
  EXPECT_EQ(sim.alive_count(), 2u);
  EXPECT_FALSE(sim.alive(a));
}

TEST_F(SimulatorTest, FixedLatencyExactDeliveryTime) {
  config_.latency_min = milliseconds(3);
  config_.latency_max = milliseconds(3);
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  sim.env(a).send(b, wire::Join{});
  sim.run_until_quiescent();
  EXPECT_EQ(sim.now(), milliseconds(3));
}

TEST_F(SimulatorTest, InvertedLatencyBandRejectedAtConstruction) {
  config_.latency_min = milliseconds(5);
  config_.latency_max = milliseconds(2);
  EXPECT_THROW(Simulator{config_}, CheckError);
}

TEST_F(SimulatorTest, NegativeLatencyMinRejectedAtConstruction) {
  config_.latency_min = -milliseconds(1);
  config_.latency_max = milliseconds(2);
  EXPECT_THROW(Simulator{config_}, CheckError);
}

TEST_F(SimulatorTest, SetLatencyRejectsInvertedBandAndKeepsOldBand) {
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  EXPECT_THROW(sim.set_latency(milliseconds(9), milliseconds(1)), CheckError);
  EXPECT_THROW(sim.set_latency(-milliseconds(1), milliseconds(1)), CheckError);
  // The failed calls must not have disturbed the configured band.
  sim.env(a).send(b, wire::Join{});
  sim.run_until_quiescent();
  EXPECT_GE(sim.now(), config_.latency_min);
  EXPECT_LE(sim.now(), config_.latency_max);
}

TEST_F(SimulatorTest, SetLatencyZeroWidthBandIsValid) {
  // min == max is a legitimate degenerate band (deterministic-latency
  // experiments); draw_latency must not divide/modulo by the zero width.
  Simulator sim(config_);
  RecordingHandler h;
  const NodeId a = sim.add_node(&h);
  const NodeId b = sim.add_node(&h);
  sim.set_latency(milliseconds(7), milliseconds(7));
  sim.env(a).send(b, wire::Join{});
  sim.run_until_quiescent();
  EXPECT_EQ(sim.now(), milliseconds(7));
  ASSERT_EQ(h.deliveries.size(), 1u);
}

// --- every wire frame crosses the simulator unchanged ----------------------
//
// Small frames ride inside the queued event and the four list frames take a
// slab slot; either way a frame must reach the receiver, or come back to
// the sender at send_failed, exactly as it was sent.

/// One frame of every wire alternative, in tag order, with every field
/// non-default; the four list frames carry full-capacity lists.
std::vector<wire::Message> every_frame() {
  const NodeId x{0x0a000001u, 4242};
  const NodeId y{0x0a000002u, 4343};
  wire::ShuffleList entries;
  wire::ShuffleList sent;
  for (std::uint32_t i = 0; i < wire::ShuffleList::kCapacity; ++i) {
    entries.push_back(NodeId{100 + i, static_cast<std::uint16_t>(7 + i)});
    sent.push_back(NodeId{200 + i, static_cast<std::uint16_t>(9 + i)});
  }
  wire::AgedList aged;
  wire::AgedList aged_reply;
  for (std::uint32_t i = 0; i < wire::AgedList::kCapacity; ++i) {
    aged.push_back({NodeId{300 + i, 1}, static_cast<std::uint16_t>(40 + i)});
    aged_reply.push_back(
        {NodeId{400 + i, 2}, static_cast<std::uint16_t>(60 + i)});
  }
  std::vector<wire::Message> frames = {
      wire::Join{},
      wire::ForwardJoin{x, 6},
      wire::ForwardJoinAccept{},
      wire::Disconnect{},
      wire::Neighbor{true},
      wire::NeighborReply{true},
      wire::Shuffle{x, 5, entries},
      wire::ShuffleReply{sent, entries},
      wire::CyclonShuffle{aged},
      wire::CyclonShuffleReply{aged_reply},
      wire::CyclonJoinWalk{y, 4},
      wire::CyclonJoinGift{wire::AgedId{y, 9}},
      wire::ScampSubscribe{x},
      wire::ScampForwardedSub{y, 77},
      wire::ScampInViewNotify{},
      wire::ScampReplace{x, y},
      wire::ScampHeartbeat{},
      wire::Gossip{0x0123456789abcdefull, 11, 4096},
      wire::GossipAck{0xfedcba9876543210ull},
      wire::Hello{y},
      wire::TreeGossip{0x1111222233334444ull, 12, 999},
      wire::IHave{0x5555666677778888ull, 13},
      wire::Graft{0x9999aaaabbbbccccull},
      wire::Prune{},
  };
  return frames;
}

template <typename Records>
void expect_frames(const Records& records, const NodeId& peer) {
  const std::vector<wire::Message> frames = every_frame();
  ASSERT_EQ(records.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(records[i].msg == frames[i])
        << "frame " << wire::type_name(frames[i]) << " changed in transit";
    EXPECT_EQ(records[i].msg.index(), i);
  }
  for (const auto& r : records) {
    if constexpr (requires { r.from; }) {
      EXPECT_EQ(r.from, peer);
    } else {
      EXPECT_EQ(r.to, peer);
    }
  }
}

void send_every_frame(Simulator& sim, const NodeId& from, const NodeId& to) {
  for (const wire::Message& m : every_frame()) sim.env(from).send(to, m);
}

TEST_F(SimulatorTest, EveryFrameSampleCoversEveryAlternative) {
  const std::vector<wire::Message> frames = every_frame();
  ASSERT_EQ(frames.size(), std::variant_size_v<wire::Message>);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].index(), i);
  }
}

TEST_F(SimulatorTest, EveryFrameArrivesUnchanged) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  send_every_frame(sim, a, b);
  sim.run_until_quiescent();
  expect_frames(hb.deliveries, a);
  EXPECT_TRUE(ha.failures.empty());
}

TEST_F(SimulatorTest, EveryFrameFailsBackUnchangedFromADeadTarget) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.crash(b);
  send_every_frame(sim, a, b);
  sim.run_until_quiescent();
  expect_frames(ha.failures, b);
  EXPECT_TRUE(hb.deliveries.empty());
}

TEST_F(SimulatorTest, EveryFrameFailsBackUnchangedWhenTheTargetCrashesInFlight) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  send_every_frame(sim, a, b);
  sim.crash(b);
  sim.run_until_quiescent();
  expect_frames(ha.failures, b);
  EXPECT_TRUE(hb.deliveries.empty());
}

TEST_F(SimulatorTest, EveryFrameFailsBackUnchangedFromAFullBlockedInbox) {
  config_.link_send_buffer = 0;  // a blocked receiver refuses every frame
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  send_every_frame(sim, a, b);
  sim.run_until_quiescent();
  expect_frames(ha.failures, b);
}

TEST_F(SimulatorTest, EveryFrameArrivesUnchangedAfterBlockUnblockReplay) {
  config_.link_send_buffer = std::variant_size_v<wire::Message>;
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.block(b);
  send_every_frame(sim, a, b);
  sim.run_until_quiescent();
  EXPECT_TRUE(hb.deliveries.empty());
  sim.unblock(b);
  sim.run_until_quiescent();
  expect_frames(hb.deliveries, a);
  EXPECT_TRUE(ha.failures.empty());
}

TEST_F(SimulatorTest, EveryFailedFrameReplaysUnchangedAfterBlockUnblock) {
  Simulator sim(config_);
  RecordingHandler ha;
  RecordingHandler hb;
  const NodeId a = sim.add_node(&ha);
  const NodeId b = sim.add_node(&hb);
  sim.crash(b);
  send_every_frame(sim, a, b);
  sim.block(a);  // freezes before the RSTs come back
  sim.run_until_quiescent();
  EXPECT_TRUE(ha.failures.empty());
  sim.unblock(a);
  sim.run_until_quiescent();
  expect_frames(ha.failures, b);
}

}  // namespace
}  // namespace hyparview::sim
