#include "hyparview/net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace hyparview::net {
namespace {

class RecordingEndpoint final : public membership::Endpoint {
 public:
  void deliver(const NodeId& from, const wire::Message& msg) override {
    deliveries.emplace_back(from, msg);
  }
  void send_failed(const NodeId& to, const wire::Message& msg) override {
    failures.emplace_back(to, msg);
  }
  void link_closed(const NodeId& peer) override {
    closed_links.push_back(peer);
  }

  std::vector<std::pair<NodeId, wire::Message>> deliveries;
  std::vector<std::pair<NodeId, wire::Message>> failures;
  std::vector<NodeId> closed_links;
};

class TcpTransportTest : public ::testing::Test {
 protected:
  std::unique_ptr<TcpTransport> make_transport(RecordingEndpoint* ep,
                                               std::uint64_t seed = 1) {
    TcpTransportConfig cfg;
    cfg.rng_seed = seed;
    return std::make_unique<TcpTransport>(loop_, ep, cfg);
  }

  EventLoop loop_;
};

TEST_F(TcpTransportTest, BindsEphemeralPortOnLoopback) {
  RecordingEndpoint ep;
  auto t = make_transport(&ep);
  EXPECT_EQ(t->local_id().ip, 0x7F000001u);
  EXPECT_NE(t->local_id().port, 0u);
}

TEST_F(TcpTransportTest, DistinctTransportsGetDistinctPorts) {
  RecordingEndpoint ep;
  auto a = make_transport(&ep);
  auto b = make_transport(&ep);
  EXPECT_NE(a->local_id(), b->local_id());
}

TEST_F(TcpTransportTest, SendDeliversMessage) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  a->send(b->local_id(), wire::Join{});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  EXPECT_EQ(eb.deliveries[0].first, a->local_id());
  EXPECT_TRUE(std::holds_alternative<wire::Join>(eb.deliveries[0].second));
}

TEST_F(TcpTransportTest, ManyMessagesArriveInOrder) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  constexpr std::uint64_t kCount = 500;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    a->send(b->local_id(), wire::Gossip{i, 0, 0});
  }
  ASSERT_TRUE(loop_.run_until(
      [&] { return eb.deliveries.size() == kCount; }, seconds(10)));
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(std::get<wire::Gossip>(eb.deliveries[i].second).msg_id, i);
  }
}

TEST_F(TcpTransportTest, BurstOfMaxCapacityFramesRoundTrips) {
  // The flat codec bounds every frame, so the old multi-megabyte
  // single-frame case is impossible by design. What the stream parser must
  // still handle is a burst of back-to-back frames arriving in arbitrary
  // read-chunk alignments: thousands of max-capacity shuffles sent in one
  // go exercise reassembly across frame boundaries.
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  wire::Shuffle big;
  big.origin = a->local_id();
  big.ttl = 3;
  for (std::uint32_t i = 0; i < wire::kMaxShuffleEntries; ++i) {
    big.entries.push_back(NodeId{i, 1});
  }
  constexpr std::size_t kFrames = 3'000;
  for (std::size_t i = 0; i < kFrames; ++i) {
    a->send(b->local_id(), big);
  }
  ASSERT_TRUE(loop_.run_until([&] { return eb.deliveries.size() >= kFrames; },
                              seconds(10)));
  for (const auto& [from, msg] : eb.deliveries) {
    ASSERT_EQ(std::get<wire::Shuffle>(msg).entries, big.entries);
  }
}

TEST_F(TcpTransportTest, BidirectionalTrafficOverOneLink) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  a->send(b->local_id(), wire::Gossip{1, 0, 0});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  b->send(a->local_id(), wire::Gossip{2, 0, 0});
  ASSERT_TRUE(loop_.run_until([&] { return !ea.deliveries.empty(); },
                              seconds(5)));
  EXPECT_EQ(std::get<wire::Gossip>(ea.deliveries[0].second).msg_id, 2u);
}

TEST_F(TcpTransportTest, ConnectToLiveTransportSucceeds) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  bool called = false;
  bool ok = false;
  a->connect(b->local_id(), [&](bool result) {
    called = true;
    ok = result;
  });
  ASSERT_TRUE(loop_.run_until([&] { return called; }, seconds(5)));
  EXPECT_TRUE(ok);
}

/// A port nothing listens on: bound by a transport that is then shut down.
NodeId dead_port(EventLoop& loop) {
  RecordingEndpoint ep;
  TcpTransport tmp(loop, &ep, TcpTransportConfig{});
  const NodeId dead = tmp.local_id();
  tmp.shutdown();
  return dead;
}

TEST_F(TcpTransportTest, ConnectToDeadPortFails) {
  RecordingEndpoint ea;
  auto a = make_transport(&ea, 1);
  const NodeId dead = dead_port(loop_);
  bool called = false;
  bool ok = true;
  a->connect(dead, [&](bool result) {
    called = true;
    ok = result;
  });
  ASSERT_TRUE(loop_.run_until([&] { return called; }, seconds(5)));
  EXPECT_FALSE(ok);
}

TEST_F(TcpTransportTest, SendToDeadPortReportsFailure) {
  RecordingEndpoint ea;
  auto a = make_transport(&ea, 1);
  const NodeId dead = dead_port(loop_);
  a->send(dead, wire::Neighbor{true});
  ASSERT_TRUE(
      loop_.run_until([&] { return !ea.failures.empty(); }, seconds(5)));
  EXPECT_EQ(ea.failures[0].first, dead);
  EXPECT_TRUE(std::holds_alternative<wire::Neighbor>(ea.failures[0].second));
}

TEST_F(TcpTransportTest, PeerShutdownReportsLinkClosed) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  a->send(b->local_id(), wire::Join{});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  b->shutdown();
  ASSERT_TRUE(loop_.run_until([&] { return !ea.closed_links.empty(); },
                              seconds(5)));
  EXPECT_EQ(ea.closed_links[0], b->local_id());
}

TEST_F(TcpTransportTest, GracefulDisconnectDoesNotNotifyInitiator) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  a->send(b->local_id(), wire::Join{});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  a->disconnect(b->local_id());
  loop_.run_until([] { return false; }, milliseconds(200));
  EXPECT_TRUE(ea.closed_links.empty());
  EXPECT_TRUE(ea.failures.empty());
}

TEST_F(TcpTransportTest, DisconnectFlushesPendingMessageFirst) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  // DISCONNECT courtesy pattern: message then teardown.
  a->send(b->local_id(), wire::Disconnect{});
  a->disconnect(b->local_id());
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  EXPECT_TRUE(
      std::holds_alternative<wire::Disconnect>(eb.deliveries[0].second));
}

TEST_F(TcpTransportTest, SimultaneousDialsBothDirectionsStillDeliver) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  a->send(b->local_id(), wire::Gossip{1, 0, 0});
  b->send(a->local_id(), wire::Gossip{2, 0, 0});
  ASSERT_TRUE(loop_.run_until(
      [&] { return !ea.deliveries.empty() && !eb.deliveries.empty(); },
      seconds(5)));
  EXPECT_EQ(std::get<wire::Gossip>(eb.deliveries[0].second).msg_id, 1u);
  EXPECT_EQ(std::get<wire::Gossip>(ea.deliveries[0].second).msg_id, 2u);
}

// --- the output buffer -------------------------------------------------

TEST_F(TcpTransportTest, FramesQueuedOnAFailedDialComeBackOnceInOrder) {
  RecordingEndpoint ea;
  auto a = make_transport(&ea, 1);
  const NodeId dead = dead_port(loop_);

  // All queued while the dial is in flight, behind the HELLO.
  constexpr std::uint64_t kFrames = 50;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    a->send(dead, wire::Gossip{1000 + i, static_cast<std::uint16_t>(i), 7});
  }
  ASSERT_TRUE(loop_.run_until(
      [&] { return ea.failures.size() >= kFrames; }, seconds(5)));
  loop_.run_until([] { return false; }, milliseconds(50));  // no stragglers
  ASSERT_EQ(ea.failures.size(), kFrames) << "each frame fails exactly once";
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(ea.failures[i].first, dead);
    const auto* g = std::get_if<wire::Gossip>(&ea.failures[i].second);
    ASSERT_NE(g, nullptr) << "the HELLO never comes back";
    EXPECT_EQ(g->msg_id, 1000 + i);
    EXPECT_EQ(g->hops, i);
    EXPECT_EQ(g->payload_size, 7u);
  }
  EXPECT_EQ(a->stats().send_failures, kFrames);
}

TEST_F(TcpTransportTest, FramesQueuedInOneIterationShareSendCalls) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);
  a->send(b->local_id(), wire::Gossip{0, 0, 0});
  ASSERT_TRUE(loop_.run_until([&] { return eb.deliveries.size() == 1; },
                              seconds(5)));

  const std::uint64_t calls_before = a->stats().send_calls;
  constexpr std::uint64_t kFrames = 1'000;
  for (std::uint64_t i = 1; i <= kFrames; ++i) {
    a->send(b->local_id(), wire::Gossip{i, 0, 0});
  }
  EXPECT_EQ(a->stats().send_calls, calls_before) << "send() only queues";
  ASSERT_TRUE(loop_.run_until(
      [&] { return eb.deliveries.size() == kFrames + 1; }, seconds(10)));
  for (std::uint64_t i = 0; i <= kFrames; ++i) {
    ASSERT_EQ(std::get<wire::Gossip>(eb.deliveries[i].second).msg_id, i);
  }
  EXPECT_LT((a->stats().send_calls - calls_before) * 10, kFrames);
}

TEST_F(TcpTransportTest, RunUntilReturnsWithNoFrameLeftInUserSpace) {
  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);
  a->send(b->local_id(), wire::Join{});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));

  // Queued by a timer during the call: the exit pass flushes it, so the
  // sender may be torn down (a crash) the moment control returns.
  bool queued = false;
  loop_.schedule(0, [&] {
    a->send(b->local_id(), wire::Gossip{42, 0, 0});
    queued = true;
  });
  ASSERT_TRUE(loop_.run_until([&] { return queued; }, seconds(5)));
  const std::uint64_t sent = a->stats().bytes_sent;
  a->shutdown();
  EXPECT_EQ(a->stats().bytes_sent, sent);
  ASSERT_TRUE(loop_.run_until([&] { return eb.deliveries.size() == 2; },
                              seconds(5)));
  EXPECT_EQ(std::get<wire::Gossip>(eb.deliveries[1].second).msg_id, 42u);
}

TEST_F(TcpTransportTest, StalledReaderIsEvictedAtTheOutputCap) {
  // A peer that accepts and never reads: the kernel's buffers fill, then
  // the sender's own buffer, until the cap closes the link.
  Fd listener(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  ASSERT_TRUE(listener.valid());
  const int small = 4096;  // a small receive window fills sooner
  ::setsockopt(listener.get(), SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(0x7F000001);
  ASSERT_EQ(::bind(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener.get(), 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener.get(), reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  const NodeId stalled{0x7F000001, ntohs(addr.sin_port)};

  RecordingEndpoint ea;
  RecordingEndpoint eb;
  auto a = make_transport(&ea, 1);
  auto b = make_transport(&eb, 2);

  wire::Shuffle big;
  big.origin = a->local_id();
  for (std::uint32_t i = 0; i < wire::kMaxShuffleEntries; ++i) {
    big.entries.push_back(NodeId{i, 1});
  }
  const std::uint64_t frame_bytes = 4 + wire::encoded_size(big);
  const std::uint64_t hello_bytes =
      4 + wire::encoded_size(wire::Hello{a->local_id()});
  Fd accepted;
  std::uint64_t queued = 0;
  // Rounds well under the cap each, flushed in between. The kernel takes
  // a few MB before the cap can fill; the bound (about 5x the cap) fails
  // the test instead of hanging if it takes without limit.
  while (a->stats().output_overflows == 0 && queued < 200'000) {
    for (int i = 0; i < 1024 && a->stats().output_overflows == 0; ++i) {
      a->send(stalled, big);
      ++queued;
    }
    loop_.run_until([] { return false; }, milliseconds(1));
    if (!accepted.valid()) {
      accepted.reset(::accept(listener.get(), nullptr, nullptr));
    }
  }
  ASSERT_EQ(a->stats().output_overflows, 1u);
  EXPECT_LE(a->stats().peak_output_bytes, TcpTransport::kMaxOutputBytes);
  EXPECT_GT(a->stats().peak_output_bytes,
            TcpTransport::kMaxOutputBytes - frame_bytes);
  ASSERT_EQ(ea.closed_links.size(), 1u);
  EXPECT_EQ(ea.closed_links[0], stalled);
  // Every frame the kernel did not take whole (the one past the cap
  // included) fails exactly once.
  const std::uint64_t taken_whole =
      (a->stats().bytes_sent - hello_bytes) / frame_bytes;
  ASSERT_EQ(ea.failures.size(), queued - taken_whole);
  for (const auto& [to, msg] : ea.failures) {
    EXPECT_EQ(to, stalled);
    EXPECT_TRUE(std::holds_alternative<wire::Shuffle>(msg));
  }
  EXPECT_EQ(a->stats().send_failures, ea.failures.size());
  EXPECT_EQ(a->connection_count(), 0u);

  // The same transport still talks to a healthy peer.
  a->send(b->local_id(), wire::Gossip{9, 0, 0});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  EXPECT_EQ(std::get<wire::Gossip>(eb.deliveries[0].second).msg_id, 9u);
}

// --- malicious peers ---------------------------------------------------
// A raw socket speaking garbage at the transport: each hostile frame may
// cost only its own connection (closed + counted in TransportStats), never
// the epoll loop or other peers' traffic. The adversarial tier's TCP story
// rests on these bounds.

/// Plain blocking loopback socket to `to` — a peer outside the transport's
/// framing discipline. Loopback connects complete via the listen backlog,
/// so the event loop need not run first.
class RawSocket {
 public:
  explicit RawSocket(const NodeId& to) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(to.port);
    addr.sin_addr.s_addr = htonl(to.ip);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Length-prefixed frame with an arbitrary (possibly lying) prefix.
  void send_frame(std::uint32_t claimed_len,
                  const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> frame;
    frame.push_back(static_cast<std::uint8_t>(claimed_len));
    frame.push_back(static_cast<std::uint8_t>(claimed_len >> 8));
    frame.push_back(static_cast<std::uint8_t>(claimed_len >> 16));
    frame.push_back(static_cast<std::uint8_t>(claimed_len >> 24));
    frame.insert(frame.end(), body.begin(), body.end());
    send_bytes(frame);
  }

  /// True once the transport closed its side (read returns 0 or error).
  [[nodiscard]] bool closed_by_peer() {
    std::uint8_t buf[64];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST_F(TcpTransportTest, OversizedFrameHeaderClosesOnlyThatConnection) {
  RecordingEndpoint eb;
  auto b = make_transport(&eb, 2);

  RawSocket attacker(b->local_id());
  ASSERT_TRUE(attacker.connected());
  // A length prefix far past max_frame_bytes; no body ever follows.
  attacker.send_frame(0xFFFF'FFFFu, {});
  ASSERT_TRUE(loop_.run_until(
      [&] { return b->stats().oversized_frames == 1; }, seconds(5)));
  EXPECT_EQ(b->stats().malformed_frames, 1u);

  // The loop is not wedged: an honest transport still talks to b.
  RecordingEndpoint ea;
  auto a = make_transport(&ea, 1);
  a->send(b->local_id(), wire::Join{});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
  EXPECT_TRUE(std::holds_alternative<wire::Join>(eb.deliveries[0].second));

  // The attacker lost its connection (drain the loop so the FIN lands).
  loop_.run_until([&] { return attacker.closed_by_peer(); }, seconds(5));
  EXPECT_TRUE(attacker.closed_by_peer());
}

TEST_F(TcpTransportTest, UndecodableFrameBodyCountsMalformed) {
  RecordingEndpoint eb;
  auto b = make_transport(&eb, 2);

  RawSocket attacker(b->local_id());
  ASSERT_TRUE(attacker.connected());
  // Honest-looking length, garbage body (0xFF is no message tag).
  attacker.send_frame(8, std::vector<std::uint8_t>(8, 0xFF));
  ASSERT_TRUE(loop_.run_until(
      [&] { return b->stats().malformed_frames == 1; }, seconds(5)));
  EXPECT_EQ(b->stats().oversized_frames, 0u);
  EXPECT_TRUE(eb.deliveries.empty());

  // Other traffic unaffected.
  RecordingEndpoint ea;
  auto a = make_transport(&ea, 1);
  a->send(b->local_id(), wire::Join{});
  ASSERT_TRUE(loop_.run_until([&] { return !eb.deliveries.empty(); },
                              seconds(5)));
}

TEST_F(TcpTransportTest, FrameBeforeHelloIsRejectedAndCounted) {
  RecordingEndpoint eb;
  auto b = make_transport(&eb, 2);

  RawSocket attacker(b->local_id());
  ASSERT_TRUE(attacker.connected());
  // A perfectly well-formed frame — but the connection never identified
  // itself with a HELLO, so it must not reach the endpoint.
  const auto body = wire::encode_bytes(wire::Join{});
  attacker.send_frame(static_cast<std::uint32_t>(body.size()), body);
  ASSERT_TRUE(loop_.run_until(
      [&] { return b->stats().frames_before_hello == 1; }, seconds(5)));
  EXPECT_TRUE(eb.deliveries.empty());
}

TEST_F(TcpTransportTest, ByteDribbleAcrossPrefixBoundaryStillRejects) {
  RecordingEndpoint eb;
  auto b = make_transport(&eb, 2);

  RawSocket attacker(b->local_id());
  ASSERT_TRUE(attacker.connected());
  // The oversized prefix arrives one byte at a time: the parser must wait
  // for the full prefix, then reject — reassembly cannot be tricked into
  // reading a partial length.
  for (const unsigned byte : {0xFFu, 0xFFu, 0xFFu, 0xFFu}) {
    attacker.send_bytes({static_cast<std::uint8_t>(byte)});
    loop_.run_until([] { return false; }, milliseconds(10));
  }
  ASSERT_TRUE(loop_.run_until(
      [&] { return b->stats().oversized_frames == 1; }, seconds(5)));
}

TEST_F(TcpTransportTest, ShutdownIsIdempotent) {
  RecordingEndpoint ea;
  auto a = make_transport(&ea, 1);
  a->shutdown();
  a->shutdown();
  SUCCEED();
}

}  // namespace
}  // namespace hyparview::net
