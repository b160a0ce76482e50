#include "hyparview/membership/wire.hpp"

#include <gtest/gtest.h>

#include "hyparview/common/rng.hpp"

namespace hyparview::wire {
namespace {

/// All message kinds with representative payloads, used by the
/// parameterized round-trip suite.
std::vector<Message> representative_messages() {
  const NodeId a = NodeId::from_index(1);
  const NodeId b = NodeId::from_index(2);
  const NodeId c{0xC0A80102, 9999};
  return {
      Join{},
      ForwardJoin{a, 6},
      ForwardJoinAccept{},
      Disconnect{},
      Neighbor{true},
      Neighbor{false},
      NeighborReply{true},
      NeighborReply{false},
      Shuffle{a, 5, {b, c}},
      Shuffle{a, 0, {}},
      ShuffleReply{{a}, {b, c}},
      ShuffleReply{{}, {}},
      CyclonShuffle{{AgedId{a, 3}, AgedId{b, 0}}},
      CyclonShuffleReply{{AgedId{c, 65535}}},
      CyclonJoinWalk{a, 5},
      CyclonJoinGift{AgedId{b, 7}},
      ScampSubscribe{a},
      ScampForwardedSub{b, 256},
      ScampInViewNotify{},
      ScampReplace{a, b},
      ScampReplace{a, kNoNode},
      ScampHeartbeat{},
      Gossip{0xFEEDFACE12345678ull, 12, 1024},
      GossipAck{42},
      Hello{c},
      TreeGossip{0xDEADBEEF00C0FFEEull, 3, 4096},
      IHave{0xDEADBEEF00C0FFEEull, 3},
      Graft{77},
      Prune{},
  };
}

class WireRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireRoundTrip, EncodeDecodeIdentity) {
  const Message original = representative_messages()[GetParam()];
  const auto bytes = encode_bytes(original);
  const Message decoded = decode_bytes(bytes);
  EXPECT_EQ(decoded.index(), original.index());
  EXPECT_EQ(decoded, original) << type_name(original);
}

TEST_P(WireRoundTrip, EncodedSizeMatchesEncoding) {
  const Message msg = representative_messages()[GetParam()];
  EXPECT_EQ(encoded_size(msg), encode_bytes(msg).size()) << type_name(msg);
}

TEST_P(WireRoundTrip, WireCostIsEncodingPlusGossipPayload) {
  const Message msg = representative_messages()[GetParam()];
  std::size_t expected = encode_bytes(msg).size();
  if (const auto* g = std::get_if<Gossip>(&msg)) expected += g->payload_size;
  if (const auto* t = std::get_if<TreeGossip>(&msg)) {
    expected += t->payload_size;
  }
  EXPECT_EQ(wire_cost(msg), expected) << type_name(msg);
}

INSTANTIATE_TEST_SUITE_P(
    AllMessages, WireRoundTrip,
    ::testing::Range<std::size_t>(0, representative_messages().size()));

TEST(WireTest, TagsAreStableVariantIndices) {
  EXPECT_EQ(type_tag(Message{Join{}}), 0);
  // Tags are append-only: pre-Plumtree kinds keep their original indices.
  EXPECT_EQ(type_tag(Message{Gossip{}}), 17);
  EXPECT_EQ(type_tag(Message{Hello{}}), 19);
  EXPECT_EQ(type_tag(Message{TreeGossip{}}), 20);
  EXPECT_EQ(type_tag(Message{Prune{}}),
            static_cast<std::uint8_t>(std::variant_size_v<Message> - 1));
}

TEST(WireTest, PayloadPlaneIsExactlyTheSixEngineFrames) {
  // NodeRuntime offers these to the broadcast engine and everything else
  // to the membership protocol.
  for (const Message& m : representative_messages()) {
    const bool engine_frame =
        std::holds_alternative<Gossip>(m) ||
        std::holds_alternative<GossipAck>(m) ||
        std::holds_alternative<TreeGossip>(m) ||
        std::holds_alternative<IHave>(m) || std::holds_alternative<Graft>(m) ||
        std::holds_alternative<Prune>(m);
    EXPECT_EQ(is_payload_plane(m), engine_frame) << type_name(m);
  }
}

TEST(WireTest, TypeNamesDistinct) {
  std::vector<std::string> names;
  for (const auto& m : representative_messages()) {
    names.emplace_back(type_name(m));
  }
  // All kinds appear; names of different kinds differ.
  EXPECT_NE(std::string(type_name(Message{Join{}})),
            std::string(type_name(Message{Disconnect{}})));
  EXPECT_STREQ(type_name(Message{Shuffle{}}), "SHUFFLE");
  EXPECT_STREQ(type_name(Message{Gossip{}}), "GOSSIP");
}

TEST(WireTest, DecodeRejectsUnknownTag) {
  std::vector<std::uint8_t> bytes = {0xEE};
  EXPECT_THROW((void)decode_bytes(bytes), CheckError);
}

TEST(WireTest, DecodeRejectsTruncatedPayload) {
  auto bytes = encode_bytes(Message{ForwardJoin{NodeId::from_index(3), 4}});
  bytes.pop_back();
  EXPECT_THROW((void)decode_bytes(bytes), CheckError);
}

TEST(WireTest, DecodeRejectsTrailingGarbage) {
  auto bytes = encode_bytes(Message{Disconnect{}});
  bytes.push_back(0x00);
  EXPECT_THROW((void)decode_bytes(bytes), CheckError);
}

TEST(WireTest, DecodeEmptyThrows) {
  EXPECT_THROW((void)decode_bytes({}), CheckError);
}

TEST(WireTest, MaxCapacityShuffleRoundTrip) {
  // The flat codec's worst case: every list filled to its inline bound.
  Shuffle s;
  s.origin = NodeId::from_index(9);
  s.ttl = 255;
  for (std::uint32_t i = 0; i < kMaxShuffleEntries; ++i) {
    s.entries.push_back(NodeId::from_index(i));
  }
  EXPECT_TRUE(s.entries.full());
  const Message decoded = decode_bytes(encode_bytes(Message{s}));
  EXPECT_EQ(std::get<Shuffle>(decoded), s);
}

TEST(WireTest, OverCapacityListIsRejectedAtConstruction) {
  ShuffleList list;
  for (std::uint32_t i = 0; i < kMaxShuffleEntries; ++i) {
    list.push_back(NodeId::from_index(i));
  }
  EXPECT_THROW(list.push_back(NodeId::from_index(999)), CheckError);
}

TEST(WireTest, DecodeRejectsOverCapacityCount) {
  // A hostile frame claiming more entries than the flat bound must be
  // rejected before any entry is read — a peer can never make the decoder
  // buffer past the inline capacity.
  BinaryWriter w;
  w.u8(6);  // SHUFFLE tag
  w.node_id(NodeId::from_index(1));
  w.u8(3);
  w.u16(0xFFFF);  // absurd count
  EXPECT_THROW((void)decode_bytes(w.bytes()), CheckError);
}

TEST(WireTest, RandomizedGossipRoundTrips) {
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Gossip g;
    g.msg_id = rng.next();
    g.hops = static_cast<std::uint16_t>(rng.below(65536));
    g.payload_size = static_cast<std::uint32_t>(rng.below(1u << 20));
    const Message decoded = decode_bytes(encode_bytes(Message{g}));
    EXPECT_EQ(std::get<Gossip>(decoded), g);
  }
}

TEST(WireTest, GossipFrameIsCompact) {
  // Gossip frames dominate experiment traffic; keep them small.
  const auto bytes = encode_bytes(Message{Gossip{1, 2, 3}});
  EXPECT_LE(bytes.size(), 16u);
}

TEST(WireTest, EncodedSizeMatchesEncodingForRandomVariableLengthMessages) {
  // The fixed-size kinds are pinned by the parameterized suite; sweep the
  // list-bearing kinds over random lengths.
  Rng rng(91);
  for (int i = 0; i < 100; ++i) {
    const std::size_t n = rng.below(kMaxShuffleEntries + 1);
    std::vector<NodeId> ids;
    std::vector<AgedId> aged;
    for (std::size_t k = 0; k < n; ++k) {
      ids.push_back(NodeId::from_index(static_cast<std::uint32_t>(rng.below(100000))));
      aged.push_back(AgedId{ids.back(), static_cast<std::uint16_t>(rng.below(65536))});
    }
    const std::vector<Message> msgs = {
        Shuffle{NodeId::from_index(1), 4, ids},
        ShuffleReply{ids, ids},
        CyclonShuffle{aged},
        CyclonShuffleReply{aged},
    };
    for (const Message& m : msgs) {
      EXPECT_EQ(encoded_size(m), encode_bytes(m).size()) << type_name(m);
    }
  }
}

TEST(WireTest, GossipWireCostOverloadMatchesGenericOverload) {
  // The fast-path overload hardcodes the Gossip frame size; it must never
  // drift from what the generic encoder actually produces.
  for (const std::uint32_t payload : {0u, 1u, 128u, 65536u}) {
    const Gossip g{0x0123456789abcdefull, 7, payload};
    EXPECT_EQ(wire_cost(g), wire_cost(Message{g})) << payload;
  }
}

TEST(WireTest, TreeGossipWireCostOverloadMatchesGenericOverload) {
  for (const std::uint32_t payload : {0u, 1u, 128u, 65536u}) {
    const TreeGossip g{0x0123456789abcdefull, 7, payload};
    EXPECT_EQ(wire_cost(g), wire_cost(Message{g})) << payload;
  }
}

}  // namespace
}  // namespace hyparview::wire
