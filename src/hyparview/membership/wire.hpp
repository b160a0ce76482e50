// Wire messages for every protocol in the repo.
//
// A single tagged variant covers HyParView, Cyclon, Scamp and the gossip
// layer so that one transport implementation (simulated or TCP) can carry
// any protocol. Binary encoding is little-endian and length-framed by the
// transport; see encode()/decode().
//
// Every message is a flat, bounded-size POD: list payloads (shuffle
// node-lists, Cyclon exchanges) are inline fixed-capacity arrays, not
// heap-backed vectors, so the whole Message variant is trivially copyable.
// That is what lets the simulator recycle membership frames through its
// payload slabs with zero steady-state heap allocations — the same design
// the gossip frames adopted one PR earlier — and what bounds the frame
// size a TCP peer can make us buffer. The capacity constants below are the
// protocol-visible contract: configs whose shuffle sizes exceed them are
// rejected at validate() time.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/binary.hpp"
#include "hyparview/common/node_id.hpp"

namespace hyparview::wire {

// ---------------------------------------------------------------------------
// Flat, bounded list payloads
// ---------------------------------------------------------------------------

/// Inline fixed-capacity list: the wire representation of a node-list
/// payload. Trivially copyable, so messages carrying one can live in the
/// simulator's POD slabs and copy with memcpy instead of touching the
/// allocator. Only the first `count` items are meaningful; the tail is
/// value-initialized so equality and hashing over the live prefix are
/// well defined.
template <typename T, std::size_t N>
struct FlatList {
  static_assert(N >= 1 && N <= 255, "count travels in a single byte's range");
  using value_type = T;
  static constexpr std::size_t kCapacity = N;

  std::uint8_t count = 0;
  std::array<T, N> items{};

  constexpr FlatList() = default;

  FlatList(std::initializer_list<T> init) {
    HPV_CHECK_THROW(init.size() <= N, "FlatList: initializer exceeds capacity");
    for (const T& v : init) items[count++] = v;
  }

  /// Bounded copy-in (tests, migration call sites); CheckError on overflow.
  explicit FlatList(std::span<const T> src) { assign(src); }
  FlatList(const std::vector<T>& src) : FlatList(std::span<const T>(src)) {}

  void assign(std::span<const T> src) {
    HPV_CHECK_THROW(src.size() <= N, "FlatList: assign exceeds capacity");
    count = static_cast<std::uint8_t>(src.size());
    // GCC's stringop-overflow range analysis does not propagate through
    // the throwing bound check above and reports a spurious out-of-bounds
    // write when this constructor is inlined into a temporary-conversion
    // chain (seen with GCC 13/14 once wire::Message crossed 20
    // alternatives). The loop is double-bounded (`i < N`) so the write
    // provably stays inside `items`; silence the false positive locally.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
    for (std::size_t i = 0; i < src.size() && i < N; ++i) items[i] = src[i];
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
  }

  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] bool full() const { return count == N; }

  void clear() { count = 0; }

  void push_back(const T& v) {
    HPV_CHECK_THROW(count < N, "FlatList: push_back past capacity");
    items[count++] = v;
  }

  void pop_back() {
    HPV_ASSERT(count > 0);
    --count;
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    HPV_ASSERT(i < count);
    return items[i];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    HPV_ASSERT(i < count);
    return items[i];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[count - 1]; }

  [[nodiscard]] const T* begin() const { return items.data(); }
  [[nodiscard]] const T* end() const { return items.data() + count; }
  [[nodiscard]] T* begin() { return items.data(); }
  [[nodiscard]] T* end() { return items.data() + count; }

  [[nodiscard]] std::span<const T> span() const {
    return {items.data(), count};
  }

  friend bool operator==(const FlatList& a, const FlatList& b) {
    if (a.count != b.count) return false;
    for (std::size_t i = 0; i < a.count; ++i) {
      if (!(a.items[i] == b.items[i])) return false;
    }
    return true;
  }
};

/// Capacity bound of HyParView shuffle lists: a SHUFFLE carries
/// 1 (self) + ka + kp entries and a SHUFFLEREPLY echoes at most that many,
/// so configs must keep 1 + shuffle_ka + shuffle_kp within this bound
/// (validated by core::Config::validate; paper values use 8 of 16).
inline constexpr std::size_t kMaxShuffleEntries = 16;

/// Capacity bound of Cyclon exchange lists (shuffle_length at most this;
/// validated by CyclonConfig::validate; the paper's comparison uses 14).
inline constexpr std::size_t kMaxCyclonShuffleEntries = 16;

// ---------------------------------------------------------------------------
// HyParView (paper §4, Algorithm 1)
// ---------------------------------------------------------------------------

/// Sent by a joining node to its contact node over a fresh connection.
struct Join {
  friend bool operator==(const Join&, const Join&) = default;
};

/// Random-walk propagation of a join through the overlay. `ttl` starts at
/// ARWL and is decremented at each hop; at ttl == PRWL the walked node also
/// stores the joiner in its passive view.
struct ForwardJoin {
  NodeId new_node;
  std::uint8_t ttl = 0;
  friend bool operator==(const ForwardJoin&, const ForwardJoin&) = default;
};

/// Sent by the node at the end of a join walk to the joiner so the new
/// active-view link is symmetric (Algorithm 1 leaves this implicit).
struct ForwardJoinAccept {
  friend bool operator==(const ForwardJoinAccept&,
                         const ForwardJoinAccept&) = default;
};

/// Notifies a peer that it was dropped from the sender's active view.
struct Disconnect {
  friend bool operator==(const Disconnect&, const Disconnect&) = default;
};

/// Request to become an active-view neighbor. High priority is used by nodes
/// whose active view is empty and must always be accepted.
struct Neighbor {
  bool high_priority = false;
  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

struct NeighborReply {
  bool accepted = false;
  friend bool operator==(const NeighborReply&, const NeighborReply&) = default;
};

/// Flat node-list payload of SHUFFLE/SHUFFLEREPLY frames.
using ShuffleList = FlatList<NodeId, kMaxShuffleEntries>;

/// Passive-view shuffle, propagated as a TTL-bounded random walk. `origin`
/// is the node that initiated the shuffle (the reply goes directly to it,
/// over a temporary connection in the TCP deployment).
struct Shuffle {
  NodeId origin;
  std::uint8_t ttl = 0;
  ShuffleList entries;
  friend bool operator==(const Shuffle&, const Shuffle&) = default;
};

struct ShuffleReply {
  /// Echo of the ids we sent, so the receiver can prefer evicting them.
  ShuffleList sent;
  ShuffleList entries;
  friend bool operator==(const ShuffleReply&, const ShuffleReply&) = default;
};

// ---------------------------------------------------------------------------
// Cyclon (Voulgaris et al., baseline in §5)
// ---------------------------------------------------------------------------

struct AgedId {
  NodeId id;
  std::uint16_t age = 0;
  friend bool operator==(const AgedId&, const AgedId&) = default;
};

/// Flat (id, age) exchange payload of Cyclon shuffles.
using AgedList = FlatList<AgedId, kMaxCyclonShuffleEntries>;

struct CyclonShuffle {
  AgedList entries;
  friend bool operator==(const CyclonShuffle&, const CyclonShuffle&) = default;
};

struct CyclonShuffleReply {
  AgedList entries;
  friend bool operator==(const CyclonShuffleReply&,
                         const CyclonShuffleReply&) = default;
};

/// Join random walk. The node where the walk ends swaps one of its own view
/// entries for the joiner (preserving in-degrees) and sends the displaced
/// entry back to the joiner in a CyclonJoinGift.
struct CyclonJoinWalk {
  NodeId new_node;
  std::uint8_t ttl = 0;
  friend bool operator==(const CyclonJoinWalk&,
                         const CyclonJoinWalk&) = default;
};

struct CyclonJoinGift {
  AgedId entry;
  friend bool operator==(const CyclonJoinGift&,
                         const CyclonJoinGift&) = default;
};

// ---------------------------------------------------------------------------
// Scamp (Ganesh et al., baseline in §5)
// ---------------------------------------------------------------------------

/// New subscription (or lease-driven resubscription) sent to a contact.
struct ScampSubscribe {
  NodeId subscriber;
  friend bool operator==(const ScampSubscribe&,
                         const ScampSubscribe&) = default;
};

/// A copy of a subscription being forwarded through the overlay. Kept by the
/// receiver with probability 1/(1+|PartialView|), forwarded otherwise. The
/// ttl only guards against pathological forwarding loops.
struct ScampForwardedSub {
  NodeId subscriber;
  std::uint16_t ttl = 0;
  friend bool operator==(const ScampForwardedSub&,
                         const ScampForwardedSub&) = default;
};

/// "I added you to my PartialView" — lets the subscriber maintain its InView.
struct ScampInViewNotify {
  friend bool operator==(const ScampInViewNotify&,
                         const ScampInViewNotify&) = default;
};

/// Unsubscription: asks an InView member to replace `old_id` with
/// `replacement` in its PartialView (replacement == kNoNode means just drop).
struct ScampReplace {
  NodeId old_id;
  NodeId replacement;
  friend bool operator==(const ScampReplace&, const ScampReplace&) = default;
};

/// Periodic liveness beacon along PartialView edges; lack of heartbeats for
/// too long makes a node assume isolation and resubscribe.
struct ScampHeartbeat {
  friend bool operator==(const ScampHeartbeat&,
                         const ScampHeartbeat&) = default;
};

// ---------------------------------------------------------------------------
// Gossip broadcast layer
// ---------------------------------------------------------------------------

/// An application broadcast. Payload is synthetic (experiments measure
/// delivery, not content); `hops` counts overlay hops for the Table 1 metric.
struct Gossip {
  std::uint64_t msg_id = 0;
  std::uint16_t hops = 0;
  std::uint32_t payload_size = 0;
  friend bool operator==(const Gossip&, const Gossip&) = default;
};

struct GossipAck {
  std::uint64_t msg_id = 0;
  friend bool operator==(const GossipAck&, const GossipAck&) = default;
};

// ---------------------------------------------------------------------------
// Transport-level handshake (TCP backend only)
// ---------------------------------------------------------------------------

/// First frame on every TCP connection: tells the acceptor the dialer's
/// listening address (inbound ephemeral ports are not node identifiers).
struct Hello {
  NodeId node_id;
  friend bool operator==(const Hello&, const Hello&) = default;
};

// ---------------------------------------------------------------------------
// Plumtree payload plane (epidemic broadcast trees, Leitão et al. 2007)
// ---------------------------------------------------------------------------

/// Eager push along a tree link. Same shape as Gossip — the engines differ
/// in routing, not in payload — but a distinct frame so the simulator's
/// per-type byte accounting separates tree traffic from flood traffic.
struct TreeGossip {
  std::uint64_t msg_id = 0;
  std::uint16_t hops = 0;
  std::uint32_t payload_size = 0;
  friend bool operator==(const TreeGossip&, const TreeGossip&) = default;
};

/// Lazy announcement on a non-tree link: "I have msg_id" without the
/// payload. `hops` lets a grafted retransmission keep an honest hop count.
struct IHave {
  std::uint64_t msg_id = 0;
  std::uint16_t hops = 0;
  friend bool operator==(const IHave&, const IHave&) = default;
};

/// Missing-message repair: asks an IHave announcer to retransmit `msg_id`
/// eagerly and promotes the link into the sender's eager (tree) set.
struct Graft {
  std::uint64_t msg_id = 0;
  friend bool operator==(const Graft&, const Graft&) = default;
};

/// Duplicate-suppression: tells the sender of a redundant eager push to
/// demote this link to lazy (IHave-only) until a Graft restores it.
struct Prune {
  friend bool operator==(const Prune&, const Prune&) = default;
};

// ---------------------------------------------------------------------------

using Message = std::variant<
    Join, ForwardJoin, ForwardJoinAccept, Disconnect, Neighbor, NeighborReply,
    Shuffle, ShuffleReply, CyclonShuffle, CyclonShuffleReply, CyclonJoinWalk,
    CyclonJoinGift, ScampSubscribe, ScampForwardedSub, ScampInViewNotify,
    ScampReplace, ScampHeartbeat, Gossip, GossipAck, Hello, TreeGossip, IHave,
    Graft, Prune>;

/// The design invariant of the flat wire path: any message — membership
/// control traffic included — can ride a POD slab and be recycled without
/// running a destructor or touching the allocator.
static_assert(std::is_trivially_copyable_v<Message>);

/// Stable wire tag of a message (the variant index, fixed by the order above).
[[nodiscard]] std::uint8_t type_tag(const Message& msg);

/// Wire tag of alternative T, as a compile-time constant.
template <typename T>
inline constexpr std::uint8_t kTagOf =
    static_cast<std::uint8_t>(Message(T{}).index());

static_assert(std::variant_size_v<Message> <= 32,
              "payload-plane tags are kept in a 32-bit mask");
inline constexpr std::uint32_t kPayloadPlaneTags =
    1u << kTagOf<Gossip> | 1u << kTagOf<GossipAck> |
    1u << kTagOf<TreeGossip> | 1u << kTagOf<IHave> | 1u << kTagOf<Graft> |
    1u << kTagOf<Prune>;

/// True for the payload-plane frames a broadcast engine consumes (Gossip,
/// GossipAck, TreeGossip, IHave, Graft, Prune); every other frame is
/// membership or transport traffic, which goes to the protocol.
[[nodiscard]] inline bool is_payload_plane(const Message& msg) {
  return ((kPayloadPlaneTags >> msg.index()) & 1u) != 0;
}

/// Human-readable message-type name for logs and test diagnostics.
[[nodiscard]] const char* type_name(const Message& msg);

/// Serializes tag + payload.
void encode(const Message& msg, BinaryWriter& writer);
[[nodiscard]] std::vector<std::uint8_t> encode_bytes(const Message& msg);

/// Exact size in bytes of encode_bytes(msg), computed without allocating.
[[nodiscard]] std::size_t encoded_size(const Message& msg);

/// Bytes a real deployment would put on the wire for `msg`: the encoded
/// frame plus, for Gossip, the synthetic payload the header describes.
/// This is the unit of the overhead-accounting experiment.
[[nodiscard]] std::size_t wire_cost(const Message& msg);

/// Fast-path overload for the dissemination hot loop: a Gossip frame's
/// encoded size is a compile-time constant, so the per-send accounting can
/// skip the generic encoder walk. A wire test pins it against the generic
/// overload so the two can never disagree.
[[nodiscard]] std::size_t wire_cost(const Gossip& gossip);

/// Same fast path for the Plumtree eager-push loop (identical frame layout).
[[nodiscard]] std::size_t wire_cost(const TreeGossip& gossip);

/// Parses a frame produced by encode(). Throws CheckError on malformed input.
[[nodiscard]] Message decode(BinaryReader& reader);
[[nodiscard]] Message decode_bytes(std::span<const std::uint8_t> bytes);

}  // namespace hyparview::wire
