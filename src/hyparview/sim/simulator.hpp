// Deterministic discrete-event network simulator (PeerSim equivalent).
//
// Models the paper's evaluation substrate:
//  * reliable, connection-oriented message delivery with uniform random
//    latency (TCP over a well-provisioned network);
//  * crash failures with *detect-on-send* semantics by default — crashing a
//    node does not announce anything, the next send/connect to it fails back
//    to the caller;
//  * notify-on-crash mode, where open links deliver on_link_closed to peers
//    when a node dies, as a TCP connection reset would (§4: TCP as failure
//    detector; the harness turns it on for HyParView);
//  * deterministic execution: a single master seed derives independent
//    per-node RNG streams, and the event queue breaks time ties by sequence
//    number.
//
// Periodic membership behaviour is *not* timer-driven here: the harness calls
// Protocol::on_cycle explicitly so experiments can count membership rounds
// the way the paper does, and run_until_quiescent() has a precise meaning
// (all reactive traffic has drained).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "hyparview/common/flat_hash.hpp"
#include "hyparview/common/node_id.hpp"
#include "hyparview/common/rng.hpp"
#include "hyparview/common/time.hpp"
#include "hyparview/membership/endpoint.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/wire.hpp"
#include "hyparview/sim/calendar_queue.hpp"
#include "hyparview/sim/slot_pool.hpp"

namespace hyparview::sim {

struct SimConfig {
  std::uint64_t seed = 42;
  /// One-way message latency, uniform in [latency_min, latency_max].
  Duration latency_min = microseconds(500);
  Duration latency_max = microseconds(1500);
  /// How long a failed send/connect takes to report back to the caller.
  Duration failure_detect_delay = milliseconds(1);
  /// Crash announcement: false = detect-on-send, the next send or connect
  /// to the dead node fails (protocols without standing connections:
  /// Cyclon, Scamp); true = peers holding open links get on_link_closed
  /// after failure_detect_delay, as from a TCP reset (HyParView's open
  /// active-view connections, §4; NetworkConfig::defaults_for).
  bool notify_on_crash = false;
  /// Frames buffered toward a *blocked* (slow) node per sender before the
  /// sender's flow control gives up and reports a send failure — the §5.5
  /// NeEM-style rule that treats slow nodes as failed so TCP backpressure
  /// cannot freeze the overlay.
  std::size_t link_send_buffer = 16;
};

/// Per-node upcall interface; implemented by gossip::NodeRuntime.
using Handler = membership::Endpoint;

/// Wire frames this small travel inside their simulator event; only the
/// four list frames (Shuffle, ShuffleReply, CyclonShuffle,
/// CyclonShuffleReply) are larger and take a payload-slab slot.
inline constexpr std::size_t kInlineFrameBytes = 16;

class Simulator {
 public:
  explicit Simulator(SimConfig config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a node; ids are dense indices (NodeId::from_index).
  /// The handler must outlive the simulator (or be detached via set_handler).
  NodeId add_node(Handler* handler);

  void set_handler(const NodeId& id, Handler* handler);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] bool alive(const NodeId& id) const;
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  /// Crashes a node: it stops receiving and initiating everything.
  void crash(const NodeId& id);

  /// Marks a node *blocked* (slow consumer, §5.5): it stays alive but stops
  /// processing — uniformly inert. It initiates nothing (sends, dials and
  /// teardowns never leave the frozen application) and its timers are
  /// missed; network-delivered events (messages, send-failure reports,
  /// connect results, link closes) buffer in its inbox instead. Inbound
  /// messages queue up to `link_send_buffer` per sender; beyond that the
  /// sender gets a send failure, which reactive protocols treat exactly
  /// like a crash (the node is expelled from active views).
  void block(const NodeId& id);

  /// Unblocks a node: queued events are replayed (in arrival order) and it
  /// resumes normal operation.
  void unblock(const NodeId& id);

  [[nodiscard]] bool blocked(const NodeId& id) const;

  /// Forcibly resets the open connection between a and b (flaky-network
  /// fault injection): each alive endpoint still holding its side observes
  /// on_link_closed after the detection delay, exactly as if the TCP
  /// connection had been RST by the network. Returns false (and does
  /// nothing) when no close could be scheduled — no open link, or only
  /// stale sides held by dead nodes.
  bool drop_link(const NodeId& a, const NodeId& b);

  /// Resets each currently-open connection independently with probability
  /// `fraction` (drawn from the master RNG; deterministic under a fixed
  /// seed). Returns the number of connections dropped.
  std::size_t drop_random_links(double fraction);

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Changes the one-way latency band for subsequently scheduled messages
  /// (latency-spike fault injection). In-flight messages keep the latency
  /// they were scheduled with. Throws CheckError on an inverted band
  /// (min > max) or a negative minimum; min == max (fixed latency) is valid.
  void set_latency(Duration min, Duration max);

  /// Total events dispatched since construction (perf accounting).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Events the event queue's storage has room for: the high-water mark of
  /// pending events, rounded up to chunks (memory accounting).
  [[nodiscard]] std::size_t queue_storage_events() const {
    return queue_.storage_events();
  }

  /// Harness-level random stream (failure selection, source selection...).
  [[nodiscard]] Rng& rng() { return master_rng_; }

  /// The Env to hand to protocol instances running at `id`.
  [[nodiscard]] membership::Env& env(const NodeId& id);

  /// Processes events until the queue is empty. Returns events processed.
  std::uint64_t run_until_quiescent();

  /// Processes a single event. Returns false if the queue was empty.
  bool step();

  /// True if a link between a and b is currently open.
  [[nodiscard]] bool linked(const NodeId& a, const NodeId& b) const;

  /// Open-link count for a node (diagnostics).
  [[nodiscard]] std::size_t link_count(const NodeId& id) const;

  // --- Traffic counters (overhead analysis & tests) ------------------------
  // Monotonic since construction; a phase's share is the difference of two
  // reads (harness::Backend::counters, PhaseResult::counters).
  [[nodiscard]] std::uint64_t messages_sent() const { return sent_total_; }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return delivered_total_;
  }
  [[nodiscard]] std::uint64_t sends_failed() const { return send_failures_; }
  /// Per-message-type send counts, indexed by wire::type_tag.
  [[nodiscard]] const std::vector<std::uint64_t>& sent_by_type() const {
    return sent_by_type_;
  }
  /// Total wire bytes sent (wire::wire_cost of every send; PlanetLab
  /// packet-overhead measurement of §6).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_total_; }
  /// Per-message-type wire bytes, indexed by wire::type_tag.
  [[nodiscard]] const std::vector<std::uint64_t>& bytes_by_type() const {
    return bytes_by_type_;
  }
  /// Connection establishments (implicit dial-on-send and explicit
  /// connect()), the TCP handshakes a deployment would pay for.
  [[nodiscard]] std::uint64_t connections_opened() const {
    return connections_opened_;
  }

 private:
  friend class SimEnv;

  enum class EventKind : std::uint8_t {
    kDeliver,
    kSendFailed,
    kConnectResult,
    kTask,
    kLinkClosed,
  };

  /// 48-byte POD: the calendar queue moves only this. Small wire frames
  /// ride in `frame`; list frames and callbacks live in the slot pools
  /// below, addressed by `payload`, so pushing and popping an event never
  /// allocates or runs a move ctor.
  struct Event {
    TimePoint at = 0;
    std::uint64_t seq = 0;
    union {
      /// For kLinkClosed: the generation of the link instance being
      /// closed, so a stale FIN cannot tear down a newer connection between
      /// the same pair (TCP connections have identity).
      std::uint64_t link_gen = 0;
      /// kDeliver/kSendFailed with payload == kNoSlot: the bytes of the
      /// frame whose wire tag is `frame_tag` (see put_message).
      alignas(8) unsigned char frame[kInlineFrameBytes];
    };
    std::uint32_t node = 0;  ///< event target node index
    std::uint32_t peer = 0;  ///< other endpoint where applicable
    /// Slot index into the pool selected by `kind` (kDeliver/kSendFailed →
    /// messages_ for a list frame, kTask → task pool, kConnectResult →
    /// connect pool); kNoSlot when the event carries no pooled payload.
    std::uint32_t payload = kNoSlot;
    EventKind kind = EventKind::kTask;
    /// kDeliver/kSendFailed: wire::type_tag of an inline frame.
    std::uint8_t frame_tag = 0;
    /// kConnectResult replay: the handshake outcome recorded when the
    /// original result reached the then-blocked node.
    bool ok = false;
    /// Forced replay from a drained inbox (unblock): skips the checks and
    /// counters that already ran at the original dispatch.
    bool replay = false;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 48);

  /// One event buffered in a blocked node's inbox. A frozen application
  /// misses its timers, but everything the *network* hands it — message
  /// deliveries, send-failure reports, connect results, link closes — is a
  /// kernel-level fact that waits for the process to resume; dropping any
  /// of these would silently wedge protocol state machines that await a
  /// completion (e.g. HyParView's promotion episode).
  struct QueuedMessage {
    enum class Kind : std::uint8_t {
      kDeliver,
      kClose,
      kSendFailed,
      kConnectResult,
    };
    Kind kind = Kind::kDeliver;
    std::uint32_t from = 0;          ///< the peer involved
    wire::Message msg;               ///< kDeliver / kSendFailed payload
    membership::ConnectCallback cb;  ///< kConnectResult
    bool ok = false;                 ///< kConnectResult: handshake outcome
  };

  /// Per-connection state (parallel to SimNode::link_peers).
  struct LinkData {
    std::uint64_t gen = 0;  ///< connection-instance identity
    /// Latest scheduled arrival of traffic this node sent over this link
    /// (FIFO clamp: TCP stream order *per connection instance*). Lives here
    /// instead of a global hash map so the per-send lookup touches only
    /// this node's table. Ordering is deliberately NOT guaranteed across a
    /// teardown + re-establishment — real TCP gives no cross-connection
    /// ordering either, and the protocols handle such races explicitly
    /// (HyParView's asymmetry healing); in-flight data of a torn-down link
    /// still delivers, as it always has in this simulator.
    TimePoint last_arrival = 0;
  };

  /// Per-node liveness bits in state_ (blocked implies alive).
  static constexpr std::uint8_t kAlive = 1;
  static constexpr std::uint8_t kBlocked = 2;

  struct SimNode {
    Handler* handler = nullptr;
    /// Open connections (symmetric), structure-of-arrays: the peer ids are
    /// scanned on every send, so they live in their own dense u32 array
    /// (a 100-link table is ~7 cache lines instead of ~40); gen/arrival
    /// state is only touched after a hit.
    std::vector<std::uint32_t> link_peers;
    std::vector<LinkData> link_data;  ///< parallel to link_peers
    /// peer → slot in link_peers, maintained only once the table outgrows
    /// kLinkIndexThreshold (invariant: empty, or exactly mirrors
    /// link_peers). Small tables are faster to scan than to hash; a
    /// well-connected node — a bootstrap contact at 10k scale holds a link
    /// to nearly everyone — would otherwise pay a linear scan on *every*
    /// send, the harness's "quadratic-ish" bootstrap constant.
    FlatMap<std::uint32_t, std::uint32_t> link_index;
    std::vector<QueuedMessage> inbox;  ///< buffered while blocked
    std::unique_ptr<membership::Env> env;
  };

  void do_send(std::uint32_t from, std::uint32_t to, const wire::Message& msg);
  void do_connect(std::uint32_t from, std::uint32_t to,
                  membership::ConnectCallback cb);
  void do_disconnect(std::uint32_t from, std::uint32_t to);
  void do_schedule(std::uint32_t node, Duration delay,
                   membership::TaskCallback fn);

  void push_event(Event ev);
  void dispatch(Event& ev);
  /// A delivery that cannot be handed over (target crashed, or blocked
  /// with a full window) fails back to its sender, carrying the frame.
  void fail_back(const Event& ev);
  Duration draw_latency();

  [[nodiscard]] bool is_alive(std::uint32_t node) const {
    return (state_[node] & kAlive) != 0;
  }
  /// Alive and not blocked: the node's application runs.
  [[nodiscard]] bool is_running(std::uint32_t node) const {
    return state_[node] == kAlive;
  }

  /// Stores `msg` as ev's frame: inline when it fits kInlineFrameBytes,
  /// else in the messages_ slab. Copies only the *active alternative*
  /// (visit + in-place emplace): the flat wire variant's storage is sized
  /// for a max-capacity shuffle (~270 bytes), but most frames are a dozen
  /// bytes — whole-variant assignment would copy the full storage.
  void put_message(Event& ev, const wire::Message& msg);

  /// Rebuilds a kDeliver/kSendFailed frame stored by put_message, releasing
  /// its slab slot if it had one.
  wire::Message take_message(const Event& ev);
  /// Releases such a frame without materializing it (dropped events).
  void release_message(const Event& ev);

  /// Delivery time respecting per-link FIFO (TCP stream order): clamps to
  /// the link's last scheduled arrival and advances it.
  TimePoint arrival_time(LinkData& link);

  /// Link-table size beyond which the per-node peer→slot index kicks in.
  static constexpr std::size_t kLinkIndexThreshold = 128;
  /// "No such link" slot sentinel.
  static constexpr std::size_t kNoLink = static_cast<std::size_t>(-1);

  /// Slot of `peer` in node.link_peers, or kNoLink.
  static std::size_t link_slot(const SimNode& node, std::uint32_t peer);
  /// Adds a link to `peer` if absent; returns its slot either way.
  std::size_t link_add(SimNode& node, std::uint32_t peer);
  static void link_remove(SimNode& node, std::uint32_t peer);
  static bool link_has(const SimNode& node, std::uint32_t peer);

  SimConfig config_;
  Rng master_rng_;
  Rng latency_rng_;
  std::vector<SimNode> nodes_;
  /// kAlive/kBlocked bits per node, parallel to nodes_: the liveness test
  /// on every send reads one byte instead of the target's SimNode.
  std::vector<std::uint8_t> state_;
  /// Pending events, popped in strict (at, seq) order. The calendar's
  /// bucket width tracks the latency band (set_latency re-buckets).
  CalendarQueue<Event> queue_;
  /// Payload slabs, free-list recycled (see slot_pool.hpp). One per payload
  /// kind so slots are homogeneous and reuse is exact. messages_ holds only
  /// the list frames too large for Event::frame; wire messages are flat
  /// PODs, so they recycle without ever touching the allocator.
  SlotPool<wire::Message> messages_;
  SlotPool<membership::TaskCallback> tasks_;
  SlotPool<membership::ConnectCallback> connects_;
  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_link_gen_ = 1;
  std::size_t alive_count_ = 0;
  std::uint64_t events_processed_ = 0;

  std::uint64_t sent_total_ = 0;
  std::uint64_t delivered_total_ = 0;
  std::uint64_t send_failures_ = 0;
  std::vector<std::uint64_t> sent_by_type_;
  std::uint64_t bytes_total_ = 0;
  std::vector<std::uint64_t> bytes_by_type_;
  std::uint64_t connections_opened_ = 0;
};

}  // namespace hyparview::sim
