// Broadcast-engine abstraction: the payload plane above the membership
// substrate.
//
// Two engines implement it:
//
//  * GossipEngine (gossip_engine.hpp) — the paper's eager push: every node
//    forwards a fresh message to its whole dissemination view (or a random
//    fanout of it). Simple, redundant, pays the payload once per overlay
//    edge.
//  * TreeBroadcastEngine (tree_broadcast_engine.hpp) — Plumtree (Leitão,
//    Pereira, Rodrigues, SRDS 2007): the redundant eager links decay into
//    lazy IHave announcements after the first duplicate, leaving a spanning
//    tree that ships each payload ~once per node, repaired through
//    Graft/Prune and the membership layer's neighbor up/down events.
//
// NodeRuntime owns one engine per node and routes payload-plane frames to
// it; everything else (membership traffic) goes to the Protocol. Both
// engines keep the per-message hot path free of steady-state allocations —
// bench/micro_sim_events gates this at runtime and
// tools/lint/lint_config.toml pins the function list statically.
#pragma once

#include <cstdint>

#include "hyparview/common/node_id.hpp"
#include "hyparview/common/time.hpp"
#include "hyparview/membership/wire.hpp"

namespace hyparview::gossip {

enum class Mode : std::uint8_t {
  kFlood,
  kRandomFanout,
  kRandomFanoutAcked,
};

/// Which payload-plane engine NodeRuntime instantiates.
enum class Engine : std::uint8_t {
  kEager,
  kPlumtree,
};

struct GossipConfig {
  /// Engine selection (eager push vs Plumtree tree broadcast).
  Engine engine = Engine::kEager;
  Mode mode = Mode::kFlood;
  /// Gossip fanout t (ignored by kFlood, whose active view is fanout+1).
  std::size_t fanout = 4;
  /// Re-forward a message to a substitute target when a send fails. The
  /// paper's protocols do NOT re-route (kept for ablation A3).
  bool reroute_on_failure = false;
  /// Ship a GossipAck frame for every gossip frame received in
  /// kRandomFanoutAcked mode. Failure *detection* is always modeled through
  /// the transport (a send to a dead peer fails back, i.e. "no ack came"),
  /// so this flag only affects traffic accounting: enable it to charge the
  /// CyclonAcked ack overhead in wire-cost experiments.
  bool explicit_acks = false;
  /// Synthetic payload size carried in each gossip frame.
  std::uint32_t payload_size = 128;
  /// Duplicate-suppression window (ids remembered per node). Size it to
  /// the *in-flight* duplicate horizon — the number of distinct broadcasts
  /// that can have undelivered copies at once — not to total history. An
  /// id evicted while copies are still in flight is delivered again as new
  /// and forwarded again, so the flood never dies out. The harness drains
  /// every broadcast and every pub/sub tick before the next, so its
  /// horizon is sources x rate: the spec loader rejects a pub/sub phase
  /// above the window, and Backend::run_pubsub refuses to start one. A
  /// stream that never drains needs its rate x (delivery + graft timeout)
  /// worth of ids. At most 2^24 (DedupWindow::kMaxWindow), like
  /// cache_window.
  std::size_t dedup_window = 1024;
  /// Plumtree: how long a node waits after the first IHave for a missing
  /// message before grafting the announcing link into the tree.
  Duration graft_timeout = milliseconds(100);
  /// Plumtree: payload retransmission horizon (the last cache_window first
  /// deliveries answer Graft requests). Like dedup_window, an in-flight
  /// horizon. Plumtree keeps both horizons in one table of delivered ids,
  /// so an id delivered again after leaving a smaller dedup_window while
  /// still cached refreshes its cache entry (hops and age), where a
  /// separate cache would keep the first one. Copies in flight past the
  /// dedup window are the misconfiguration the spec loader rejects for
  /// pub/sub, so this case moves no committed run.
  std::size_t cache_window = 1024;

  bool operator==(const GossipConfig&) const = default;
};

/// Observes deliveries network-wide (reliability accounting in the harness,
/// application callbacks in real deployments).
class DeliveryObserver {
 public:
  virtual ~DeliveryObserver() = default;
  /// First delivery of `msg_id` at `node`, `hops` overlay hops from the
  /// source (0 at the source itself).
  virtual void on_deliver(const NodeId& node, std::uint64_t msg_id,
                          std::uint16_t hops) = 0;
  /// A duplicate copy arrived (redundancy accounting).
  virtual void on_duplicate(const NodeId& node, std::uint64_t msg_id) {
    (void)node;
    (void)msg_id;
  }
};

class BroadcastEngine {
 public:
  virtual ~BroadcastEngine() = default;

  /// Starts a broadcast at this node (delivers locally with hops = 0).
  virtual void broadcast(std::uint64_t msg_id) = 0;

  /// Offers an incoming frame to the engine. Returns true if the frame
  /// belonged to the payload plane and was consumed; false means "not
  /// mine", and the caller forwards it to the membership protocol.
  [[nodiscard]] virtual bool handle(const NodeId& from,
                                    const wire::Message& msg) = 0;

  /// Same contract for transport delivery failures of frames we sent.
  [[nodiscard]] virtual bool handle_send_failed(const NodeId& to,
                                                const wire::Message& msg) = 0;

  /// Membership-layer neighbor-down event (link closed / peer evicted):
  /// the engine drops any tree state referring to `peer`.
  virtual void on_neighbor_down(const NodeId& peer) { (void)peer; }

  /// Adjusts the gossip fanout at runtime (Figure 1 sweeps fanouts over one
  /// stabilized overlay). Ignored by flood-style engines.
  virtual void set_fanout(std::size_t fanout) = 0;
  [[nodiscard]] virtual std::size_t fanout() const = 0;

  /// Drops dissemination history (between harness experiments).
  virtual void reset() = 0;

  [[nodiscard]] virtual const char* engine_name() const = 0;

  // --- Traffic accounting (deterministic, backend-independent) --------------

  [[nodiscard]] virtual std::uint64_t duplicates_received() const = 0;
  [[nodiscard]] virtual std::uint64_t messages_forwarded() const = 0;
  /// wire_cost of every payload-bearing frame this engine sent.
  [[nodiscard]] virtual std::uint64_t payload_bytes_sent() const = 0;
  /// wire_cost of every control frame (IHave/Graft/Prune/GossipAck) sent.
  [[nodiscard]] virtual std::uint64_t control_bytes_sent() const = 0;
  /// Tree-stability counters (0 for engines without a tree).
  [[nodiscard]] virtual std::uint64_t grafts_sent() const { return 0; }
  [[nodiscard]] virtual std::uint64_t prunes_sent() const { return 0; }

  /// Bytes held by the engine's table of delivered ids (memory accounting).
  [[nodiscard]] virtual std::size_t history_bytes() const = 0;
};

}  // namespace hyparview::gossip
