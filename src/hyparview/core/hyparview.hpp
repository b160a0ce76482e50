// The HyParView protocol (paper §4, Algorithm 1).
//
// Hybrid partial view membership:
//  * a small, symmetric **active view** (size fanout+1) maintained
//    reactively: joins force their way in (random evictions receive a
//    DISCONNECT), failures detected by the transport are replaced by
//    promoting passive-view members with prioritized NEIGHBOR requests;
//  * a larger **passive view** maintained cyclically by a TTL-bounded
//    random-walk shuffle that mixes the node's own id, a sample of its
//    active view and a sample of its passive view with a random peer.
//
// Dissemination floods the active-view overlay (see gossip::GossipEngine in
// Mode::kFlood); every broadcast therefore doubles as a liveness probe of
// the entire active view.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hyparview/common/node_id.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::core {

struct Config {
  /// Active view capacity = fanout + 1 (paper: 5 for fanout 4).
  std::size_t active_capacity = 5;
  /// Passive view capacity (paper: 30; should exceed log2(n)).
  std::size_t passive_capacity = 30;
  /// Active Random Walk Length: initial TTL of FORWARDJOIN walks.
  std::uint8_t arwl = 6;
  /// Passive Random Walk Length: the walk hop (counted by remaining TTL) at
  /// which the joiner is also stored in the passive view.
  std::uint8_t prwl = 3;
  /// Active-view entries included in each shuffle (paper: ka = 3).
  std::size_t shuffle_ka = 3;
  /// Passive-view entries included in each shuffle (paper: kp = 4).
  std::size_t shuffle_kp = 4;
  /// TTL of shuffle random walks ("just like FORWARDJOIN"; default = ARWL).
  std::uint8_t shuffle_ttl = 6;
  /// Promote passive members whenever the active view has a free slot
  /// (true, default) or only after a detected failure (false, ablation).
  bool promote_on_any_slot = true;
  /// CREW-style connection cache (§2.4): keep open connections to up to
  /// this many passive-view members so a promotion can skip the dial
  /// round-trip (and a stale cached link is discovered on first use, like
  /// any TCP connection). 0 disables the cache (the paper's base protocol).
  std::size_t warm_cache_size = 0;

  void validate() const;
  bool operator==(const Config&) const = default;
};

/// Per-instance protocol event counters, exposed for tests and overhead
/// analysis. All monotonically increasing.
struct Stats {
  std::uint64_t joins_handled = 0;
  std::uint64_t forward_joins_routed = 0;
  std::uint64_t forward_joins_accepted = 0;
  std::uint64_t shuffles_initiated = 0;
  std::uint64_t shuffles_forwarded = 0;
  std::uint64_t shuffles_accepted = 0;
  std::uint64_t neighbor_accepts = 0;
  std::uint64_t neighbor_rejects = 0;
  std::uint64_t promotions = 0;
  std::uint64_t failures_detected = 0;
  std::uint64_t disconnects_received = 0;
  std::uint64_t asymmetry_heals = 0;
  std::uint64_t warm_dials = 0;       ///< cache-refresh connection attempts
  /// Accepted NEIGHBOR replies to a request sent over a warm-cache link:
  /// promotions that skipped the dial (attempts are not counted).
  std::uint64_t warm_promotions = 0;
  // Hostile-frame accounting: entries of a received shuffle list that were
  // dropped instead of integrated. Decoder-legal frames can still be
  // protocol-hostile (self-IDs, duplicated IDs, over-budget lists); the
  // adversarial tier pins that these bounds hold.
  std::uint64_t shuffle_self_dropped = 0;        ///< own id in a received list
  std::uint64_t shuffle_duplicates_dropped = 0;  ///< repeats within one list
  std::uint64_t shuffle_over_budget_dropped = 0;  ///< past ka+kp additions
};

class HyParView final : public membership::Protocol {
 public:
  HyParView(membership::Env& env, Config config);

  // --- membership::Protocol --------------------------------------------------
  void start(std::optional<NodeId> contact) override;
  void handle(const NodeId& from, const wire::Message& msg) override;
  void on_send_failed(const NodeId& to, const wire::Message& msg) override;
  void on_link_closed(const NodeId& peer) override;
  void on_cycle() override;
  void leave() override;
  using membership::Protocol::broadcast_targets;
  void broadcast_targets(std::size_t fanout, const NodeId& from,
                         std::vector<NodeId>& out) override;
  void peer_unreachable(const NodeId& peer) override;
  void on_traffic(const NodeId& from) override;
  [[nodiscard]] std::span<const NodeId> dissemination_view() const override;
  [[nodiscard]] std::span<const NodeId> backup_view() const override;
  [[nodiscard]] const char* name() const override { return "hyparview"; }

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] const std::vector<NodeId>& active_view() const {
    return active_;
  }
  [[nodiscard]] const std::vector<NodeId>& passive_view() const {
    return passive_;
  }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool repair_in_flight() const { return promote_in_flight_; }
  /// Passive members currently held behind a pre-opened connection.
  [[nodiscard]] const std::vector<NodeId>& warm_cache() const { return warm_; }

 private:
  void handle_join(const NodeId& new_node);
  void handle_forward_join(const NodeId& sender, const wire::ForwardJoin& m);
  void handle_disconnect(const NodeId& peer);
  void handle_neighbor(const NodeId& from, const wire::Neighbor& m);
  void handle_neighbor_reply(const NodeId& from, const wire::NeighborReply& m);
  void handle_shuffle(const NodeId& sender, const wire::Shuffle& m);
  void handle_shuffle_reply(const NodeId& from, const wire::ShuffleReply& m);

  /// Accepts a FORWARDJOIN walk terminally: force-adds the joiner and tells
  /// it so the link becomes symmetric.
  void accept_forward_join(const NodeId& new_node);

  /// Active-view traffic from a non-neighbor reveals a stale one-sided
  /// link; answer with DISCONNECT so the sender demotes us and repairs.
  void heal_asymmetry(const NodeId& sender);

  /// Force-adds `node` to the active view, evicting a random member (with
  /// DISCONNECT courtesy) if full. No-op for self / existing members.
  bool add_to_active(const NodeId& node);

  void drop_random_from_active();

  /// Adds to the passive view if unknown; evicts per `prefer_evict` first,
  /// then at random, when full.
  void add_to_passive(const NodeId& node,
                      std::vector<NodeId>* prefer_evict = nullptr);

  void integrate_shuffle_entries(std::span<const NodeId> received,
                                 std::span<const NodeId> sent_to_peer);

  /// Marks `peer` failed: expunged from both views, repair kicked off.
  void node_failed(const NodeId& peer);

  /// Bookkeeping when `node` leaves the passive view: forget any warm
  /// connection to it (closed unless the node moved into the active view).
  void on_passive_removed(const NodeId& node, bool now_active);

  /// Tops the warm cache back up to warm_cache_size from the passive view.
  void refresh_warm_cache();

  [[nodiscard]] bool is_warm(const NodeId& node) const;

  /// Active-view repair state machine (§4.3): pick a random passive member,
  /// connect (the liveness probe), then send a prioritized NEIGHBOR request.
  void maybe_promote();
  void on_promote_connect(const NodeId& candidate, bool ok);

  void do_shuffle();

  [[nodiscard]] bool in_active(const NodeId& node) const;
  [[nodiscard]] bool in_passive(const NodeId& node) const;
  [[nodiscard]] NodeId self() const { return env_.self(); }

  static bool erase_value(std::vector<NodeId>& v, const NodeId& node);

  membership::Env& env_;
  Config config_;
  std::vector<NodeId> active_;
  std::vector<NodeId> passive_;
  /// Invariant: warm_ ⊆ passive_, |warm_| <= warm_cache_size.
  std::vector<NodeId> warm_;

  /// Warm-cache dials whose connect callback has not fired yet.
  std::vector<NodeId> warm_pending_;

  // Repair episode state.
  bool promote_in_flight_ = false;
  /// The in-flight NEIGHBOR request went over a warm-cache link.
  bool promote_warm_ = false;
  std::optional<NodeId> promote_candidate_;
  std::vector<NodeId> promote_attempted_;
  /// Candidate scratch for maybe_promote(), reused across calls: the
  /// promotion loop runs on *every* gossip message at a node with a
  /// non-full active view (on_traffic), so it must not allocate per
  /// message. Only read before the episode's async dial/send goes out, so
  /// re-entry through a synchronous transport failure cannot clobber a
  /// live read.
  std::vector<NodeId> promote_warm_scratch_;
  std::vector<NodeId> promote_cold_scratch_;
  /// Walk-candidate scratch for FORWARDJOIN/SHUFFLE relaying and sample
  /// scratch for shuffle construction, reused across calls for the same
  /// reason: membership wire traffic is steady-state allocation-free
  /// (enforced by the micro_sim_events shuffle-phase gate). Safe to reuse
  /// because Env calls are asynchronous — no upcall re-enters the protocol
  /// while a scratch is live.
  std::vector<NodeId> walk_scratch_;
  std::vector<NodeId> sample_scratch_;
  std::vector<NodeId> evict_scratch_;

  Stats stats_;
};

}  // namespace hyparview::core
