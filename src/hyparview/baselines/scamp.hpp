// Scamp membership protocol (Ganesh, Kermarrec, Massoulié; NGC 2001 / IEEE
// ToC 2003), the reactive-strategy baseline of the paper's evaluation (§5).
//
// Scamp grows PartialViews of expected size (c+1)·log(n) without any node
// knowing n. A new subscription reaching a node is forwarded to all of that
// node's PartialView plus c extra random copies; every forwarded copy is
// integrated by the node it reaches with probability 1/(1+|PartialView|) and
// forwarded onward otherwise. Nodes track an InView (who has them in their
// PartialView) to support unsubscription and isolation recovery:
//  * lease: subscriptions expire after `lease_cycles`; nodes resubscribe
//    through a random PartialView member (this is why Scamp is "not purely
//    reactive", §2.2 footnote);
//  * heartbeat: nodes send periodic heartbeats along PartialView edges; a
//    node that hears none for `isolation_timeout_cycles` assumes isolation
//    and resubscribes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hyparview/common/flat_hash.hpp"
#include "hyparview/common/node_id.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::baselines {

struct ScampConfig {
  /// Fault-tolerance parameter c: extra subscription copies (paper: 4).
  std::size_t c = 4;
  /// Loop guard for forwarded subscriptions (generous; drops are counted).
  std::uint16_t forward_ttl = 256;
  /// Resubscribe every this many cycles (0 = lease disabled; the paper's
  /// experiments run "before the lease time of Scamp expires").
  std::size_t lease_cycles = 0;
  /// Send heartbeats along PartialView edges every this many cycles
  /// (0 = disabled).
  std::size_t heartbeat_period_cycles = 1;
  /// Cycles without any heartbeat before assuming isolation & resubscribing.
  std::size_t isolation_timeout_cycles = 10;
  /// Purge unreachable peers reported by the gossip layer (off: plain Scamp).
  bool purge_on_unreachable = false;

  void validate() const;
  bool operator==(const ScampConfig&) const = default;
};

struct ScampStats {
  std::uint64_t subscriptions_handled = 0;
  std::uint64_t forwarded_subs_kept = 0;
  std::uint64_t forwarded_subs_relayed = 0;
  std::uint64_t forwarded_subs_dropped = 0;  ///< TTL exhausted (loop guard)
  std::uint64_t resubscriptions = 0;         ///< lease + isolation recovery
  std::uint64_t isolation_recoveries = 0;
};

class Scamp final : public membership::Protocol {
 public:
  Scamp(membership::Env& env, ScampConfig config);

  // --- membership::Protocol --------------------------------------------------
  void start(std::optional<NodeId> contact) override;
  void handle(const NodeId& from, const wire::Message& msg) override;
  void on_send_failed(const NodeId& to, const wire::Message& msg) override;
  void on_link_closed(const NodeId& peer) override;
  void on_cycle() override;
  using membership::Protocol::broadcast_targets;
  void broadcast_targets(std::size_t fanout, const NodeId& from,
                         std::vector<NodeId>& out) override;
  void peer_unreachable(const NodeId& peer) override;
  [[nodiscard]] std::span<const NodeId> dissemination_view() const override;
  [[nodiscard]] std::span<const NodeId> backup_view() const override;
  [[nodiscard]] const char* name() const override { return "scamp"; }

  /// Graceful departure (§ unsubscription): InView members are told to
  /// replace us with our PartialView members; c+1 of them simply drop us so
  /// view sizes shrink as the system does.
  void unsubscribe();

  void leave() override { unsubscribe(); }

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] const std::vector<NodeId>& partial_view() const {
    return partial_view_;
  }
  [[nodiscard]] const std::vector<NodeId>& in_view() const { return in_view_; }
  [[nodiscard]] const ScampStats& stats() const { return stats_; }
  [[nodiscard]] const ScampConfig& config() const { return config_; }

  /// PartialView membership, probed once per forwarded-subscription event —
  /// ~9.5M times across a 10k-node bootstrap, the slowest build in the
  /// harness. Adaptive like the simulator's per-node link tables: small
  /// views are scanned (the vector's cache lines are touched by the
  /// forwarding pick anyway, so a scan is nearly free and measurably beats
  /// a hash probe whose table lines are pure extra cache footprint); once
  /// the view outgrows kPartialIndexThreshold a common/flat_hash index
  /// takes over and the probe is O(1) instead of O(|view|). Public so
  /// tests can pin index-mode behavior against the scan.
  [[nodiscard]] bool in_partial(const NodeId& node) const {
    if (partial_index_.empty()) {
      for (const NodeId& n : partial_view_) {
        if (n == node) return true;
      }
      return false;
    }
    return partial_index_.contains(node.raw());
  }

  /// View size beyond which the PartialView id→slot index kicks in.
  /// (c+1)·ln(n) crosses 64 only in the hundreds-of-thousands-of-nodes
  /// range — every paper-scale experiment stays in scan mode.
  static constexpr std::size_t kPartialIndexThreshold = 64;

  /// True once the flat-hash index is active (introspection for tests).
  [[nodiscard]] bool partial_index_active() const {
    return !partial_index_.empty();
  }

 private:
  void handle_subscribe(const NodeId& from, const wire::ScampSubscribe& m);
  void handle_forwarded_sub(const wire::ScampForwardedSub& m);
  void handle_replace(const NodeId& from, const wire::ScampReplace& m);

  /// Integrates `subscriber` into the PartialView and notifies it so it can
  /// maintain its InView.
  void keep_subscription(const NodeId& subscriber);

  void resubscribe();

  /// PartialView mutation helpers: the dense vector (sampling, iteration)
  /// and the id→slot index move together once the index is active. The
  /// vector uses swap-remove, so the index re-points the slid entry on
  /// erase.
  void partial_push(const NodeId& node);
  bool partial_erase(const NodeId& node);
  void partial_clear();

  [[nodiscard]] NodeId self() const { return env_.self(); }

  static bool erase_value(std::vector<NodeId>& v, const NodeId& node);

  membership::Env& env_;
  ScampConfig config_;
  std::vector<NodeId> partial_view_;
  /// NodeId::raw() → slot in partial_view_. Invariant: empty (scan mode),
  /// or exactly mirrors partial_view_ (index mode — view crossed
  /// kPartialIndexThreshold; hysteresis: once built it stays).
  FlatMap<std::uint64_t, std::uint32_t> partial_index_;
  std::vector<NodeId> in_view_;

  /// Reused broadcast_targets candidate buffer (dissemination hot path).
  std::vector<NodeId> target_candidates_;

  std::size_t cycle_count_ = 0;
  std::size_t cycles_since_heartbeat_ = 0;
  bool started_ = false;

  ScampStats stats_;
};

}  // namespace hyparview::baselines
