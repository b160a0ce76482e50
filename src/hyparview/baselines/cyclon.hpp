// Cyclon membership protocol (Voulgaris, Gavidia, van Steen, JNSM 2005),
// the cyclic-strategy baseline of the paper's evaluation (§5).
//
// Each node keeps a fixed-capacity view of (id, age) entries. Periodically it
// ages all entries, removes the oldest peer Q, and exchanges a sample of its
// view (plus a fresh self-entry) with Q; both sides integrate the received
// entries, preferring empty slots and then the slots of entries they shipped.
// Joins are in-degree-preserving random walks: the node where a walk ends
// swaps a random view entry for the joiner and gifts the displaced entry to
// the joiner.
//
// CyclonAcked — the paper's strawman that adds a dissemination-time failure
// detector — is this class with `purge_on_unreachable = true`: when the
// gossip layer reports an undeliverable peer, the entry is purged.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hyparview/common/node_id.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::baselines {

struct CyclonConfig {
  /// View capacity (paper's comparison setup: 35 = HyParView active+passive).
  std::size_t view_capacity = 35;
  /// Shuffle exchange length l, including the fresh self entry (paper: 14).
  std::size_t shuffle_length = 14;
  /// TTL of join random walks (paper: 5).
  std::uint8_t join_walk_ttl = 5;
  /// Number of join walks the introducer fires (0 = view_capacity walks,
  /// the Cyclon default: the joiner's view gets filled by walk gifts).
  std::size_t join_walks = 0;
  /// Purge view entries the gossip layer failed to reach (CyclonAcked).
  bool purge_on_unreachable = false;
  /// When the shuffle target is detected dead, retry with the next oldest
  /// entry (Cyclon removes unresponsive shuffle targets).
  bool shuffle_retry_on_failure = true;

  void validate() const;
  bool operator==(const CyclonConfig&) const = default;
};

struct CyclonStats {
  std::uint64_t shuffles_initiated = 0;
  std::uint64_t shuffles_answered = 0;
  std::uint64_t join_walks_terminated = 0;
  std::uint64_t gifts_received = 0;
  std::uint64_t entries_purged = 0;
};

class Cyclon final : public membership::Protocol {
 public:
  Cyclon(membership::Env& env, CyclonConfig config);

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
  [[nodiscard]] const char* name() const override {
    return config_.purge_on_unreachable ? "cyclon-acked" : "cyclon";
  }

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] const std::vector<wire::AgedId>& view() const { return view_; }
  [[nodiscard]] const CyclonStats& stats() const { return stats_; }
  [[nodiscard]] const CyclonConfig& config() const { return config_; }

 private:
  void handle_join_walk(const NodeId& sender, const wire::CyclonJoinWalk& m);
  void handle_shuffle(const NodeId& from, const wire::CyclonShuffle& m);
  void handle_shuffle_reply(const NodeId& from,
                            const wire::CyclonShuffleReply& m);

  /// Terminal step of a join walk: swap a random entry for the joiner and
  /// gift the displaced entry to it.
  void terminate_join_walk(const NodeId& new_node);

  void initiate_shuffle();

  /// Cyclon integration rule: skip self/known ids; fill empty slots first,
  /// then replace the entries shipped to the peer (`shipped` — a by-value
  /// flat list consumed on the stack, never the allocator).
  void integrate(std::span<const wire::AgedId> received,
                 wire::AgedList shipped);

  [[nodiscard]] bool in_view(const NodeId& node) const;
  bool remove_entry(const NodeId& node);
  [[nodiscard]] NodeId self() const { return env_.self(); }

  membership::Env& env_;
  CyclonConfig config_;
  std::vector<wire::AgedId> view_;

  /// Scratch buffers reused across calls so the dissemination AND
  /// membership hot paths do not allocate: candidate ids for
  /// broadcast_targets, the id projection of view_ handed out by
  /// dissemination_view(), and the exchange-builder sample scratch.
  std::vector<NodeId> target_candidates_;
  mutable std::vector<NodeId> view_ids_;
  std::vector<wire::AgedId> sample_scratch_;

  /// Entries shipped in the most recent outgoing shuffle, used when the
  /// reply arrives. (One shuffle per cycle; replies drain before the next.)
  /// Flat list + valid flag instead of optional<vector>: POD, reused.
  wire::AgedList pending_shuffle_;
  bool pending_shuffle_valid_ = false;

  CyclonStats stats_;
};

}  // namespace hyparview::baselines
