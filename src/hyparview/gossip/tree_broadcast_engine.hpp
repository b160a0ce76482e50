// Plumtree: epidemic broadcast trees over the membership substrate
// (Leitão, Pereira, Rodrigues — "Epidemic Broadcast Trees", SRDS 2007; the
// companion protocol the HyParView paper positions as its payload plane).
//
// Every active-view link is in one of two states per node:
//
//  * eager — fresh payloads are pushed immediately (TreeGossip);
//  * lazy  — only an IHave announcement (id + hop count) is sent.
//
// All links start eager, so the first broadcast floods. Each duplicate
// eager arrival sends Prune back and demotes that link to lazy; what
// remains eager converges to a spanning tree rooted anywhere (a single
// shared tree serves all sources). Recovery inverts the decay: a node that
// hears an IHave for a message it never receives eagerly waits
// `graft_timeout`, then sends Graft to the announcer — promoting that link
// back to eager and requesting a retransmission from the payload cache.
// HyParView's neighbor-down events (link closed / peer unreachable) clear
// the per-peer tree state so the next broadcast re-floods across the
// repaired membership edge; brand-new neighbors start eager by definition.
//
// Delivered ids live in one table per node (DedupWindow<Delivery>): the
// duplicate check reads it over `dedup_window` first deliveries and Graft
// answers over `cache_window`. Only the header is cached — payloads are
// synthetic — so a Graft answer regenerates the frame from the entry.
//
// Hot-path discipline matches GossipEngine: fixed-capacity rings +
// open-addressing probe tables, scratch buffers reused across messages,
// zero steady-state allocation (gated by bench/micro_sim_events and the
// lint_config.toml pins). All per-message iteration walks either the
// protocol's deterministic target order or insertion-ordered flat vectors,
// so simulation runs are bit-identical at fixed seed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/flat_hash.hpp"
#include "hyparview/common/node_id.hpp"
#include "hyparview/gossip/broadcast_engine.hpp"
#include "hyparview/gossip/dedup_window.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::gossip {

class TreeBroadcastEngine final : public BroadcastEngine {
 public:
  /// Announcers remembered per missing message: graft attempts rotate
  /// through them (first IHave first), so one dead announcer cannot stall
  /// recovery.
  static constexpr std::size_t kMaxAnnouncers = 8;
  /// Lazy-set capacity. The active view is fanout+1 (5 at paper scale), so
  /// 16 never saturates in practice; if it ever does, the oldest demotion
  /// turns eager again — safe (costs redundancy, never reliability).
  static constexpr std::size_t kMaxLazyPeers = 16;
  /// Duplicates an eager in-link must deliver within one score window —
  /// with zero fresh deliveries in the same window — before it is pruned.
  /// Reacting to a single duplicate is wrong under concurrent multi-source
  /// streams (see handle_gossip).
  static constexpr std::uint32_t kPruneDupThreshold = 2;

  TreeBroadcastEngine(membership::Env& env, membership::Protocol& protocol,
                      GossipConfig config, DeliveryObserver* observer);

  void broadcast(std::uint64_t msg_id) override;

  // Typed frame handlers (unit tests drive these directly).
  void handle_gossip(const NodeId& from, const wire::TreeGossip& msg);
  void handle_ihave(const NodeId& from, const wire::IHave& msg);
  void handle_graft(const NodeId& from, const wire::Graft& msg);
  void handle_prune(const NodeId& from);

  [[nodiscard]] bool handle(const NodeId& from,
                            const wire::Message& msg) override;
  [[nodiscard]] bool handle_send_failed(const NodeId& to,
                                        const wire::Message& msg) override;
  void on_neighbor_down(const NodeId& peer) override;

  void set_fanout(std::size_t fanout) override { config_.fanout = fanout; }
  [[nodiscard]] std::size_t fanout() const override { return config_.fanout; }
  [[nodiscard]] const char* engine_name() const override { return "plumtree"; }

  [[nodiscard]] std::uint64_t duplicates_received() const override {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t messages_forwarded() const override {
    return forwarded_;
  }
  [[nodiscard]] std::uint64_t payload_bytes_sent() const override {
    return payload_bytes_;
  }
  [[nodiscard]] std::uint64_t control_bytes_sent() const override {
    return control_bytes_;
  }
  [[nodiscard]] std::uint64_t grafts_sent() const override { return grafts_; }
  [[nodiscard]] std::uint64_t prunes_sent() const override { return prunes_; }
  [[nodiscard]] std::size_t history_bytes() const override {
    return history_.storage_bytes();
  }

  /// Links currently demoted to lazy (tests/analysis; insertion order).
  [[nodiscard]] std::span<const NodeId> lazy_peers() const {
    return lazy_peers_;
  }
  /// Missing-message entries with an armed graft timer (tests).
  [[nodiscard]] std::size_t pending_grafts() const { return missing_.size(); }

  void reset() override;

 private:
  /// What a Graft answer needs to rebuild a delivered payload frame.
  struct Delivery {
    std::uint32_t payload_size = 0;
    std::uint16_t hops = 0;
  };

  /// Per-missing-message repair state, created by the first IHave.
  /// The counters lead, so they share a cache line with the probe-table
  /// key and the first announcers.
  struct MissingEntry {
    std::uint16_t hops = 0;
    std::uint8_t count = 0;
    std::uint8_t tried = 0;
    std::array<NodeId, kMaxAnnouncers> announcers{};
  };

  void deliver_and_push(const NodeId& from, std::uint64_t msg_id,
                        std::uint16_t hops);
  void on_graft_timer(std::uint64_t msg_id);
  [[nodiscard]] bool is_lazy(const NodeId& peer) const;
  void promote(const NodeId& peer);
  void demote(const NodeId& peer);
  void send_payload(const NodeId& to, const wire::TreeGossip& msg);

  membership::Env& env_;
  membership::Protocol& protocol_;
  GossipConfig config_;
  DeliveryObserver* observer_;

  /// Delivered ids: seen() spans dedup_window, cached() cache_window.
  DedupWindow<Delivery> history_;
  /// msg_id -> repair state. Point lookups only (no iteration), so the
  /// probe table's layout never influences event order. Entries are erased
  /// on eager arrival or when every announcer has been tried; the timer
  /// chain therefore always terminates and never keeps the simulator from
  /// quiescing.
  FlatMap<std::uint64_t, MissingEntry, SequentialIndex> missing_;
  /// Per-in-link delivery score over a sliding graft_timeout window: how
  /// many fresh payloads (`firsts`) vs duplicates (`dups`) the peer's eager
  /// pushes delivered since `window_start`. The prune rule reads this
  /// instead of reacting to single duplicates (see handle_gossip).
  struct LinkScore {
    NodeId peer;
    TimePoint window_start = 0;
    std::uint32_t firsts = 0;
    std::uint32_t dups = 0;
    /// The previous window scored fresh deliveries: one window of
    /// protection after a tree parent goes quiet, so a boundary race does
    /// not cut it. Only real firsts refresh this — the grace itself decays
    /// the next roll (a perpetual grace would block pruning forever).
    bool grace = false;
  };

  /// Rolls the window if stale and returns the peer's score slot (evicting
  /// the oldest entry when the table is saturated).
  [[nodiscard]] LinkScore& link_score(const NodeId& peer);
  void drop_link_score(const NodeId& peer);

  /// Demoted (IHave-only) links, insertion-ordered for determinism. Small:
  /// bounded by kMaxLazyPeers, scanned linearly.
  std::vector<NodeId> lazy_peers_;
  /// Eager in-link scores. Insertion-ordered flat vector, same idiom as
  /// lazy_peers_ (the eager in-neighbor set tracks the active view,
  /// ~fanout+1, so linear scans stay cheap and deterministic); bounded by
  /// kMaxLazyPeers with FIFO eviction.
  std::vector<LinkScore> link_scores_;
  /// Rate limit for the weak-link prune rule (one per graft_timeout
  /// window); dead-link prunes are not limited. See handle_gossip.
  TimePoint weak_prune_mute_until_ = 0;
  /// Reused target buffer for the push loop. Same re-entrancy invariant as
  /// GossipEngine::targets_scratch_: nothing reachable from env_.send()
  /// re-enters the push loop; synchronous dial failures only touch
  /// handle_send_failed, which never uses this buffer.
  std::vector<NodeId> targets_scratch_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t control_bytes_ = 0;
  std::uint64_t grafts_ = 0;
  std::uint64_t prunes_ = 0;
};

}  // namespace hyparview::gossip
