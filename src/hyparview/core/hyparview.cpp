#include "hyparview/core/hyparview.hpp"

#include <algorithm>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/logging.hpp"

namespace hyparview::core {

void Config::validate() const {
  HPV_CHECK_THROW(active_capacity >= 1, "active view capacity must be >= 1");
  HPV_CHECK_THROW(passive_capacity >= 1, "passive view capacity must be >= 1");
  HPV_CHECK_THROW(prwl <= arwl, "PRWL must not exceed ARWL");
  HPV_CHECK_THROW(shuffle_ttl >= 1, "shuffle TTL must be >= 1");
  HPV_CHECK_THROW(warm_cache_size <= passive_capacity,
                  "warm cache cannot exceed the passive view");
  // The shuffle payload (self + ka active + kp passive samples) must fit
  // the flat bounded wire frame — see wire::kMaxShuffleEntries.
  HPV_CHECK_THROW(1 + shuffle_ka + shuffle_kp <= wire::kMaxShuffleEntries,
                  "1 + shuffle_ka + shuffle_kp exceeds the flat shuffle "
                  "frame capacity (wire::kMaxShuffleEntries)");
}

HyParView::HyParView(membership::Env& env, Config config)
    : env_(env), config_(config) {
  config_.validate();
  active_.reserve(config_.active_capacity + 1);
  passive_.reserve(config_.passive_capacity + 1);
  // Scratch capacities: the protocol hot paths (every shuffle hop, every
  // forward-join hop, every promotion sweep) must not allocate in steady
  // state; each scratch is bounded by a view capacity.
  promote_attempted_.reserve(config_.passive_capacity + 1);
  walk_scratch_.reserve(config_.active_capacity + 1);
  sample_scratch_.reserve(
      std::max(config_.active_capacity, config_.passive_capacity) + 1);
  evict_scratch_.reserve(wire::kMaxShuffleEntries);
}

void HyParView::start(std::optional<NodeId> contact) {
  if (!contact.has_value() || *contact == self()) return;
  // The JOIN travels over the fresh connection to the contact; both sides
  // install the symmetric link (the contact via handle_join).
  add_to_active(*contact);
  env_.send(*contact, wire::Join{});
}

void HyParView::handle(const NodeId& from, const wire::Message& msg) {
  if (std::holds_alternative<wire::Join>(msg)) {
    handle_join(from);
  } else if (const auto* fj = std::get_if<wire::ForwardJoin>(&msg)) {
    handle_forward_join(from, *fj);
  } else if (std::holds_alternative<wire::ForwardJoinAccept>(msg)) {
    // End of a join walk: the walked node adopted us; mirror the link.
    add_to_active(from);
  } else if (std::holds_alternative<wire::Disconnect>(msg)) {
    handle_disconnect(from);
  } else if (const auto* nb = std::get_if<wire::Neighbor>(&msg)) {
    handle_neighbor(from, *nb);
  } else if (const auto* nr = std::get_if<wire::NeighborReply>(&msg)) {
    handle_neighbor_reply(from, *nr);
  } else if (const auto* sh = std::get_if<wire::Shuffle>(&msg)) {
    handle_shuffle(from, *sh);
  } else if (const auto* sr = std::get_if<wire::ShuffleReply>(&msg)) {
    handle_shuffle_reply(from, *sr);
  } else {
    HPV_LOG_DEBUG("hyparview %s: ignoring %s", self().to_string().c_str(),
                  wire::type_name(msg));
  }
}

void HyParView::handle_join(const NodeId& new_node) {
  if (new_node == self()) return;
  ++stats_.joins_handled;
  add_to_active(new_node);
  // Propagate the join through the overlay with ARWL-bounded random walks.
  for (const NodeId& n : active_) {
    if (n == new_node) continue;
    env_.send(n, wire::ForwardJoin{new_node, config_.arwl});
  }
}

void HyParView::handle_forward_join(const NodeId& sender,
                                    const wire::ForwardJoin& m) {
  if (m.new_node == self()) return;
  heal_asymmetry(sender);
  ++stats_.forward_joins_routed;
  // Algorithm 1: terminal when the TTL expired or this node is nearly
  // isolated (its only active member is the walk's sender).
  if (m.ttl == 0 || active_.size() <= 1) {
    accept_forward_join(m.new_node);
    return;
  }
  if (m.ttl == config_.prwl) add_to_passive(m.new_node);
  walk_scratch_.clear();
  for (const NodeId& n : active_) {
    if (n != sender && n != m.new_node) walk_scratch_.push_back(n);
  }
  if (walk_scratch_.empty()) {
    // Nowhere to continue the walk; act as its terminal node.
    accept_forward_join(m.new_node);
    return;
  }
  env_.send(env_.rng().pick(walk_scratch_),
            wire::ForwardJoin{m.new_node, static_cast<std::uint8_t>(m.ttl - 1)});
}

void HyParView::accept_forward_join(const NodeId& new_node) {
  if (new_node == self() || in_active(new_node)) return;
  ++stats_.forward_joins_accepted;
  add_to_active(new_node);
  env_.send(new_node, wire::ForwardJoinAccept{});
}

void HyParView::handle_disconnect(const NodeId& peer) {
  if (!in_active(peer)) return;
  ++stats_.disconnects_received;
  erase_value(active_, peer);
  env_.disconnect(peer);
  // The peer is alive (it said goodbye politely): keep it as a backup.
  add_to_passive(peer);
  if (config_.promote_on_any_slot) {
    promote_attempted_.clear();
    maybe_promote();
  }
}

void HyParView::handle_neighbor(const NodeId& from, const wire::Neighbor& m) {
  bool accept = false;
  if (m.high_priority) {
    // High priority requests come from isolated nodes and are never refused.
    add_to_active(from);
    accept = true;
  } else if (in_active(from)) {
    accept = true;
  } else if (active_.size() < config_.active_capacity) {
    add_to_active(from);
    accept = true;
  }
  if (accept) {
    ++stats_.neighbor_accepts;
  } else {
    ++stats_.neighbor_rejects;
  }
  env_.send(from, wire::NeighborReply{accept});
}

void HyParView::handle_neighbor_reply(const NodeId& from,
                                      const wire::NeighborReply& m) {
  const bool answers_episode =
      promote_candidate_.has_value() && *promote_candidate_ == from;
  if (answers_episode) {
    promote_candidate_.reset();
    promote_in_flight_ = false;
  }
  if (m.accepted) {
    ++stats_.promotions;
    if (answers_episode && promote_warm_) ++stats_.warm_promotions;
    add_to_active(from);
    promote_attempted_.clear();
  } else if (!is_warm(from)) {
    // §4.3: the candidate stays in the passive view; close the probe link
    // (unless it is a cache-kept one) and try another candidate.
    env_.disconnect(from);
  }
  maybe_promote();
}

void HyParView::on_cycle() {
  promote_attempted_.clear();
  maybe_promote();
  do_shuffle();
  refresh_warm_cache();
}

void HyParView::leave() {
  // The paper defines no explicit leave; DISCONNECT is its goodbye
  // primitive. Each active neighbor demotes us politely (freeing the slot
  // for a passive promotion) instead of burning a failure detection on our
  // closed socket. Passive/warm traces of us die out through the §4.3
  // probe-and-expunge path.
  for (const NodeId& n : active_) {
    env_.send(n, wire::Disconnect{});
    env_.disconnect(n);
  }
  for (const NodeId& n : warm_) env_.disconnect(n);
  active_.clear();
  passive_.clear();
  warm_.clear();
  warm_pending_.clear();
  promote_in_flight_ = false;
  promote_candidate_.reset();
  promote_attempted_.clear();
}

void HyParView::do_shuffle() {
  if (active_.empty()) return;
  ++stats_.shuffles_initiated;
  // Build the flat frame in place: self + ka active + kp passive samples.
  // The samples land in a reused scratch vector so a node shuffling every
  // cycle never allocates (the capacity bound is enforced at validate()).
  wire::Shuffle shuffle;
  shuffle.origin = self();
  shuffle.ttl = config_.shuffle_ttl;
  shuffle.entries.push_back(self());
  env_.rng().sample_into(std::span<const NodeId>(active_), config_.shuffle_ka,
                         sample_scratch_);
  for (const NodeId& n : sample_scratch_) shuffle.entries.push_back(n);
  env_.rng().sample_into(std::span<const NodeId>(passive_), config_.shuffle_kp,
                         sample_scratch_);
  for (const NodeId& n : sample_scratch_) shuffle.entries.push_back(n);
  const NodeId target = env_.rng().pick(active_);
  env_.send(target, shuffle);
}

void HyParView::handle_shuffle(const NodeId& sender, const wire::Shuffle& m) {
  if (m.origin == self()) return;  // walk looped back to the initiator
  heal_asymmetry(sender);
  const std::uint8_t ttl = m.ttl > 0 ? static_cast<std::uint8_t>(m.ttl - 1) : 0;
  if (ttl > 0 && active_.size() > 1) {
    walk_scratch_.clear();
    for (const NodeId& n : active_) {
      if (n != sender && n != m.origin) walk_scratch_.push_back(n);
    }
    if (!walk_scratch_.empty()) {
      ++stats_.shuffles_forwarded;
      wire::Shuffle forwarded = m;  // flat frame: a plain POD copy
      forwarded.ttl = ttl;
      env_.send(env_.rng().pick(walk_scratch_), forwarded);
      return;
    }
  }
  // Accept: answer with as many passive entries as we received, directly to
  // the origin over a temporary connection. The reply reuses the sample
  // scratch and echoes the received list with a POD copy. The reply size is
  // clamped to the honest payload bound (1 + ka + kp): an oversized hostile
  // SHUFFLE must not extract a bigger passive sample than the protocol ever
  // volunteers (honest frames carry exactly 1 + ka + kp entries, so the
  // clamp never binds on them).
  ++stats_.shuffles_accepted;
  env_.rng().sample_into(
      std::span<const NodeId>(passive_),
      std::min({m.entries.size(), passive_.size(),
                1 + config_.shuffle_ka + config_.shuffle_kp}),
      sample_scratch_);
  wire::ShuffleReply reply;
  reply.sent = m.entries;
  reply.entries.assign(sample_scratch_);
  env_.send(m.origin, reply);
  integrate_shuffle_entries(m.entries.span(), reply.entries.span());
  if (!in_active(m.origin) && !is_warm(m.origin)) env_.disconnect(m.origin);
}

void HyParView::handle_shuffle_reply(const NodeId& from,
                                     const wire::ShuffleReply& m) {
  // m.sent echoes the entries we shipped in our SHUFFLE: prefer evicting
  // those when the passive view is full (§4.4).
  integrate_shuffle_entries(m.entries.span(), m.sent.span());
  if (!in_active(from) && !is_warm(from)) env_.disconnect(from);
}

void HyParView::integrate_shuffle_entries(std::span<const NodeId> received,
                                          std::span<const NodeId> sent_to_peer) {
  // Eviction preference queue: ids we sent to the peer, still present.
  // Reused scratch — this runs once per accepted shuffle and once per reply.
  evict_scratch_.clear();
  for (const NodeId& n : sent_to_peer) {
    if (in_passive(n)) evict_scratch_.push_back(n);
  }
  // Per-frame mutation budget: one received list may add (and hence evict)
  // at most shuffle_ka + shuffle_kp passive entries — the fresh-entry bound
  // of an honest exchange. Self-IDs and duplicates within the list are
  // dropped and counted: the bounded decoder accepts such frames (they are
  // wire-legal), so the protocol layer must refuse them. The duplicate scan
  // is O(n²) over a list of at most kMaxShuffleEntries — alloc-free and
  // cheaper than any set at that size.
  const std::size_t budget = config_.shuffle_ka + config_.shuffle_kp;
  std::size_t added = 0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    const NodeId& n = received[i];
    if (n == self()) {
      ++stats_.shuffle_self_dropped;
      continue;
    }
    bool duplicate = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (received[j] == n) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      ++stats_.shuffle_duplicates_dropped;
      continue;
    }
    if (in_active(n) || in_passive(n)) continue;
    if (added >= budget) {
      ++stats_.shuffle_over_budget_dropped;
      continue;
    }
    add_to_passive(n, &evict_scratch_);
    ++added;
  }
}

void HyParView::broadcast_targets(std::size_t /*fanout*/, const NodeId& from,
                                  std::vector<NodeId>& out) {
  // Deterministic flood: the entire active view except the relayer.
  out.clear();
  out.reserve(active_.size());
  for (const NodeId& n : active_) {
    if (n != from) out.push_back(n);
  }
}

void HyParView::peer_unreachable(const NodeId& peer) { node_failed(peer); }

void HyParView::heal_asymmetry(const NodeId& sender) {
  // Flood gossip, FORWARDJOIN walks and SHUFFLE walks travel strictly along
  // active-view links: receiving one from a node outside our active view
  // means the sender carries a stale one-sided link to us (drop/re-add
  // races can produce these even over TCP — messages on different sockets
  // are not mutually ordered). A DISCONNECT makes it demote us and repair,
  // restoring the symmetry invariant of §4.1.
  if (sender == kNoNode || sender == self() || in_active(sender)) return;
  ++stats_.asymmetry_heals;
  env_.send(sender, wire::Disconnect{});
  // Keep the link if it is one of our cached ones (the DISCONNECT message
  // only tells the sender to demote us, not to stop being our candidate).
  if (!is_warm(sender)) env_.disconnect(sender);
}

void HyParView::on_traffic(const NodeId& from) {
  heal_asymmetry(from);
  if (promote_in_flight_ || active_.size() >= config_.active_capacity ||
      passive_.empty()) {
    return;
  }
  // Advance the §4.3 promotion loop: if the previous sweep exhausted every
  // passive candidate (all rejected), start a fresh sweep — peers clean
  // their own views as traffic reaches them, so retrying is what knits
  // disconnected fragments back together after massive failures.
  bool any_untried = false;
  for (const NodeId& n : passive_) {
    if (std::find(promote_attempted_.begin(), promote_attempted_.end(), n) ==
        promote_attempted_.end()) {
      any_untried = true;
      break;
    }
  }
  if (!any_untried) promote_attempted_.clear();
  maybe_promote();
}

void HyParView::on_send_failed(const NodeId& to, const wire::Message& msg) {
  (void)msg;
  node_failed(to);
}

void HyParView::on_link_closed(const NodeId& peer) {
  // Only the standing active-view connections act as failure detectors
  // ("by either disconnecting or blocking", §4.3). Temporary connections —
  // shuffle replies, rejected NEIGHBOR probes — close in normal operation
  // and must not expunge live passive-view candidates.
  if (in_active(peer)) {
    node_failed(peer);
    return;
  }
  // A cache-kept link died: the peer stays a passive candidate (a closed
  // connection is not evidence of a crash — the peer may have shed the
  // link deliberately), but it is no longer pre-connected.
  erase_value(warm_, peer);
}

void HyParView::node_failed(const NodeId& peer) {
  ++stats_.failures_detected;
  // Dead nodes are expunged from both views (they are *not* demoted to the
  // passive view — only polite DISCONNECTs earn that).
  if (erase_value(passive_, peer)) on_passive_removed(peer, false);
  const bool was_active = erase_value(active_, peer);
  if (was_active) env_.disconnect(peer);
  if (promote_candidate_.has_value() && *promote_candidate_ == peer) {
    promote_candidate_.reset();
    promote_in_flight_ = false;
  }
  if (was_active || config_.promote_on_any_slot) {
    // A fresh suspicion starts a fresh repair episode (§4.3 loops "until a
    // connection is established"); candidates that rejected us earlier may
    // have purged their own dead members since.
    promote_attempted_.clear();
    maybe_promote();
  }
}

void HyParView::maybe_promote() {
  if (promote_in_flight_) return;
  if (active_.size() >= config_.active_capacity) {
    promote_attempted_.clear();
    return;
  }
  // Candidates: passive members not yet tried in this repair episode.
  // Pre-connected (warm) candidates are preferred — their dial is already
  // paid, so the NEIGHBOR request can go out immediately (§2.4 / CREW).
  std::vector<NodeId>& warm_candidates = promote_warm_scratch_;
  std::vector<NodeId>& cold_candidates = promote_cold_scratch_;
  warm_candidates.clear();
  cold_candidates.clear();
  for (const NodeId& n : passive_) {
    if (std::find(promote_attempted_.begin(), promote_attempted_.end(), n) !=
        promote_attempted_.end()) {
      continue;
    }
    (is_warm(n) ? warm_candidates : cold_candidates).push_back(n);
  }
  const bool use_warm = !warm_candidates.empty();
  const std::vector<NodeId>& pool =
      use_warm ? warm_candidates : cold_candidates;
  if (pool.empty()) return;  // retry at the next cycle
  const NodeId candidate = env_.rng().pick(pool);
  promote_attempted_.push_back(candidate);
  promote_in_flight_ = true;
  promote_candidate_ = candidate;
  promote_warm_ = use_warm;
  if (use_warm) {
    // The cached connection stands in for the §4.3 liveness probe; if it
    // went stale the NEIGHBOR send fails back and repair moves on.
    env_.send(candidate, wire::Neighbor{active_.empty()});
    return;
  }
  // Establishing the connection doubles as the liveness probe (§4.3).
  env_.connect(candidate, [this, candidate](bool ok) {
    on_promote_connect(candidate, ok);
  });
}

void HyParView::on_promote_connect(const NodeId& candidate, bool ok) {
  if (!promote_candidate_.has_value() || *promote_candidate_ != candidate) {
    return;  // episode superseded (candidate failed or view refilled)
  }
  if (!ok) {
    // Connection refused: the candidate is considered failed and removed
    // from the passive view; try the next one.
    promote_candidate_.reset();
    promote_in_flight_ = false;
    if (erase_value(passive_, candidate)) on_passive_removed(candidate, false);
    maybe_promote();
    return;
  }
  if (active_.size() >= config_.active_capacity) {
    // A join/neighbor filled the view while we were connecting.
    promote_candidate_.reset();
    promote_in_flight_ = false;
    env_.disconnect(candidate);
    return;
  }
  const bool high_priority = active_.empty();
  env_.send(candidate, wire::Neighbor{high_priority});
  // Stay in flight until the NeighborReply (or a send failure) arrives.
}

bool HyParView::add_to_active(const NodeId& node) {
  if (node == self() || in_active(node)) return false;
  if (erase_value(passive_, node)) on_passive_removed(node, /*now_active=*/true);
  if (active_.size() >= config_.active_capacity) drop_random_from_active();
  active_.push_back(node);
  return true;
}

void HyParView::drop_random_from_active() {
  HPV_ASSERT(!active_.empty());
  const std::size_t idx =
      static_cast<std::size_t>(env_.rng().below(active_.size()));
  const NodeId victim = active_[idx];
  env_.send(victim, wire::Disconnect{});
  env_.disconnect(victim);
  active_[idx] = active_.back();
  active_.pop_back();
  add_to_passive(victim);
}

void HyParView::add_to_passive(const NodeId& node,
                               std::vector<NodeId>* prefer_evict) {
  if (node == self() || in_active(node) || in_passive(node)) return;
  if (passive_.size() >= config_.passive_capacity) {
    // Evict an id we already shipped to the shuffle peer if possible,
    // otherwise a random one (§4.4).
    NodeId victim = kNoNode;
    if (prefer_evict != nullptr) {
      while (!prefer_evict->empty() && victim == kNoNode) {
        const NodeId cand = prefer_evict->back();
        prefer_evict->pop_back();
        if (in_passive(cand)) victim = cand;
      }
    }
    if (victim == kNoNode) {
      victim =
          passive_[static_cast<std::size_t>(env_.rng().below(passive_.size()))];
    }
    erase_value(passive_, victim);
    on_passive_removed(victim, false);
  }
  passive_.push_back(node);
}

void HyParView::on_passive_removed(const NodeId& node, bool now_active) {
  if (!erase_value(warm_, node)) return;
  // The cached connection is only kept when the node was promoted into the
  // active view (where the link is now load-bearing).
  if (!now_active) env_.disconnect(node);
}

bool HyParView::is_warm(const NodeId& node) const {
  return std::find(warm_.begin(), warm_.end(), node) != warm_.end();
}

void HyParView::refresh_warm_cache() {
  if (config_.warm_cache_size == 0) return;
  if (warm_.size() >= config_.warm_cache_size) return;
  // Dial enough distinct passive members to cover the deficit. Dials are
  // asynchronous; warm_pending_ keeps one refresh from double-dialing and
  // the callback re-checks every admission condition.
  std::vector<NodeId> candidates;
  for (const NodeId& n : passive_) {
    if (!is_warm(n) &&
        std::find(warm_pending_.begin(), warm_pending_.end(), n) ==
            warm_pending_.end()) {
      candidates.push_back(n);
    }
  }
  std::size_t deficit =
      config_.warm_cache_size - warm_.size() -
      std::min(warm_pending_.size(), config_.warm_cache_size - warm_.size());
  while (deficit > 0 && !candidates.empty()) {
    const NodeId target = env_.rng().pick(candidates);
    erase_value(candidates, target);
    warm_pending_.push_back(target);
    ++stats_.warm_dials;
    env_.connect(target, [this, target](bool ok) {
      erase_value(warm_pending_, target);
      if (!ok) {
        // Same §4.3 semantics as a failed promotion probe: an unreachable
        // candidate is expunged.
        if (erase_value(passive_, target)) on_passive_removed(target, false);
        return;
      }
      if (in_active(target)) return;  // link already load-bearing
      if (!in_passive(target) || is_warm(target) ||
          warm_.size() >= config_.warm_cache_size) {
        env_.disconnect(target);
        return;
      }
      warm_.push_back(target);
    });
    --deficit;
  }
}

std::span<const NodeId> HyParView::dissemination_view() const {
  return active_;
}

std::span<const NodeId> HyParView::backup_view() const { return passive_; }

bool HyParView::in_active(const NodeId& node) const {
  return std::find(active_.begin(), active_.end(), node) != active_.end();
}

bool HyParView::in_passive(const NodeId& node) const {
  return std::find(passive_.begin(), passive_.end(), node) != passive_.end();
}

bool HyParView::erase_value(std::vector<NodeId>& v, const NodeId& node) {
  const auto it = std::find(v.begin(), v.end(), node);
  if (it == v.end()) return false;
  *it = v.back();
  v.pop_back();
  return true;
}

}  // namespace hyparview::core
