#include "hyparview/gossip/tree_broadcast_engine.hpp"

namespace hyparview::gossip {

TreeBroadcastEngine::TreeBroadcastEngine(membership::Env& env,
                                         membership::Protocol& protocol,
                                         GossipConfig config,
                                         DeliveryObserver* observer)
    : env_(env),
      protocol_(protocol),
      config_(config),
      observer_(observer),
      history_(config_.dedup_window, config_.cache_window) {
  lazy_peers_.reserve(kMaxLazyPeers);
  link_scores_.reserve(kMaxLazyPeers);
}

void TreeBroadcastEngine::broadcast(std::uint64_t msg_id) {
  // Already saw/originated this id?
  if (!history_.remember(msg_id, {config_.payload_size, 0})) return;
  if (observer_ != nullptr) observer_->on_deliver(env_.self(), msg_id, 0);
  deliver_and_push(kNoNode, msg_id, 0);
  protocol_.on_traffic(kNoNode);
}

void TreeBroadcastEngine::handle_gossip(const NodeId& from,
                                        const wire::TreeGossip& msg) {
  if (!history_.remember(msg.msg_id, {msg.payload_size, msg.hops})) {
    // Duplicate eager arrival: evidence the link is redundant — but only
    // evidence. With one message in flight, pruning on the first duplicate
    // is safe (the duplicate proves another eager path delivered first, so
    // the eager graph stays connected after the cut). Under concurrent
    // multi-source streams it is not: different in-flight messages flood in
    // different directions, each justifies pruning a *different* in-link of
    // the same node, and the composed prunes disconnect the eager subgraph.
    // Every delivery then waits out a graft timer and the re-promoted links
    // duplicate again — a sustained graft/prune limit cycle (~n duplicates
    // per message instead of ~0, and graft-timeout latencies).
    //
    // So the prune decision reads a per-link score over a graft_timeout
    // window instead: prune only a link that delivered kPruneDupThreshold
    // duplicates and NO fresh payload in the window. A link that wins the
    // race for any active source keeps scoring firsts and is never cut, so
    // with a stable source set the eager graph keeps spanning; links that
    // win for no source decay to lazy, converging to the same shared
    // spanning tree the sequential decay reaches.
    ++duplicates_;
    if (observer_ != nullptr) observer_->on_duplicate(env_.self(), msg.msg_id);
    if (from != kNoNode) {
      LinkScore& score = link_score(from);
      ++score.dups;
      if (score.dups >= kPruneDupThreshold) {
        // Dead link: a whole window (plus grace) of duplicates and not one
        // fresh delivery. The rest of the eager graph delivered everything
        // first, so cutting it — even many at once — keeps the graph
        // spanning for the active sources.
        const bool dead = score.firsts == 0 && !score.grace;
        // Weak link: loses at least half its races (per-message latency
        // jitter rotates the winner among same-distance in-links, so a
        // redundant tie pair splits firsts ~50/50 and neither ever goes
        // fully dead). Cutting is safe — every duplicate proves a rival
        // delivered the same message — but only one weak cut per node per
        // window: the rival of a tie pair must survive long enough to
        // inherit all the wins and earn protection.
        const bool weak = score.firsts > 0 && score.dups >= score.firsts &&
                          env_.now() >= weak_prune_mute_until_;
        if (dead || weak) {
          if (weak && !dead) {
            weak_prune_mute_until_ = env_.now() + config_.graft_timeout;
          }
          ++prunes_;
          control_bytes_ += wire::encoded_size(wire::Message{wire::Prune{}});
          env_.send(from, wire::Prune{});
          demote(from);
          drop_link_score(from);
        }
      }
    }
    return;
  }
  if (observer_ != nullptr) {
    observer_->on_deliver(env_.self(), msg.msg_id, msg.hops);
  }
  // An outstanding graft timer for this id is now moot; the timer callback
  // checks history_ and no-ops, but dropping the entry immediately keeps
  // pending_grafts() an honest "still missing" count.
  missing_.erase(msg.msg_id);
  // The eager sender proved itself a useful tree edge.
  if (from != kNoNode) ++link_score(from).firsts;
  promote(from);
  deliver_and_push(from, msg.msg_id, msg.hops);
  protocol_.on_traffic(from);
}

void TreeBroadcastEngine::deliver_and_push(const NodeId& from,
                                           std::uint64_t msg_id,
                                           std::uint16_t hops) {
  // Flood shape: ask for the whole dissemination view minus the sender
  // (fanout 0 = no truncation), then split it into eager pushes and lazy
  // announcements. HyParView's active view is the tree's edge candidate
  // set, exactly as in the Plumtree paper.
  protocol_.broadcast_targets(0, from, targets_scratch_);
  wire::TreeGossip push;
  push.msg_id = msg_id;
  push.hops = static_cast<std::uint16_t>(hops + 1);
  push.payload_size = config_.payload_size;
  const wire::IHave announce{msg_id, push.hops};
  const std::size_t announce_cost =
      wire::encoded_size(wire::Message{announce});
  for (const NodeId& t : targets_scratch_) {
    if (is_lazy(t)) {
      control_bytes_ += announce_cost;
      env_.send(t, announce);
    } else {
      send_payload(t, push);
    }
  }
}

void TreeBroadcastEngine::send_payload(const NodeId& to,
                                       const wire::TreeGossip& msg) {
  ++forwarded_;
  payload_bytes_ += wire::wire_cost(msg);
  env_.send(to, msg);
}

void TreeBroadcastEngine::handle_ihave(const NodeId& from,
                                       const wire::IHave& msg) {
  if (history_.seen(msg.msg_id)) return;
  MissingEntry* entry = missing_.find(msg.msg_id);
  if (entry == nullptr) {
    entry = &missing_.insert(msg.msg_id, MissingEntry{});
    entry->hops = msg.hops;
    // First announcement arms the graft timer; later IHaves only extend
    // the announcer rotation. The timer chain re-arms itself while untried
    // announcers remain, so one schedule per missing id is enough.
    const std::uint64_t id = msg.msg_id;
    env_.schedule(config_.graft_timeout, [this, id] { on_graft_timer(id); });
  }
  if (entry->count < kMaxAnnouncers) {
    for (std::uint8_t i = 0; i < entry->count; ++i) {
      if (entry->announcers[i] == from) return;
    }
    entry->announcers[entry->count++] = from;
  }
}

void TreeBroadcastEngine::on_graft_timer(std::uint64_t msg_id) {
  MissingEntry* entry = missing_.find(msg_id);
  if (entry == nullptr) return;
  if (history_.seen(msg_id)) {
    missing_.erase(msg_id);
    return;
  }
  if (entry->tried >= entry->count) {
    // Every announcer tried and none delivered (all crashed or pruned us
    // first). Give up — a later IHave from a live peer restarts repair.
    missing_.erase(msg_id);
    return;
  }
  const NodeId target = entry->announcers[entry->tried++];
  // Graft = "make this link eager and retransmit": promote locally before
  // the round trip so the retransmission arrives on an eager link.
  promote(target);
  ++grafts_;
  const wire::Graft graft{msg_id};
  control_bytes_ += wire::encoded_size(wire::Message{graft});
  env_.send(target, graft);
  // Re-arm to rotate to the next announcer if this one never answers.
  env_.schedule(config_.graft_timeout,
                [this, msg_id] { on_graft_timer(msg_id); });
}

void TreeBroadcastEngine::handle_graft(const NodeId& from,
                                       const wire::Graft& msg) {
  // The peer missed a message we announced: the link becomes eager in both
  // directions and we retransmit from the cache (if not yet evicted — a
  // stale Graft past the cache horizon is answered by tree repair alone).
  promote(from);
  if (const Delivery* cached = history_.cached(msg.msg_id)) {
    wire::TreeGossip push;
    push.msg_id = msg.msg_id;
    push.hops = static_cast<std::uint16_t>(cached->hops + 1);
    push.payload_size = cached->payload_size;
    send_payload(from, push);
  }
}

void TreeBroadcastEngine::handle_prune(const NodeId& from) {
  // The peer stops pushing to us too (it demoted us before sending this),
  // so its in-link score is dead weight.
  demote(from);
  drop_link_score(from);
}

bool TreeBroadcastEngine::handle(const NodeId& from,
                                 const wire::Message& msg) {
  if (const auto* g = std::get_if<wire::TreeGossip>(&msg)) {
    handle_gossip(from, *g);
    return true;
  }
  if (const auto* ih = std::get_if<wire::IHave>(&msg)) {
    handle_ihave(from, *ih);
    return true;
  }
  if (const auto* gr = std::get_if<wire::Graft>(&msg)) {
    handle_graft(from, *gr);
    return true;
  }
  if (std::holds_alternative<wire::Prune>(msg)) {
    handle_prune(from);
    return true;
  }
  return false;
}

bool TreeBroadcastEngine::handle_send_failed(const NodeId& to,
                                             const wire::Message& msg) {
  if (!wire::is_payload_plane(msg)) return false;
  // TCP-as-failure-detector, as in flood mode: report the dead peer to the
  // membership layer (which repairs the view) and drop its tree state. A
  // failed Graft self-heals through the timer chain — the next firing
  // rotates to the next announcer.
  on_neighbor_down(to);
  protocol_.peer_unreachable(to);
  return true;
}

void TreeBroadcastEngine::on_neighbor_down(const NodeId& peer) {
  // Forget the demotion: if the membership layer replaces this link, the
  // replacement (or the peer itself, rejoining) starts eager, and the next
  // broadcast repairs the tree through it. Announcer entries referring to
  // the peer are left in place — grafting a dead announcer fails fast and
  // rotates on.
  promote(peer);
  drop_link_score(peer);
}

bool TreeBroadcastEngine::is_lazy(const NodeId& peer) const {
  for (const NodeId& p : lazy_peers_) {
    if (p == peer) return true;
  }
  return false;
}

void TreeBroadcastEngine::promote(const NodeId& peer) {
  for (std::size_t i = 0; i < lazy_peers_.size(); ++i) {
    if (lazy_peers_[i] == peer) {
      lazy_peers_.erase(lazy_peers_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void TreeBroadcastEngine::demote(const NodeId& peer) {
  if (peer == kNoNode || is_lazy(peer)) return;
  if (lazy_peers_.size() == kMaxLazyPeers) {
    // Saturated: turn the oldest demotion eager again (extra redundancy,
    // never lost reliability).
    lazy_peers_.erase(lazy_peers_.begin());
  }
  lazy_peers_.push_back(peer);
}

TreeBroadcastEngine::LinkScore& TreeBroadcastEngine::link_score(
    const NodeId& peer) {
  const TimePoint now = env_.now();
  for (LinkScore& s : link_scores_) {
    if (s.peer == peer) {
      if (now - s.window_start >= config_.graft_timeout) {
        // Roll the window. A link that scored fresh deliveries keeps one
        // window of grace, so a tree parent whose first delivery of the new
        // window loses one race is not cut on a boundary artifact.
        //
        // Dups reset only out of a DENSE window (one with enough events to
        // support a prune judgment on its own). A sparse window — traffic so
        // slow the window saw fewer events than kPruneDupThreshold — carries
        // its dup count (at most threshold-1) forward instead: a full reset
        // at that rate would wipe the count before it ever reached the
        // threshold, and a pure loser could never be judged dead. Dense
        // windows must NOT carry: a busy dup-only link would cross the roll
        // already at the threshold, one fresh duplicate would cut it
        // instantly, and — dead prunes being unbudgeted — a node could cut
        // many in-links in one burst, recreating exactly the composed-prune
        // disconnection this score exists to prevent.
        s.grace = s.firsts > 0;
        if (s.firsts + s.dups >= kPruneDupThreshold) s.dups = 0;
        s.firsts = 0;
        s.window_start = now;
      }
      return s;
    }
  }
  if (link_scores_.size() == kMaxLazyPeers) {
    // Saturated (churn faster than decay): forget the oldest score. Worst
    // case the forgotten link is re-scored from scratch — extra redundancy
    // for a window, never lost reliability.
    link_scores_.erase(link_scores_.begin());
  }
  link_scores_.push_back(LinkScore{peer, now, 0, 0, false});
  return link_scores_.back();
}

void TreeBroadcastEngine::drop_link_score(const NodeId& peer) {
  for (std::size_t i = 0; i < link_scores_.size(); ++i) {
    if (link_scores_[i].peer == peer) {
      link_scores_.erase(link_scores_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void TreeBroadcastEngine::reset() {
  history_.clear();
  missing_.clear();
  lazy_peers_.clear();
  link_scores_.clear();
  weak_prune_mute_until_ = 0;
}

}  // namespace hyparview::gossip
