#include "hyparview/harness/adversary.hpp"

#include <algorithm>
#include <variant>

#include "hyparview/common/assert.hpp"

namespace hyparview::harness {

const char* attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kPoison: return "poison";
    case AttackKind::kDrop: return "drop";
    case AttackKind::kSybil: return "sybil";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Adversary
// ---------------------------------------------------------------------------

Adversary::Adversary(AdversaryConfig config, std::uint64_t seed,
                     bool real_addresses)
    : config_(config),
      rng_(derive_seed(seed, 0xadf'0001ull)),
      real_addresses_(real_addresses) {}

void Adversary::select(std::size_t node_count) {
  mask_.assign(node_count, false);
  selected_count_ = 0;
  colluders_.clear();
  if (!config_.enabled() || node_count < 2) return;
  const auto want = static_cast<std::size_t>(
      config_.fraction * static_cast<double>(node_count));
  std::vector<std::size_t> candidates;
  candidates.reserve(node_count - 1);
  // The bootstrap contact (node 0) stays honest: an adversarial contact
  // would make every experiment trivially eclipsed at build time.
  for (std::size_t i = 1; i < node_count; ++i) candidates.push_back(i);
  for (const std::size_t i :
       rng_.sample(candidates, std::min(want, candidates.size()))) {
    mask_[i] = true;
    ++selected_count_;
  }
}

bool Adversary::is_adversarial(std::size_t index) const {
  return index < mask_.size() && mask_[index];
}

void Adversary::add_colluder(const NodeId& id) { colluders_.push_back(id); }

NodeId Adversary::fabricate() {
  ++fabricated_serial_;
  if (real_addresses_) {
    // 127.127.x.y — loopback addresses nothing listens on; a dial gets an
    // immediate ECONNREFUSED, a send a failed write. Ports cycle through a
    // high range so identities stay distinct.
    return NodeId{0x7F7F0001u + (fabricated_serial_ >> 16),
                  static_cast<std::uint16_t>(
                      40000u + (fabricated_serial_ & 0xFFFFu))};
  }
  // Out-of-range simulator index: the simulator treats sends/dials to it
  // like traffic to a crashed peer (failure after the detection delay).
  return NodeId{0x4000'0000u + fabricated_serial_, 0};
}

NodeId Adversary::poison_id(Rng& rng) {
  if (colluders_.empty() || rng.chance(config_.fabricated_fraction)) {
    return fabricate();
  }
  return colluders_[static_cast<std::size_t>(rng.below(colluders_.size()))];
}

// ---------------------------------------------------------------------------
// AdversarialProtocol
// ---------------------------------------------------------------------------

AdversarialProtocol::AdversarialProtocol(
    membership::Env& env, std::unique_ptr<membership::Protocol> inner,
    ProtocolKind kind, Adversary& adversary)
    : env_(env),
      inner_(std::move(inner)),
      kind_(kind),
      adversary_(adversary) {
  HPV_CHECK(inner_ != nullptr);
}

void AdversarialProtocol::start(std::optional<NodeId> contact) {
  inner_->start(contact);
}

NodeId AdversarialProtocol::random_view_member() {
  const std::span<const NodeId> view = inner_->dissemination_view();
  if (view.empty()) return kNoNode;
  return view[static_cast<std::size_t>(env_.rng().below(view.size()))];
}

void AdversarialProtocol::poison_hyparview_shuffle(const NodeId& from,
                                                   const wire::Shuffle& m) {
  if (m.origin == env_.self()) {
    inner_->handle(from, m);  // a walk looping back to a colluding origin
    return;
  }
  // Answer the walk right here with a fully poisoned reply. Echoing the
  // origin's own entries as `sent` maximizes eviction of its legitimate
  // passive entries when it integrates ours.
  wire::ShuffleReply reply;
  reply.sent = m.entries;
  const std::size_t n = std::min<std::size_t>(
      adversary_.config().poison_entries, wire::kMaxShuffleEntries);
  for (std::size_t i = 0; i < n; ++i) {
    reply.entries.push_back(adversary_.poison_id(env_.rng()));
  }
  adversary_.counters().poisoned_entries += reply.entries.size();
  ++adversary_.counters().poisoned_frames;
  env_.send(m.origin, reply);
}

void AdversarialProtocol::poison_cyclon_shuffle(const NodeId& from) {
  // Answer with age-0 poison (youngest entries survive aging longest) and
  // never integrate the initiator's sample into a reply of our own.
  wire::CyclonShuffleReply reply;
  const std::size_t n = std::min<std::size_t>(
      adversary_.config().poison_entries, wire::kMaxCyclonShuffleEntries);
  for (std::size_t i = 0; i < n; ++i) {
    reply.entries.push_back(wire::AgedId{adversary_.poison_id(env_.rng()), 0});
  }
  adversary_.counters().poisoned_entries += reply.entries.size();
  ++adversary_.counters().poisoned_frames;
  env_.send(from, reply);
}

void AdversarialProtocol::handle(const NodeId& from,
                                 const wire::Message& msg) {
  if (adversary_.config().attack == AttackKind::kPoison) {
    switch (kind_) {
      case ProtocolKind::kHyParView:
        if (const auto* shuffle = std::get_if<wire::Shuffle>(&msg)) {
          poison_hyparview_shuffle(from, *shuffle);
          return;
        }
        if (const auto* fj = std::get_if<wire::ForwardJoin>(&msg)) {
          // Force-terminate the join walk at this colluder: the joiner's
          // active-view slot (and the reciprocal ForwardJoinAccept link)
          // is captured immediately instead of after a fair random walk.
          wire::ForwardJoin terminal = *fj;
          terminal.ttl = 0;
          ++adversary_.counters().forced_accepts;
          inner_->handle(from, terminal);
          return;
        }
        break;
      case ProtocolKind::kCyclon:
      case ProtocolKind::kCyclonAcked:
        if (std::get_if<wire::CyclonShuffle>(&msg) != nullptr) {
          poison_cyclon_shuffle(from);
          return;
        }
        if (const auto* walk = std::get_if<wire::CyclonJoinWalk>(&msg)) {
          // Terminate the walk here (in-degree swap happens at a
          // colluder), then pre-poison the joiner's nearly-empty starter
          // view with gift entries — gifts only fill free capacity, and a
          // fresh joiner is all free capacity.
          wire::CyclonJoinWalk terminal = *walk;
          terminal.ttl = 0;
          ++adversary_.counters().forced_accepts;
          inner_->handle(from, terminal);
          const std::size_t gifts = adversary_.config().poison_entries;
          for (std::size_t i = 0; i < gifts; ++i) {
            env_.send(walk->new_node,
                      wire::CyclonJoinGift{
                          wire::AgedId{adversary_.poison_id(env_.rng()), 0}});
          }
          adversary_.counters().poisoned_entries += gifts;
          ++adversary_.counters().poisoned_frames;
          return;
        }
        break;
      case ProtocolKind::kScamp:
        // Scamp poisoning is purely proactive (see on_cycle): forwarded
        // subscriptions already spread with the keep probability, so the
        // reactive path stays honest.
        break;
    }
  }
  inner_->handle(from, msg);
}

void AdversarialProtocol::on_send_failed(const NodeId& to,
                                         const wire::Message& msg) {
  inner_->on_send_failed(to, msg);
}

void AdversarialProtocol::on_link_closed(const NodeId& peer) {
  inner_->on_link_closed(peer);
}

void AdversarialProtocol::send_unsolicited_poison() {
  const NodeId target = random_view_member();
  if (target == kNoNode) return;
  const AdversaryConfig& cfg = adversary_.config();
  switch (kind_) {
    case ProtocolKind::kHyParView: {
      // ttl=1 is terminal at the receiver: it integrates our entries into
      // its passive view immediately and replies with a real sample.
      wire::Shuffle shuffle;
      shuffle.origin = env_.self();
      shuffle.ttl = 1;
      const std::size_t n =
          std::min<std::size_t>(cfg.poison_entries, wire::kMaxShuffleEntries);
      for (std::size_t i = 0; i < n; ++i) {
        shuffle.entries.push_back(adversary_.poison_id(env_.rng()));
      }
      adversary_.counters().poisoned_entries += shuffle.entries.size();
      env_.send(target, shuffle);
      break;
    }
    case ProtocolKind::kCyclon:
    case ProtocolKind::kCyclonAcked: {
      wire::CyclonShuffle shuffle;
      const std::size_t n = std::min<std::size_t>(
          cfg.poison_entries, wire::kMaxCyclonShuffleEntries);
      for (std::size_t i = 0; i < n; ++i) {
        shuffle.entries.push_back(
            wire::AgedId{adversary_.poison_id(env_.rng()), 0});
      }
      adversary_.counters().poisoned_entries += shuffle.entries.size();
      env_.send(target, shuffle);
      break;
    }
    case ProtocolKind::kScamp: {
      // One forwarded subscription per poison frame: it spreads through
      // the overlay with the 1/(1+|PV|) keep probability, planting sticky
      // poison wherever it lands.
      env_.send(target, wire::ScampForwardedSub{
                            adversary_.poison_id(env_.rng()), cfg.sybil_ttl});
      ++adversary_.counters().poisoned_entries;
      break;
    }
  }
  ++adversary_.counters().poisoned_frames;
}

void AdversarialProtocol::on_cycle() {
  inner_->on_cycle();
  if (adversary_.config().attack == AttackKind::kPoison) {
    for (std::size_t i = 0; i < adversary_.config().poison_per_cycle; ++i) {
      send_unsolicited_poison();
    }
  }
}

void AdversarialProtocol::leave() { inner_->leave(); }

void AdversarialProtocol::broadcast_targets(std::size_t fanout,
                                            const NodeId& from,
                                            std::vector<NodeId>& out) {
  if (adversary_.config().attack == AttackKind::kDrop) {
    // Forward membership traffic faithfully, drop every gossip relay: the
    // colluder stays a reputable overlay citizen while silently eating the
    // broadcasts routed through it.
    out.clear();
    ++adversary_.counters().gossip_dropped;
    return;
  }
  inner_->broadcast_targets(fanout, from, out);
}

void AdversarialProtocol::peer_unreachable(const NodeId& peer) {
  inner_->peer_unreachable(peer);
}

void AdversarialProtocol::on_traffic(const NodeId& from) {
  inner_->on_traffic(from);
}

std::span<const NodeId> AdversarialProtocol::dissemination_view() const {
  return inner_->dissemination_view();
}

std::span<const NodeId> AdversarialProtocol::backup_view() const {
  return inner_->backup_view();
}

const char* AdversarialProtocol::name() const { return inner_->name(); }

void AdversarialProtocol::sybil_burst(std::size_t count) {
  if (adversary_.config().attack != AttackKind::kSybil) return;
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId target = random_view_member();
    if (target == kNoNode) return;
    const NodeId fake = adversary_.fabricate();
    switch (kind_) {
      case ProtocolKind::kHyParView:
        // Inject the walk mid-overlay: the terminal node adds the sybil to
        // its active view and dials it back — churning a real slot until
        // detect-on-send purges the fabrication.
        env_.send(target, wire::ForwardJoin{fake, adversary_.config().sybil_ttl});
        break;
      case ProtocolKind::kCyclon:
      case ProtocolKind::kCyclonAcked:
        // In-degree-preserving join: the terminal node swaps a *real* view
        // entry for the sybil, so every walk converts a live arc into a
        // dead one.
        env_.send(target,
                  wire::CyclonJoinWalk{fake, adversary_.config().sybil_ttl});
        break;
      case ProtocolKind::kScamp:
        // The contact floods |PV| + c forwarded-subscription copies, each
        // kept somewhere with the Scamp keep probability.
        env_.send(target, wire::ScampSubscribe{fake});
        break;
    }
    ++adversary_.counters().sybil_joins;
  }
}

}  // namespace hyparview::harness
