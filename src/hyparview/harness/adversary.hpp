// Adversarial fault injection: Byzantine peer behaviors at the protocol
// level (ROADMAP item 3).
//
// A configurable minority of nodes misbehaves while remaining protocol-
// conformant on the wire (every frame they emit parses; the PR 4 bounded
// codec is not the defense being probed here — protocol *logic* is):
//
//  * view poisoning (AttackKind::kPoison) — colluders answer shuffles and
//    joins with fabricated or colluding identities, exerting eclipse
//    pressure on honest views;
//  * selective dropping (AttackKind::kDrop) — colluders forward membership
//    traffic faithfully (staying reputable overlay citizens) but silently
//    drop every gossip frame they should relay;
//  * sybil floods (AttackKind::kSybil) — colluders stay passive until
//    Backend::sybil_burst injects bursts of joins from fresh fabricated
//    identities.
//
// The mechanism is a membership::Protocol decorator (AdversarialProtocol)
// slotted between NodeRuntime and the real protocol by the node factory both
// backends share (Backend::make_runtime), so the identical adversarial spec
// runs on the simulator and on real sockets.
//
// Fabricated identities name no real process. On the simulator they use
// out-of-range indices (the simulator fails sends to them back to the
// sender after the detection delay, exactly like crashed peers); on the TCP
// backend they are loopback addresses nothing listens on, so real dials
// fail with ECONNREFUSED. Either way the honest failure-detection story —
// "TCP as a failure detector" — is what eventually purges them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hyparview/common/node_id.hpp"
#include "hyparview/common/rng.hpp"
#include "hyparview/harness/backend.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::harness {

enum class AttackKind : std::uint8_t {
  kNone,    ///< no adversary (the historical honest configuration)
  kPoison,  ///< answer membership traffic with poisoned view entries
  kDrop,    ///< forward membership, silently drop gossip
  kSybil,   ///< passive until sybil_burst() injects fabricated joins
};

[[nodiscard]] const char* attack_name(AttackKind kind);

struct AdversaryConfig {
  AttackKind attack = AttackKind::kNone;
  /// Fraction of the *initial* population that misbehaves (node 0, the
  /// bootstrap contact, always stays honest; nodes added later are honest).
  double fraction = 0.0;
  /// Unsolicited poisoned frames sent per adversary per membership cycle.
  std::size_t poison_per_cycle = 1;
  /// Poisoned identities per poisoned frame (bounded by the wire's flat
  /// list capacities at the point of use).
  std::size_t poison_entries = 7;
  /// Probability that a poisoned identity is fabricated rather than a
  /// colluder. Colluders capture slots durably (they are alive); fabricated
  /// ids churn slots until failure detection purges them.
  double fabricated_fraction = 0.5;
  /// Fabricated joins injected per adversary per sybil_burst().
  std::size_t sybils_per_burst = 8;
  /// TTL for injected join walks / forwarded subscriptions (paper-default
  /// ARWL-sized; also used for Cyclon join walks and Scamp forwards).
  std::uint8_t sybil_ttl = 6;

  [[nodiscard]] bool enabled() const {
    return attack != AttackKind::kNone && fraction > 0.0;
  }

  bool operator==(const AdversaryConfig&) const = default;
};

/// Shared state of the adversarial minority: who misbehaves, the colluder
/// roster poisoned entries advertise, the fabricated-identity factory, and
/// the attack counters. One instance per backend, owned by it.
class Adversary {
 public:
  struct Counters {
    std::uint64_t poisoned_frames = 0;   ///< poisoned replies/frames sent
    std::uint64_t poisoned_entries = 0;  ///< poisoned identities shipped
    std::uint64_t forced_accepts = 0;    ///< join walks force-terminated
    std::uint64_t gossip_dropped = 0;    ///< broadcast relays suppressed
    std::uint64_t sybil_joins = 0;       ///< fabricated joins injected
  };

  /// `real_addresses` selects the fabricated-identity scheme: false = sim
  /// (out-of-range indices), true = TCP (dead loopback addresses).
  Adversary(AdversaryConfig config, std::uint64_t seed, bool real_addresses);

  /// Deterministically samples ⌊fraction·N⌋ adversarial indices from
  /// 1..N-1 (the bootstrap node stays honest). Called once by the backend
  /// before nodes are built.
  void select(std::size_t node_count);

  /// True iff node `index` misbehaves. Indices past the initial population
  /// (nodes added later) are honest.
  [[nodiscard]] bool is_adversarial(std::size_t index) const;

  /// Registers a wrapped node's identity on the colluder roster (wrap time,
  /// so the roster order — and hence every poisoned frame — is
  /// deterministic at fixed seed).
  void add_colluder(const NodeId& id);
  [[nodiscard]] const std::vector<NodeId>& colluders() const {
    return colluders_;
  }

  /// Mints a fresh identity that names no real process.
  [[nodiscard]] NodeId fabricate();

  /// One poisoned identity: a colluder or a fabrication, per
  /// `fabricated_fraction`. Draws from `rng` (the caller's per-node
  /// stream, keeping each node's draw sequence self-contained).
  [[nodiscard]] NodeId poison_id(Rng& rng);

  [[nodiscard]] const AdversaryConfig& config() const { return config_; }
  [[nodiscard]] Counters& counters() { return counters_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::size_t selected_count() const { return selected_count_; }

 private:
  AdversaryConfig config_;
  Rng rng_;  ///< selection stream only (derived from the backend seed)
  bool real_addresses_ = false;
  std::vector<bool> mask_;
  std::size_t selected_count_ = 0;
  std::vector<NodeId> colluders_;
  std::uint32_t fabricated_serial_ = 0;
  Counters counters_;
};

/// Protocol decorator implementing the per-node misbehavior. Wraps the real
/// protocol so introspection (views, name) and honest-path handling stay
/// intact while selected messages are intercepted or injected.
class AdversarialProtocol final : public membership::Protocol {
 public:
  AdversarialProtocol(membership::Env& env,
                      std::unique_ptr<membership::Protocol> inner,
                      ProtocolKind kind, Adversary& adversary);

  void start(std::optional<NodeId> contact) override;
  void handle(const NodeId& from, const wire::Message& msg) override;
  void on_send_failed(const NodeId& to, const wire::Message& msg) override;
  void on_link_closed(const NodeId& peer) override;
  void on_cycle() override;
  void leave() override;
  void broadcast_targets(std::size_t fanout, const NodeId& from,
                         std::vector<NodeId>& out) override;
  using membership::Protocol::broadcast_targets;
  void peer_unreachable(const NodeId& peer) override;
  void on_traffic(const NodeId& from) override;
  [[nodiscard]] std::span<const NodeId> dissemination_view() const override;
  [[nodiscard]] std::span<const NodeId> backup_view() const override;
  [[nodiscard]] const char* name() const override;

  /// Injects `count` fabricated joins into the overlay (AttackKind::kSybil;
  /// a no-op burst is legal for other attacks and does nothing).
  void sybil_burst(std::size_t count);

  [[nodiscard]] membership::Protocol& inner() { return *inner_; }

 private:
  /// Random member of the wrapped protocol's dissemination view, or
  /// kNoNode when the view is empty.
  [[nodiscard]] NodeId random_view_member();

  void poison_hyparview_shuffle(const NodeId& from, const wire::Shuffle& m);
  void poison_cyclon_shuffle(const NodeId& from);
  void send_unsolicited_poison();

  membership::Env& env_;
  std::unique_ptr<membership::Protocol> inner_;
  ProtocolKind kind_;
  Adversary& adversary_;
};

}  // namespace hyparview::harness
