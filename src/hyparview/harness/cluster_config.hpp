// Protocol parameters shared by every experiment substrate.
//
// The §5 pipeline runs on two substrates — the simulator (NetworkConfig,
// sim_backend.hpp) and real sockets (TcpBackendConfig, tcp_backend.hpp) —
// and both configs extend this one block, so a protocol parameter is
// declared, defaulted and copied in exactly one place.
#pragma once

#include <cstdint>

#include "hyparview/baselines/cyclon.hpp"
#include "hyparview/baselines/scamp.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/gossip/broadcast_engine.hpp"
#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/backend.hpp"

namespace hyparview::harness {

struct ClusterConfig {
  ProtocolKind kind = ProtocolKind::kHyParView;
  std::size_t node_count = 10'000;
  std::uint64_t seed = 42;

  core::Config hyparview;              // paper defaults (§5.1)
  baselines::CyclonConfig cyclon;      // view 35, shuffle 14, walk TTL 5
  baselines::ScampConfig scamp;        // c = 4
  /// Mode derived from `kind`. `gossip.fanout` is the gossip fanout for the
  /// random-fanout protocols (paper: 4); HyParView's flood is
  /// deterministic, its active view is sized fanout + 1.
  gossip::GossipConfig gossip;

  /// Adversarial minority (adversary.hpp). Disabled by default — the
  /// honest configuration is byte-for-byte the historical one. On TCP the
  /// fabricated identities become dead loopback addresses.
  AdversaryConfig adversary;

  bool operator==(const ClusterConfig&) const = default;

  /// The §5.1 parameters for `kind`. Contact-node policy (Backend::build):
  /// HyParView/Cyclon bootstrap through a single contact (node 0); Scamp
  /// uses a random node already in the overlay (the configurations §5
  /// found to work best for each protocol).
  [[nodiscard]] static ClusterConfig defaults_for(ProtocolKind kind,
                                                  std::size_t nodes,
                                                  std::uint64_t seed);
};

}  // namespace hyparview::harness
