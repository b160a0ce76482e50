// Simulated-network experiment backend (§5 methodology).
//
// The harness::Backend implementation every figure and table runs on:
//   build (nodes join one by one, no membership rounds in between)
//   → run_cycles (stabilization: 50 membership rounds in the paper)
//   → fail_random_fraction (massive simultaneous crash)
//   → broadcast_* (reliability measurements; reactive steps still execute)
//   → run_cycles + probes (healing measurements).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hyparview/analysis/broadcast_recorder.hpp"
#include "hyparview/baselines/cyclon.hpp"
#include "hyparview/baselines/scamp.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/gossip/node_runtime.hpp"
#include "hyparview/graph/digraph.hpp"
#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/backend.hpp"
#include "hyparview/sim/simulator.hpp"

namespace hyparview::harness {

/// One heterogeneity class for the §6 "adaptive fanout" extension: nodes of
/// this class run HyParView with the given view capacities. In the flood, a
/// node's active-view size is exactly its fanout (and, by symmetry, its
/// in-degree), so capacity classes realize degree adaptation.
struct HyParViewClass {
  /// Share of nodes assigned to this class (fractions should sum to ~1).
  double fraction = 1.0;
  std::size_t active_capacity = 5;
  std::size_t passive_capacity = 30;
};

struct NetworkConfig {
  ProtocolKind kind = ProtocolKind::kHyParView;
  std::size_t node_count = 10'000;
  std::uint64_t seed = 42;
  /// Gossip fanout for the random-fanout protocols (paper: 4). HyParView's
  /// flood is deterministic; its active view is sized fanout + 1.
  std::size_t fanout = 4;

  core::Config hyparview;              // paper defaults (§5.1)
  baselines::CyclonConfig cyclon;      // view 35, shuffle 14, walk TTL 5
  baselines::ScampConfig scamp;        // c = 4
  gossip::GossipConfig gossip;         // mode derived from `kind`
  sim::SimConfig sim;

  /// Heterogeneous capacity classes for HyParView (empty = homogeneous,
  /// i.e. `hyparview` everywhere). Assignment is random per node, seeded.
  std::vector<HyParViewClass> hyparview_classes;

  /// Adversarial minority (adversary.hpp). Disabled by default — the
  /// honest configuration is byte-for-byte the historical one.
  AdversaryConfig adversary;

  /// Contact-node policy: HyParView/Cyclon bootstrap through a single
  /// contact (node 0); Scamp uses a random node already in the overlay
  /// (the configurations §5 found to work best for each protocol).
  [[nodiscard]] static NetworkConfig defaults_for(ProtocolKind kind,
                                                  std::size_t nodes,
                                                  std::uint64_t seed);
};

class SimBackend final : public Backend {
 public:
  explicit SimBackend(NetworkConfig config);
  ~SimBackend() override;

  // --- harness::Backend -------------------------------------------------------

  [[nodiscard]] const char* backend_name() const override { return "sim"; }

  /// Creates all nodes and joins them one by one, without membership
  /// rounds. Each drain is incremental: only the events caused by the node
  /// being joined are retired (Simulator::run_until_quiescent_from), so
  /// pending unrelated work — e.g. long-delay timers once protocols
  /// schedule them — cannot inflate the bootstrap.
  void build() override;

  [[nodiscard]] bool built() const override { return built_; }

  /// Runs `n` membership rounds. In each round every alive node executes
  /// its periodic action once, in random order, and its traffic drains
  /// before the next node acts (PeerSim cycle semantics).
  void run_cycles(std::size_t n) override;

  /// Crashes node `i` in place (no failure notifications — detect-on-send).
  void kill_node(std::size_t i) override;

  /// Adds one node to the running system and joins it through the
  /// protocol's contact policy (random alive node). The join traffic
  /// drains before returning. Returns the new node's index.
  std::size_t add_node() override;

  void settle() override { sim_.run_until_quiescent(); }

  /// One broadcast from node `source` (must be alive); drains the network
  /// (including any reactive repair traffic) and returns the record.
  /// Scenarios pick responsive sources explicitly — a blocked node
  /// initiates nothing, so broadcasting "from" it measures only that the
  /// process is frozen.
  analysis::MessageResult broadcast_from(std::size_t source) override;

  /// Registers + injects a broadcast without draining (pub/sub workload);
  /// settle()/settle_broadcasts() later retires the in-flight traffic.
  std::uint64_t inject_broadcast(std::size_t source) override;

  /// Changes the gossip fanout of every node (Figure 1 sweep).
  void set_fanout(std::size_t fanout) override;

  /// Sim ids are dense indices: the slot IS the id.
  [[nodiscard]] std::size_t peer_slot(const NodeId& peer) const override {
    return peer.ip < runtimes_.size() ? peer.ip : kNoPeer;
  }

  // --- Access -----------------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] analysis::BroadcastRecorder& recorder() override {
    return recorder_;
  }
  [[nodiscard]] std::size_t node_count() const override {
    return runtimes_.size();
  }
  [[nodiscard]] std::size_t alive_count() const override {
    return sim_.alive_count();
  }
  [[nodiscard]] membership::Protocol& protocol(std::size_t i) override;
  [[nodiscard]] const membership::Protocol& protocol(
      std::size_t i) const override;
  [[nodiscard]] gossip::NodeRuntime& runtime(std::size_t i);
  [[nodiscard]] gossip::BroadcastEngine& engine(std::size_t i) override {
    return runtime(i).gossip();
  }
  [[nodiscard]] NodeId id_of(std::size_t i) const override;
  [[nodiscard]] bool alive(std::size_t i) const override;
  [[nodiscard]] std::vector<bool> alive_mask() const;
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] const Adversary* adversary() const override {
    return adversary_.get();
  }
  [[nodiscard]] Rng& rng() override { return sim_.rng(); }
  [[nodiscard]] std::uint64_t events_processed() const override {
    return sim_.events_processed();
  }
  /// Heterogeneity class of node `i` (always 0 when classes are unset).
  [[nodiscard]] std::size_t node_class(std::size_t i) const;

 private:
  [[nodiscard]] std::unique_ptr<membership::Protocol> make_protocol(
      membership::Env& env, std::size_t index);
  [[nodiscard]] std::size_t assign_class();

  NetworkConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<Adversary> adversary_;  ///< null for honest clusters
  analysis::BroadcastRecorder recorder_;
  std::vector<std::unique_ptr<gossip::NodeRuntime>> runtimes_;
  std::vector<std::size_t> class_of_;
  /// Reused random-order scratch of run_cycles (steady-state alloc-free).
  std::vector<std::size_t> cycle_order_;
  std::uint64_t next_msg_id_ = 1;
  bool built_ = false;
};

}  // namespace hyparview::harness
