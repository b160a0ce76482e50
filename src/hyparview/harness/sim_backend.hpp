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
#include <vector>

#include "hyparview/gossip/node_runtime.hpp"
#include "hyparview/harness/backend.hpp"
#include "hyparview/harness/cluster_config.hpp"
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

/// The simulator substrate: the shared protocol block plus the simulator
/// knobs and the sim-only heterogeneity classes.
struct NetworkConfig : ClusterConfig {
  sim::SimConfig sim;

  /// Heterogeneous capacity classes for HyParView (empty = homogeneous,
  /// i.e. `hyparview` everywhere). Assignment is random per node, seeded.
  std::vector<HyParViewClass> hyparview_classes;

  /// ClusterConfig::defaults_for plus the simulator seed and failure
  /// notification policy for `kind`.
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

  /// Runs `n` membership rounds. In each round every alive node executes
  /// its periodic action once, in random order, and its traffic drains
  /// before the next node acts (PeerSim cycle semantics).
  void run_cycles(std::size_t n) override;

  /// Crashes node `i` in place. With config().sim.notify_on_crash (on for
  /// HyParView, see defaults_for) peers holding an open link to it get
  /// on_link_closed after the failure-detection delay, as from a TCP
  /// reset; otherwise they find out on their next send (detect-on-send).
  void kill_node(std::size_t i) override;

  void settle() override { sim_.run_until_quiescent(); }

  /// Sim ids are dense indices: the slot IS the id.
  [[nodiscard]] std::size_t peer_slot(const NodeId& peer) const override {
    return peer.ip < node_count() ? peer.ip : kNoPeer;
  }

  // --- Access -----------------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  [[nodiscard]] std::size_t alive_count() const override {
    return sim_.alive_count();
  }
  [[nodiscard]] NodeId id_of(std::size_t i) const override;
  [[nodiscard]] bool alive(std::size_t i) const override;
  [[nodiscard]] std::vector<bool> alive_mask() const;
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] Rng& rng() override { return sim_.rng(); }
  [[nodiscard]] std::uint64_t events_processed() const override {
    return sim_.events_processed();
  }
  /// Heterogeneity class of node `i` (always 0 when classes are unset).
  [[nodiscard]] std::size_t node_class(std::size_t i) const;

 private:
  ClusterConfig& cluster_config() override { return config_; }
  /// Registers a simulator node and builds its runtime on the node's
  /// class-adjusted HyParView config.
  std::unique_ptr<gossip::NodeRuntime> spawn_node(std::size_t index) override;
  /// The queue is empty before every join (no protocol schedules a timer
  /// before the first broadcast), so a full drain retires exactly the
  /// join's own traffic and its cascades.
  void settle_join() override { sim_.run_until_quiescent(); }
  void read_substrate_counters(Counters& out) const override;
  [[nodiscard]] std::size_t assign_class();

  NetworkConfig config_;
  sim::Simulator sim_;
  std::vector<std::size_t> class_of_;
  /// Reused random-order scratch of run_cycles (steady-state alloc-free).
  std::vector<std::size_t> cycle_order_;
};

}  // namespace hyparview::harness
