// Real-socket experiment backend: the first cluster-scale TCP driver.
//
// Hosts N gossip::NodeRuntimes, each on its own net::TcpTransport (listening
// socket, connection cache, length-prefixed frames), all sharing one epoll
// EventLoop that the calling thread drives. This is the deployment model of
// §4 executed for real: joins dial TCP connections, the flood rides the
// kernel's stack, a crash is a hard socket shutdown the survivors must
// notice through failed writes ("TCP is also used as a failure detector").
//
// The same protocol and gossip code the simulator runs executes here
// unchanged, driven by the same harness::Backend pipeline; only how a node
// is spawned, killed, cycled and drained differs. Where the sim backend
// drains its event queue, this backend runs the loop until it is quiescent
// (EventLoop::run_until_quiescent): no socket ready, no byte unsent, no
// dial in progress and no timer due before the drain's deadline. Each
// drain also has a deadline, so a bug that keeps traffic alive still ends
// the step. A broadcast batch ends early too, once every message reached
// its alive population.
//
// Threading: everything runs on the calling thread, which drives the loop,
// exactly like the in-process cluster tests — protocol code stays
// lock-free, and the whole backend is TSan-clean by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "hyparview/common/flat_hash.hpp"
#include "hyparview/common/time.hpp"
#include "hyparview/gossip/node_runtime.hpp"
#include "hyparview/harness/backend.hpp"
#include "hyparview/harness/cluster_config.hpp"
#include "hyparview/net/event_loop.hpp"
#include "hyparview/net/tcp_transport.hpp"

namespace hyparview::harness {

class StatsExporter;  // stats_export.hpp

/// The real-socket substrate: the shared protocol block plus the transport
/// template, the drain deadlines and the live stats endpoint.
struct TcpBackendConfig : ClusterConfig {
  /// Per-node transport template; the bind port stays 0 (every node gets
  /// its own ephemeral loopback port), rng_seed is derived per node.
  net::TcpTransportConfig transport;

  /// Deadlines of the quiescence drains: a drain ends once nothing is in
  /// flight, at the latest at its deadline. One join's drain, and the
  /// drain after each round of run_cycles.
  Duration join_settle = milliseconds(15);
  Duration cycle_settle = milliseconds(50);
  /// The deadline of every other drain: settle(), a leaver's goodbyes and
  /// a broadcast batch. On loopback only a bug keeps traffic alive that
  /// long, so a drain that reaches it logs a warning.
  Duration broadcast_timeout = seconds(5);

  /// Live stats endpoint (harness/stats_export.hpp): -1 disables it, 0
  /// binds an ephemeral loopback port (StatsExporter::port() reports it),
  /// any other value binds that fixed port. Each accepted connection gets
  /// one JSON snapshot and is closed — poll it while the run is live.
  int stats_port = -1;

  /// ClusterConfig::defaults_for with the default drain deadlines.
  [[nodiscard]] static TcpBackendConfig defaults_for(ProtocolKind kind,
                                                     std::size_t nodes,
                                                     std::uint64_t seed);
};

class TcpBackend final : public Backend {
 public:
  explicit TcpBackend(TcpBackendConfig config);
  ~TcpBackend() override;

  // --- harness::Backend -------------------------------------------------------

  [[nodiscard]] const char* backend_name() const override { return "tcp"; }

  /// Opens the stats endpoint first, so a poller can watch the bootstrap
  /// itself, then runs the shared serial bootstrap over real sockets.
  void build() override;

  /// Hard kill: the listener and every connection close immediately, no
  /// goodbyes — survivors find out when their next write fails.
  void kill_node(std::size_t i) override;

  /// Every alive node acts once per round, in random order, then the round
  /// drains (at most cycle_settle).
  void run_cycles(std::size_t n) override;

  void settle() override { drain("settle"); }

  /// Drains a batch of in-flight broadcasts: done when every id reached
  /// its registered alive population, or at quiescence (after failures,
  /// protocols without a failure detector stall below full delivery).
  void settle_broadcasts(std::span<const std::uint64_t> ids) override;

  /// TCP ids are real ip:port addresses — the index map resolves whoever
  /// currently owns the address (kNoPeer for peers outside this cluster).
  [[nodiscard]] std::size_t peer_slot(const NodeId& peer) const override;

  // --- Access -----------------------------------------------------------------

  [[nodiscard]] std::size_t alive_count() const override {
    return alive_count_;
  }
  [[nodiscard]] bool alive(std::size_t i) const override;
  [[nodiscard]] NodeId id_of(std::size_t i) const override;
  [[nodiscard]] Rng& rng() override { return master_rng_; }
  /// Gossip deliveries + duplicates observed by the dissemination layer
  /// (membership control frames are not metered) — a rough real-transport
  /// analogue of the simulator's event count.
  [[nodiscard]] std::uint64_t events_processed() const override {
    return frames_observed_;
  }
  [[nodiscard]] net::EventLoop& loop() { return loop_; }
  [[nodiscard]] const TcpBackendConfig& config() const { return config_; }
  /// The live stats endpoint, or nullptr when config().stats_port == -1.
  /// Created on build() so it can snapshot the node table.
  [[nodiscard]] StatsExporter* stats_exporter() { return stats_.get(); }
  /// Per-node transport access (stats export, tests).
  [[nodiscard]] net::TcpTransport& transport(std::size_t i);

 private:
  /// Forwards deliveries to the shared recorder while counting frames for
  /// events_processed() (BroadcastRecorder is final, so we wrap it).
  class CountingObserver final : public gossip::DeliveryObserver {
   public:
    explicit CountingObserver(TcpBackend& owner) : owner_(owner) {}
    void on_deliver(const NodeId& node, std::uint64_t msg_id,
                    std::uint16_t hops) override;
    void on_duplicate(const NodeId& node, std::uint64_t msg_id) override;

   private:
    TcpBackend& owner_;
  };

  struct TcpNode {
    std::unique_ptr<net::TcpTransport> transport;
    bool alive = true;
  };

  ClusterConfig& cluster_config() override { return config_; }
  /// Binds a transport and builds its runtime; registers the id.
  std::unique_ptr<gossip::NodeRuntime> spawn_node(std::size_t index) override;
  void settle_join() override {
    loop_.run_until_quiescent(config_.join_settle);
  }
  /// Sums every transport's stats (dead ones included): frames and bytes,
  /// per wire type too, send failures and dials.
  void read_substrate_counters(Counters& out) const override;
  /// A real shutdown discards unflushed frames: the goodbyes drain
  /// between Protocol::leave and the socket teardown.
  void flush_goodbyes() override { drain("flush_goodbyes"); }

  /// Runs the loop until it is quiescent or `done` returns true, at most
  /// broadcast_timeout; reaching it logs a warning naming `what`.
  void drain(const char* what, const std::function<bool()>& done = nullptr);

  TcpBackendConfig config_;
  net::EventLoop loop_;
  std::unique_ptr<StatsExporter> stats_;  ///< null unless stats_port >= 0
  Rng master_rng_;
  CountingObserver observer_;
  std::vector<TcpNode> nodes_;
  /// NodeId::raw → index (TCP ids are real ports, not dense indices).
  FlatMap<std::uint64_t, std::size_t> index_by_id_;
  std::vector<std::size_t> cycle_order_;
  std::size_t alive_count_ = 0;
  std::uint64_t frames_observed_ = 0;
};

}  // namespace hyparview::harness
