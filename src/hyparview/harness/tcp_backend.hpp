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
// unchanged; only the harness::Backend plumbing differs. Real time replaces
// quiescence: where the sim backend drains its event queue, this backend
// either waits a configured settle window or — for broadcasts — polls the
// delivery recorder until the message reached every alive node (bounded by
// a timeout, so partial delivery after a failure still yields a result).
//
// Threading: everything runs on the calling thread (EventLoop::run_until),
// exactly like the in-process cluster tests — protocol code stays
// lock-free, and the whole backend is TSan-clean by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hyparview/analysis/broadcast_recorder.hpp"
#include "hyparview/common/flat_hash.hpp"
#include "hyparview/baselines/cyclon.hpp"
#include "hyparview/baselines/scamp.hpp"
#include "hyparview/common/time.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/gossip/node_runtime.hpp"
#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/backend.hpp"
#include "hyparview/net/event_loop.hpp"
#include "hyparview/net/tcp_transport.hpp"

namespace hyparview::harness {

class StatsExporter;  // stats_export.hpp

struct TcpBackendConfig {
  ProtocolKind kind = ProtocolKind::kHyParView;
  std::size_t node_count = 8;
  std::uint64_t seed = 42;
  std::size_t fanout = 4;

  core::Config hyparview;
  baselines::CyclonConfig cyclon;
  baselines::ScampConfig scamp;
  gossip::GossipConfig gossip;

  /// Per-node transport template; the bind port stays 0 (every node gets
  /// its own ephemeral loopback port), rng_seed is derived per node.
  net::TcpTransportConfig transport;

  /// Adversarial minority (adversary.hpp); same spec as the sim backend,
  /// fabricated identities become dead loopback addresses here.
  AdversaryConfig adversary;

  /// Real-time settle windows replacing the simulator's quiescence drains.
  Duration join_settle = milliseconds(15);
  Duration cycle_settle = milliseconds(50);
  Duration leave_settle = milliseconds(40);
  Duration settle_window = milliseconds(30);
  /// Upper bound on waiting for one broadcast to reach every alive node.
  Duration broadcast_timeout = seconds(5);
  /// A broadcast also completes once the recorder sees no new deliveries
  /// (or duplicates) for this long: after failures, protocols without a
  /// failure detector legitimately stall below full delivery, and waiting
  /// the whole timeout per probe would stretch a partial-delivery
  /// measurement into minutes. Loopback traffic settles in a few ms, so
  /// the window is generous.
  Duration broadcast_quiet_window = milliseconds(150);

  /// Live stats endpoint (harness/stats_export.hpp): -1 disables it, 0
  /// binds an ephemeral loopback port (StatsExporter::port() reports it),
  /// any other value binds that fixed port. Each accepted connection gets
  /// one JSON snapshot and is closed — poll it while the run is live.
  int stats_port = -1;

  /// Same §5.1 protocol parameters as NetworkConfig::defaults_for, minus
  /// the simulator knobs.
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

  /// Binds every node's listener, then joins them one by one through the
  /// protocol's contact policy (node 0; a random earlier node for Scamp),
  /// letting each join settle — the §5 serial bootstrap over real sockets.
  void build() override;

  [[nodiscard]] bool built() const override { return built_; }

  std::size_t add_node() override;

  /// Hard kill: the listener and every connection close immediately, no
  /// goodbyes — survivors find out when their next write fails.
  void kill_node(std::size_t i) override;

  /// Graceful departure flushes the goodbyes (a real settle window between
  /// Protocol::leave and the socket teardown) before the process "exits".
  void leave_node(std::size_t i, bool graceful) override;

  /// One settle window per round — real time has no quiescence.
  void run_cycles(std::size_t n) override;

  void settle() override { wait(config_.settle_window); }

  analysis::MessageResult broadcast_from(std::size_t source) override;

  /// Registers + injects a broadcast without waiting (pub/sub workload).
  std::uint64_t inject_broadcast(std::size_t source) override;

  /// Waits for a whole batch of in-flight broadcasts at once: done when
  /// every id reached its registered alive population, when their combined
  /// progress went quiet (post-failure partial delivery), or at the hard
  /// broadcast_timeout — the aggregated form of broadcast_from's wait.
  void settle_broadcasts(std::span<const std::uint64_t> ids) override;

  void set_fanout(std::size_t fanout) override;

  /// TCP ids are real ip:port addresses — the index map resolves whoever
  /// currently owns the address (kNoPeer for peers outside this cluster).
  [[nodiscard]] std::size_t peer_slot(const NodeId& peer) const override;

  // --- Access -----------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const override {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t alive_count() const override {
    return alive_count_;
  }
  [[nodiscard]] bool alive(std::size_t i) const override;
  [[nodiscard]] NodeId id_of(std::size_t i) const override;
  [[nodiscard]] membership::Protocol& protocol(std::size_t i) override;
  [[nodiscard]] const membership::Protocol& protocol(
      std::size_t i) const override;
  [[nodiscard]] gossip::NodeRuntime& runtime(std::size_t i);
  [[nodiscard]] gossip::BroadcastEngine& engine(std::size_t i) override {
    return runtime(i).gossip();
  }
  [[nodiscard]] analysis::BroadcastRecorder& recorder() override {
    return recorder_;
  }
  [[nodiscard]] const Adversary* adversary() const override {
    return adversary_.get();
  }
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
    std::unique_ptr<gossip::NodeRuntime> runtime;
    bool alive = true;
  };

  /// Runs the event loop for `d` of wall-clock time (no early exit).
  void wait(Duration d);

  /// Creates transport + protocol + runtime; registers the id. Returns the
  /// new node's index (not yet started/joined).
  std::size_t spawn_node();

  [[nodiscard]] std::unique_ptr<membership::Protocol> make_protocol(
      membership::Env& env, std::size_t index);

  /// Index of the node whose listening id is `id`, or npos.
  [[nodiscard]] std::size_t index_of(const NodeId& id) const;

  TcpBackendConfig config_;
  net::EventLoop loop_;
  std::unique_ptr<StatsExporter> stats_;  ///< null unless stats_port >= 0
  Rng master_rng_;
  std::unique_ptr<Adversary> adversary_;  ///< null for honest clusters
  CountingObserver observer_;
  analysis::BroadcastRecorder recorder_;
  std::vector<TcpNode> nodes_;
  /// NodeId::raw → index (TCP ids are real ports, not dense indices).
  FlatMap<std::uint64_t, std::size_t> index_by_id_;
  std::vector<std::size_t> cycle_order_;
  std::size_t alive_count_ = 0;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t frames_observed_ = 0;
  bool built_ = false;
};

}  // namespace hyparview::harness
