// Backend-agnostic experiment driving (§5 pipeline over any substrate).
//
// The paper's evaluation is one pipeline — build → stabilize → fail →
// measure → heal — and a Backend is anything able to execute it: spawn and
// kill nodes, drive membership rounds, inject faults, broadcast, snapshot
// views. Two implementations exist:
//
//   * SimBackend (sim_backend.hpp) — the deterministic discrete-event
//     simulator the figures run on;
//   * TcpBackend (tcp_backend.hpp) — the same NodeRuntimes hosted on real
//     net::TcpTransport instances sharing one EventLoop, realizing the
//     deployment model of §4 ("TCP is also used as a failure detector").
//
// Protocol code never sees the difference (it is written against
// membership::Env); this interface makes the *experiment drivers* equally
// substrate-blind. Every §5 decision is made here once — the node factory,
// the serial bootstrap and random-contact growth, message ids and the
// delivery recorder, broadcast injection, and the workloads built on the
// primitives (broadcast_one, run_churn, fail_random_fraction) — so
// both backends share their exact RNG-draw order (the foundation of the sim
// backend's bit-identical guarantees). A substrate implements only how a
// node is spawned, killed, cycled and drained.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "hyparview/analysis/broadcast_recorder.hpp"
#include "hyparview/common/node_id.hpp"
#include "hyparview/common/rng.hpp"
#include "hyparview/core/hyparview.hpp"
#include "hyparview/gossip/broadcast_engine.hpp"
#include "hyparview/gossip/node_runtime.hpp"
#include "hyparview/graph/digraph.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"
#include "hyparview/membership/wire.hpp"

namespace hyparview::harness {

class Adversary;        // adversary.hpp
struct ClusterConfig;   // cluster_config.hpp

enum class ProtocolKind : std::uint8_t {
  kHyParView,
  kCyclon,
  kCyclonAcked,
  kScamp,
};

[[nodiscard]] const char* kind_name(ProtocolKind kind);

/// All four protocols, in the order the paper reports them.
[[nodiscard]] const std::vector<ProtocolKind>& all_protocol_kinds();

/// Continuous-churn workload: every cycle some nodes join, some leave
/// (gracefully or by crashing), one membership round runs, and probe
/// broadcasts measure the reliability the application sees meanwhile.
struct ChurnConfig {
  std::size_t cycles = 50;
  std::size_t joins_per_cycle = 10;
  std::size_t leaves_per_cycle = 10;
  /// Probability that a departure is graceful (Protocol::leave) rather
  /// than a crash.
  double graceful_fraction = 0.5;
  std::size_t probes_per_cycle = 2;

  bool operator==(const ChurnConfig&) const = default;
};

/// Trace-driven churn: joiners receive heavy-tailed session lengths (in
/// membership cycles) instead of the uniform kill fractions of ChurnConfig.
/// Measured session-time distributions (Gnutella/Kad traces) are Pareto or
/// lognormal shaped: most sessions are short, a heavy tail stays for the
/// whole run — a qualitatively different stress than uniform churn, because
/// view entries split into a stable core and a fast-churning fringe.
struct HeavyChurnConfig {
  enum class Dist : std::uint8_t { kPareto, kLognormal };

  std::size_t cycles = 30;
  std::size_t joins_per_cycle = 4;
  Dist dist = Dist::kPareto;
  /// Pareto(alpha, xm): alpha ≤ 2 gives the infinite-variance heavy tail.
  double pareto_alpha = 1.5;
  double pareto_xm = 2.0;  ///< minimum session length, cycles
  /// Lognormal(mu, sigma) of the underlying normal.
  double lognormal_mu = 1.5;
  double lognormal_sigma = 1.0;
  /// Probability a session ends gracefully (Protocol::leave) vs crashing.
  double graceful_fraction = 0.5;
  std::size_t probes_per_cycle = 2;

  bool operator==(const HeavyChurnConfig&) const = default;
};

/// Session-length summary of one heavy-churn run: the part of the
/// workload no counter delta recounts.
struct HeavyChurnStats {
  double mean_session_cycles = 0.0;
  double max_session_cycles = 0.0;
};

/// Sustained pub/sub workload: `sources` publisher nodes each inject `rate`
/// messages per tick for `ticks` ticks. Unlike broadcast phases, where each
/// broadcast settles before the next, every tick's messages are injected
/// *before* the network settles, so sources × rate broadcasts are genuinely
/// in flight concurrently — the regime Plumtree's lazy links and the
/// configurable dedup window exist for.
struct PubSubConfig {
  std::size_t sources = 4;
  std::size_t ticks = 25;
  /// Messages per source per tick.
  std::size_t rate = 1;
  /// Crash this fraction of alive nodes at the midpoint tick (0 = no
  /// churn). Dead publishers are replaced by fresh random alive sources —
  /// the stream keeps flowing while the overlay (and tree) heals. When
  /// fewer nodes survive than there are sources, the surplus streams end.
  double churn_fraction = 0.0;
  /// Membership rounds run between injection and settling each tick
  /// (shuffles interleave with payload traffic; 0 = membership idle).
  std::size_t cycles_per_tick = 0;

  bool operator==(const PubSubConfig&) const = default;
};

/// Cluster-wide monotonic counters (Backend::counters). A snapshot is a
/// running total; the difference of two is what happened in between, which
/// is how run_experiment fills PhaseResult::counters.
struct Counters {
  static constexpr std::size_t kWireTypes = std::variant_size_v<wire::Message>;

  // Substrate. The sim charges a frame its wire::wire_cost (synthetic
  // gossip payload included) and counts established links. On TCP, frames
  // and per-type bytes are those queued on a connection (length prefix
  // included, no synthetic payload), bytes_sent is what the transports
  // handed to the kernel and connections_opened counts dial attempts.
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t connections_opened = 0;
  /// Per wire type, indexed by wire::type_tag.
  std::array<std::uint64_t, kWireTypes> frames_by_type{};
  std::array<std::uint64_t, kWireTypes> bytes_by_type{};
  // Broadcast engines, summed over every node.
  std::uint64_t payload_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t forwards = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t grafts = 0;
  std::uint64_t prunes = 0;
  // HyParView nodes, summed (adversarially wrapped nodes are not counted).
  std::uint64_t promotions = 0;
  std::uint64_t warm_promotions = 0;
  // What the harness did: add_node joins (the bootstrap's are not counted),
  // graceful leave_node departures, and crashes by leave_node or
  // fail_random_fraction.
  std::uint64_t joins = 0;
  std::uint64_t graceful_leaves = 0;
  std::uint64_t crashes = 0;

  [[nodiscard]] Counters operator-(const Counters& before) const;
  /// Every counter with its report name, in a fixed order: the scalars by
  /// field name, then frames_<TYPE> and bytes_<TYPE> per wire type
  /// (frames_GOSSIP, bytes_SHUFFLE_REPLY...). Both backends report under
  /// these names (with the meanings above); what a substrate does not
  /// count stays 0.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> named()
      const;

  bool operator==(const Counters&) const = default;
};

class Backend {
 public:
  virtual ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// "sim" / "tcp" — for reports and BENCH records.
  [[nodiscard]] virtual const char* backend_name() const = 0;

  // --- Lifecycle --------------------------------------------------------------

  /// Creates all configured nodes, then joins them one by one with no
  /// membership rounds in between — the §5 bootstrap: node 0 starts alone,
  /// every later node joins through node 0 (Scamp: through a random node
  /// already in the overlay), and each join settles before the next.
  virtual void build();

  [[nodiscard]] bool built() const { return built_; }

  /// Adds one node to the running system and joins it through a random
  /// alive contact (the single-contact bootstrap of build() is a
  /// cold-start artifact); the join settles before returning. Returns the
  /// new node's index.
  std::size_t add_node();

  /// Crashes node `i` in place: no goodbyes, no settling — the §5 "massive
  /// failure" primitive (detect-on-send semantics are the backend's job).
  virtual void kill_node(std::size_t i) = 0;

  /// Removes node `i` from the system: gracefully (Protocol::leave, then
  /// the goodbyes flush, then the process exits) or as a crash. Settles
  /// before returning.
  void leave_node(std::size_t i, bool graceful);

  /// Crashes ⌊fraction · alive⌋ uniformly random alive nodes through
  /// kill_node, without settling: how survivors learn of the crashes is the
  /// substrate's failure model (kill_node).
  void fail_random_fraction(double fraction);

  // --- Driving ----------------------------------------------------------------

  /// Runs `n` membership rounds. In each round every alive node executes
  /// its periodic action once, in random order. The simulator drains each
  /// node's traffic before the next node acts (PeerSim cycle semantics);
  /// the TCP backend drains once per round.
  virtual void run_cycles(std::size_t n) = 0;

  /// Lets in-flight traffic finish: run_until_quiescent on the simulator's
  /// event queue, and on the TCP backend's event loop up to a deadline.
  virtual void settle() = 0;

  // --- Dissemination ----------------------------------------------------------

  /// One broadcast from node `source` (must be alive): inject_broadcast,
  /// then settle_broadcasts on its id. Reactive repair traffic the
  /// broadcast triggers settles too. Scenarios pick responsive sources
  /// explicitly — a blocked node initiates nothing.
  analysis::MessageResult broadcast_from(std::size_t source);

  /// Starts a broadcast from node `source` WITHOUT settling: registers the
  /// message with the recorder and injects it, leaving its traffic in
  /// flight. The pub/sub workload uses this to put many messages on the
  /// wire concurrently before one settle. Returns the message id.
  std::uint64_t inject_broadcast(std::size_t source);

  /// Waits for the injected broadcasts `ids` to finish: quiescence drain on
  /// the simulator (the default — timers included, so graft repair runs to
  /// completion); on TCP a quiescence drain that also ends once every id
  /// reached its alive population.
  virtual void settle_broadcasts(std::span<const std::uint64_t> ids) {
    (void)ids;
    settle();
  }

  /// One broadcast from a uniformly random alive node.
  analysis::MessageResult broadcast_one();

  /// `count` sequential broadcasts (each settles before the next).
  std::vector<analysis::MessageResult> broadcast_many(std::size_t count);

  /// Mean reliability of `count` (> 0) broadcast_one() probes — the
  /// per-cycle measurement of the churn workloads and heal_until.
  double probe_reliability(std::size_t count);

  /// Changes the gossip fanout of every node, and of nodes added later
  /// (Figure 1 sweep).
  void set_fanout(std::size_t fanout);

  // --- Workloads (shared implementations) -------------------------------------

  /// Runs the continuous-churn workload (see ChurnConfig). Implemented on
  /// the primitives above, so both backends execute the identical step
  /// sequence. Returns the per-cycle probe reliability (empty without
  /// probes).
  std::vector<double> run_churn(const ChurnConfig& cfg);

  /// Runs the trace-driven churn workload (see HeavyChurnConfig): every
  /// cycle `joins_per_cycle` nodes join, each with a heavy-tailed session
  /// length drawn from the harness RNG stream; sessions that expire this
  /// cycle end (gracefully or by crashing); probes measure reliability.
  /// Shared implementation — both backends execute the identical draw
  /// sequence. Returns the per-cycle probe reliability; `stats` gets the
  /// drawn session lengths' mean and max.
  std::vector<double> run_heavy_churn(const HeavyChurnConfig& cfg,
                                      HeavyChurnStats& stats);

  /// Runs the sustained pub/sub workload (see PubSubConfig). Shared
  /// implementation on inject_broadcast/settle_broadcasts, so both
  /// backends execute the identical source-selection and injection
  /// sequence. Returns the per-tick mean reliability; the messages
  /// themselves are the recorder's newest results.
  std::vector<double> run_pubsub(const PubSubConfig& cfg);

  /// Fires one sybil burst: every alive adversarial node injects
  /// `per_adversary` fabricated joins (AttackKind::kSybil; a no-op on
  /// honest clusters and other attacks), then the traffic settles.
  /// Returns the number of adversaries that fired.
  std::size_t sybil_burst(std::size_t per_adversary);

  /// `count` departures of random alive victims, each graceful with
  /// probability `graceful_fraction` (stops early when only two nodes
  /// remain). The single definition of the departure draw sequence — churn
  /// cycles and Experiment leave phases both use it, keeping their
  /// RNG-draw order in lockstep.
  void leave_random(std::size_t count, double graceful_fraction);

  /// Uniformly random alive node index (harness RNG stream). Throws
  /// CheckError when every node is dead.
  [[nodiscard]] std::size_t random_alive_node();

  // --- Graph snapshots (shared implementations) -------------------------------

  /// Arcs = dissemination views of all nodes (dead nodes keep their last
  /// views; pass alive_only=true to restrict to correct nodes). One
  /// definition of the snapshot for both backends — peers resolve through
  /// peer_slot().
  [[nodiscard]] graph::Digraph dissemination_graph(bool alive_only) const;

  /// Fraction of live out-neighbors, averaged over alive nodes (§2.3).
  [[nodiscard]] double view_accuracy() const;

  /// "Peer not in this cluster" sentinel for peer_slot().
  static constexpr std::size_t kNoPeer = static_cast<std::size_t>(-1);

  /// Index of the node a view entry refers to, or kNoPeer (sim: the dense
  /// id itself; TCP: whoever currently owns that ip:port).
  [[nodiscard]] virtual std::size_t peer_slot(const NodeId& peer) const = 0;

  // --- Access -----------------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const { return runtimes_.size(); }
  [[nodiscard]] virtual std::size_t alive_count() const = 0;
  [[nodiscard]] virtual bool alive(std::size_t i) const = 0;
  [[nodiscard]] virtual NodeId id_of(std::size_t i) const = 0;
  /// Node `i`'s protocol + broadcast engine.
  [[nodiscard]] gossip::NodeRuntime& runtime(std::size_t i);
  [[nodiscard]] const gossip::NodeRuntime& runtime(std::size_t i) const;
  [[nodiscard]] membership::Protocol& protocol(std::size_t i) {
    return runtime(i).protocol();
  }
  [[nodiscard]] const membership::Protocol& protocol(std::size_t i) const {
    return runtime(i).protocol();
  }
  /// Node `i`'s broadcast engine (eager or Plumtree; traffic accounting).
  [[nodiscard]] gossip::BroadcastEngine& engine(std::size_t i) {
    return runtime(i).gossip();
  }
  [[nodiscard]] analysis::BroadcastRecorder& recorder() { return recorder_; }

  /// The adversarial roster driving this backend's fault injection
  /// (adversary.hpp), or nullptr for an honest cluster.
  [[nodiscard]] const Adversary* adversary() const { return adversary_.get(); }

  /// Harness-level random stream (failure selection, source selection...).
  [[nodiscard]] virtual Rng& rng() = 0;

  /// Events dispatched so far — simulator events on the sim backend;
  /// *gossip deliveries + duplicates observed* on the TCP backend (its
  /// membership control frames are not metered). Perf accounting only; the
  /// two are not comparable across backends.
  [[nodiscard]] virtual std::uint64_t events_processed() const = 0;

  /// Snapshot of the cluster-wide counters (see Counters). Reads only: it
  /// sends nothing and draws nothing, so taking one moves no event.
  [[nodiscard]] Counters counters() const;

 protected:
  /// Validates the shared config and selects the adversarial minority.
  /// `real_addresses` picks the fabricated-identity scheme (adversary.hpp).
  Backend(const ClusterConfig& config, bool real_addresses);

  /// The substrate config's shared protocol block.
  [[nodiscard]] virtual ClusterConfig& cluster_config() = 0;

  /// Creates node `index`: its substrate endpoint, and through
  /// make_runtime() the runtime bound to it (not started yet).
  virtual std::unique_ptr<gossip::NodeRuntime> spawn_node(
      std::size_t index) = 0;

  /// Lets one join's traffic finish before the next node joins.
  virtual void settle_join() = 0;

  /// Fills the substrate's share of a counters() snapshot.
  virtual void read_substrate_counters(Counters& out) const = 0;

  /// Gives a graceful leaver's goodbyes time to flush before its process
  /// exits. A no-op where writes survive the sender's exit (the simulator).
  virtual void flush_goodbyes() {}

  /// The node factory: the configured protocol (HyParView on `hyparview`,
  /// which the sim adjusts per heterogeneity class), adversarially wrapped
  /// when node `index` is selected, inside a NodeRuntime whose engine
  /// reports deliveries to `observer`.
  [[nodiscard]] std::unique_ptr<gossip::NodeRuntime> make_runtime(
      membership::Env& env, std::size_t index, const core::Config& hyparview,
      gossip::DeliveryObserver& observer);

 private:
  /// Declared before the runtimes that report to and wrap around them.
  std::unique_ptr<Adversary> adversary_;  ///< null for honest clusters
  analysis::BroadcastRecorder recorder_;
  /// Node table, indexed like the substrate's. Runtimes are torn down after
  /// the substrate; protocol and engine destructors never call their Env.
  std::vector<std::unique_ptr<gossip::NodeRuntime>> runtimes_;
  std::uint64_t next_msg_id_ = 1;
  /// The joins, graceful leaves and crashes performed so far (the rest of
  /// the struct stays 0).
  Counters performed_;
  bool built_ = false;
};

}  // namespace hyparview::harness
