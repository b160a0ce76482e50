// Declarative experiment specs over any harness::Backend.
//
// The §5 evaluation pipeline — build → stabilize → fail → measure → heal —
// used to be hand-rolled in every bench driver against the sim-only
// harness. An Experiment captures it as data: an ordered list of phases
// (membership rounds, fanout changes, fault injection, broadcast
// measurements, healing loops, churn workloads, overlay snapshots), each
// with a label. The runner executes the phases against a Backend and
// returns per-phase metric sinks: wall seconds, backend events, the
// difference of two Backend::counters() snapshots taken around the phase
// (frames, bytes, engine and repair counts, joins/leaves/crashes), every
// broadcast's MessageResult and the overlay's graph metrics.
//
// Because the runner invokes exactly the primitives the historical drivers
// invoked, in the same order, a spec run on the sim backend is bit-identical
// to the loop it replaced at a fixed seed (pinned by experiment_test). The
// same spec object runs unmodified on the TCP backend — that is the point.
//
// Cluster is the owning handle: it pairs a backend with its config and runs
// specs against it. Phases compose across run() calls (the backend is built
// once), so drivers can interleave declarative phases with direct backend
// access (fault injection, graph snapshots) where a figure needs it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hyparview/analysis/stats.hpp"
#include "hyparview/harness/backend.hpp"
#include "hyparview/harness/sim_backend.hpp"

// The JSON layer stays a forward declaration for the same reason as the TCP
// backend below: the loader lives in spec_json.cpp, and sim-only drivers that
// never touch .json specs should not pull the parser in.
namespace hyparview::json {
class Value;
}

namespace hyparview::harness {

// The TCP substrate stays a forward declaration: including it here would
// drag the epoll/socket stack into every sim-only driver and test (the
// factories live in experiment.cpp). TCP users include tcp_backend.hpp.
class TcpBackend;
struct TcpBackendConfig;

class Experiment {
 public:
  enum class PhaseKind : std::uint8_t {
    kCycles,     ///< membership rounds (stabilization / healing)
    kSetFanout,  ///< change every node's gossip fanout
    kCrash,      ///< massive simultaneous crash of a fraction
    kLeave,      ///< departures (graceful_fraction decides leave vs crash)
    kBroadcast,  ///< measured broadcasts from random alive sources
    kHealUntil,  ///< cycle+probe until a baseline phase's reliability
    kChurn,       ///< continuous-churn workload
    kSettle,      ///< let in-flight traffic finish (Backend::settle)
    kSybilBurst,  ///< adversaries inject fabricated joins, then settle
    kHeavyChurn,  ///< trace-driven churn (heavy-tailed session lengths)
    kPubSub,      ///< sustained multi-source pub/sub streams
    kOverlay,     ///< graph metrics of the honest alive overlay (no traffic)
  };

  struct Phase {
    PhaseKind kind = PhaseKind::kCycles;
    std::string label;
    std::size_t cycles = 0;        ///< kCycles; max cycles for kHealUntil
    std::size_t fanout = 0;        ///< kSetFanout
    double fraction = 0.0;         ///< kCrash; graceful fraction for kLeave
    std::size_t count = 0;         ///< kBroadcast; departures for kLeave;
                                   ///< probes per cycle for kHealUntil;
                                   ///< joins per adversary for kSybilBurst
    std::string baseline_label;    ///< kHealUntil reference phase
    ChurnConfig churn{};           ///< kChurn
    HeavyChurnConfig heavy{};      ///< kHeavyChurn
    PubSubConfig pubsub{};         ///< kPubSub

    bool operator==(const Phase&) const = default;
  };

  explicit Experiment(std::string name) : name_(std::move(name)) {}

  /// `n` membership rounds (the paper's stabilization uses 50).
  Experiment& stabilize(std::size_t n, std::string label = "stabilize");
  /// Alias of stabilize with a healing-flavored default label.
  Experiment& cycles(std::size_t n, std::string label = "cycles");
  Experiment& set_fanout(std::size_t fanout, std::string label = "fanout");
  Experiment& crash(double fraction, std::string label = "crash");
  /// `count` departures of random alive nodes; each is graceful with
  /// probability `graceful_fraction` (1.0 = pure graceful-leave wave).
  Experiment& leave(std::size_t count, double graceful_fraction,
                    std::string label = "leave");
  Experiment& broadcast(std::size_t count, std::string label = "broadcast");
  /// Repeats {one membership round, `probes_per_cycle` probe broadcasts}
  /// until the per-cycle average reliability regains the average measured
  /// by the earlier kBroadcast phase labeled `baseline_label`, or
  /// `max_cycles` is reached (Figure 4's healing measurement). The baseline
  /// phase must precede this one *within the same spec* — labels do not
  /// resolve across separate run() calls — and must broadcast at least
  /// once; throws CheckError otherwise.
  Experiment& heal_until(std::string baseline_label, std::size_t max_cycles,
                         std::size_t probes_per_cycle,
                         std::string label = "heal");
  Experiment& churn(const ChurnConfig& cfg, std::string label = "churn");
  /// Every alive adversarial node injects `per_adversary` fabricated joins
  /// (Backend::sybil_burst); the burst traffic settles before the next
  /// phase. A no-op on honest clusters, so adversarial specs stay portable.
  Experiment& sybil_burst(std::size_t per_adversary,
                          std::string label = "sybil");
  /// Trace-driven churn with heavy-tailed session lengths
  /// (Backend::run_heavy_churn).
  Experiment& heavy_churn(const HeavyChurnConfig& cfg,
                          std::string label = "heavy_churn");
  /// Sustained multi-source pub/sub streams (Backend::run_pubsub).
  Experiment& pubsub(const PubSubConfig& cfg, std::string label = "pubsub");
  /// Drains in-flight traffic (e.g. crash notifications in the
  /// notify-on-crash ablation) before the next measured phase.
  Experiment& settle(std::string label = "settle");
  /// Snapshots the honest alive dissemination graph and the adversary's
  /// share of the honest views into OverlayStats (Table 1, Figure 5, the
  /// adversarial damage). Sends nothing and leaves the harness stream
  /// untouched, so inserting it anywhere moves no event.
  Experiment& overlay(std::string label = "overlay");

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Phase>& phases() const { return phases_; }
  /// In-place edits of a loaded spec (the tests scale committed specs down
  /// this way).
  [[nodiscard]] std::vector<Phase>& mutable_phases() { return phases_; }

  /// The first kBroadcast phase labeled `label` added so far, or nullptr:
  /// the phase a heal_until baseline resolves to.
  [[nodiscard]] const Phase* broadcast_phase(const std::string& label) const;

  /// Broadcasts the spec will record at most (recorder pre-sizing).
  [[nodiscard]] std::size_t planned_broadcasts() const;

  /// Decodes `{"name": ..., "phases": [...]}` (the `phases` schema of
  /// spec_json.hpp). Unknown keys, wrong types, and out-of-range values
  /// throw CheckError naming the offending key. Implemented in
  /// spec_json.cpp.
  [[nodiscard]] static Experiment from_json(const json::Value& doc);

 private:
  std::string name_;
  std::vector<Phase> phases_;
};

/// The entries of one view class over the measured nodes, by what they
/// name.
struct ViewCensus {
  std::uint64_t slots = 0;       ///< entries inspected
  std::uint64_t colluders = 0;   ///< entries naming an adversarial node
  std::uint64_t fabricated = 0;  ///< entries naming no node of the cluster

  /// (colluders + fabricated) / slots, 0 when no slot was inspected.
  [[nodiscard]] double poisoned_share() const;
};

/// Shape of the honest overlay: the dissemination graph induced on the
/// alive nodes outside the adversary's roster, which on an honest cluster
/// is every alive node (§2.3 properties, Table 1, Figure 5), and how much
/// of those nodes' views the adversary holds.
struct OverlayStats {
  std::size_t alive = 0;              ///< nodes measured: alive and honest
  bool connected = false;             ///< weakly connected
  std::size_t largest_component = 0;  ///< weakly connected, in nodes
  double clustering = 0.0;  ///< average over the undirected closure
  /// Over BFS from 256 sampled sources (every source on smaller overlays,
  /// which makes it exact).
  double avg_shortest_path = 0.0;
  /// in_degree_histogram[d] = measured nodes with in-degree d.
  std::vector<std::size_t> in_degree_histogram;
  analysis::Summary in_degree;  ///< mean/stddev/min/max over measured nodes
  /// The views broadcasts go out on. Its poisoned share is the eclipse
  /// ratio: about the adversary's population share when it merely takes
  /// part, more when it captures slots.
  ViewCensus dissemination;
  ViewCensus backup;  ///< the views repair draws from

  /// Backup-view entries per measured node.
  [[nodiscard]] double backup_view_mean() const;
};

struct PhaseResult {
  std::string label;
  Experiment::PhaseKind kind = Experiment::PhaseKind::kCycles;
  double wall_seconds = 0.0;
  /// Backend events dispatched during this phase (sim: simulator events;
  /// TCP: frames observed).
  std::uint64_t events = 0;
  /// What the phase did: Backend::counters() after it minus before it.
  Counters counters;
  /// Alive nodes when the phase ended.
  std::size_t alive = 0;

  /// kBroadcast: one entry per broadcast. kHealUntil/kChurn/kHeavyChurn:
  /// one entry per cycle (the per-cycle probe average). kPubSub: one entry
  /// per tick (the mean over that tick's messages).
  std::vector<double> reliabilities;
  /// kBroadcast and kPubSub: every message the phase published, in
  /// publication order.
  std::vector<analysis::MessageResult> broadcasts;

  // kHealUntil:
  std::size_t cycles_to_heal = 0;
  bool recovered = false;

  // kHeavyChurn:
  HeavyChurnStats heavy;

  // kSybilBurst:
  std::size_t adversaries_fired = 0;

  // kOverlay:
  OverlayStats overlay;

  [[nodiscard]] double avg_reliability() const;
  /// min/last throw CheckError when the phase recorded no broadcasts: a
  /// silent 0.0 is indistinguishable from a genuine total delivery failure.
  [[nodiscard]] double min_reliability() const;
  [[nodiscard]] double last_reliability() const;
  /// Reliability over `broadcasts`, one value per message (for kPubSub,
  /// `reliabilities` holds tick means instead).
  [[nodiscard]] analysis::Summary message_reliability() const;
};

struct ExperimentResult {
  std::string name;
  std::string backend;
  std::vector<PhaseResult> phases;
  double wall_seconds = 0.0;
  /// Backend events over the whole run (including build when the runner
  /// performed it).
  std::uint64_t events = 0;

  /// First phase with this label (HPV_CHECK-fails when absent).
  [[nodiscard]] const PhaseResult& phase(const std::string& label) const;
  [[nodiscard]] bool has_phase(const std::string& label) const;
};

/// Executes `spec` against `backend`. Builds the backend first when the
/// caller has not (so a spec always starts from the §5 bootstrap), and
/// pre-sizes the recorder for the spec's planned broadcasts.
ExperimentResult run_experiment(Backend& backend, const Experiment& spec);

/// Owning backend handle: the user-facing entry point of the harness.
///
///   auto cluster = Cluster::sim(NetworkConfig::defaults_for(...));
///   auto result  = cluster.run(Experiment("fig2")
///                                  .stabilize(50)
///                                  .crash(0.5)
///                                  .broadcast(1000, "measure"));
///
/// The same spec runs over TCP by swapping the factory:
///   auto cluster = Cluster::tcp(TcpBackendConfig::defaults_for(...));
class Cluster {
 public:
  [[nodiscard]] static Cluster sim(const NetworkConfig& config);
  [[nodiscard]] static Cluster tcp(const TcpBackendConfig& config);

  /// Runs the spec (building first if needed). Consecutive run() calls
  /// compose: the backend keeps its state between specs.
  ExperimentResult run(const Experiment& spec);

  [[nodiscard]] Backend& backend() { return *backend_; }
  [[nodiscard]] const Backend& backend() const { return *backend_; }
  Backend* operator->() { return backend_.get(); }

  /// The sim backend, when this cluster is simulated (nullptr over TCP) —
  /// for drivers that need simulator-only facilities (fault injection
  /// beyond crashes).
  [[nodiscard]] SimBackend* sim_backend();

 private:
  explicit Cluster(std::unique_ptr<Backend> backend)
      : backend_(std::move(backend)) {}

  std::unique_ptr<Backend> backend_;
};

}  // namespace hyparview::harness
