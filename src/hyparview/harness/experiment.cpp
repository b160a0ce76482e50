#include "hyparview/harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <span>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/rng.hpp"
#include "hyparview/graph/metrics.hpp"
#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace hyparview::harness {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double average(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// BFS sources the overlay phase samples for avg_shortest_path.
constexpr std::size_t kOverlayPathSources = 256;

OverlayStats measure_overlay(Backend& backend) {
  OverlayStats s;
  const Adversary* adversary = backend.adversary();
  const auto adversarial = [adversary](std::size_t i) {
    return adversary != nullptr && adversary->is_adversarial(i);
  };
  const auto count = [&](std::span<const NodeId> view, ViewCensus& census) {
    for (const NodeId& peer : view) {
      ++census.slots;
      const std::size_t slot = backend.peer_slot(peer);
      // An entry that resolves to no node names no process this cluster
      // ever ran: a fabricated identity.
      if (slot == Backend::kNoPeer) {
        ++census.fabricated;
      } else if (adversarial(slot)) {
        ++census.colluders;
      }
    }
  };
  std::vector<bool> honest(backend.node_count());
  for (std::size_t i = 0; i < honest.size(); ++i) {
    honest[i] = backend.alive(i) && !adversarial(i);
    if (!honest[i]) continue;
    count(backend.protocol(i).dissemination_view(), s.dissemination);
    count(backend.protocol(i).backup_view(), s.backup);
  }
  const graph::Digraph g = backend.dissemination_graph(/*alive_only=*/true)
                               .induced_subgraph(honest);

  s.alive = g.node_count();
  s.connected = graph::is_weakly_connected(g);
  s.largest_component = graph::largest_weakly_connected_component(g);
  s.clustering = graph::average_clustering(g.undirected_closure());
  // The BFS sampler is seeded from a copy of the harness stream: the stream
  // the rest of the run draws from does not move.
  Rng peek = backend.rng();
  Rng sampler(derive_seed(peek.next(), 0x0e7a'0001ull));
  s.avg_shortest_path =
      graph::shortest_path_stats(g, kOverlayPathSources, sampler)
          .average_shortest_path;
  s.in_degree_histogram = graph::in_degree_histogram(g);
  const std::vector<std::size_t> indeg = g.in_degrees();
  const std::vector<double> values(indeg.begin(), indeg.end());
  s.in_degree = analysis::summarize(values);
  return s;
}

}  // namespace

double ViewCensus::poisoned_share() const {
  return slots == 0 ? 0.0
                    : static_cast<double>(colluders + fabricated) /
                          static_cast<double>(slots);
}

double OverlayStats::backup_view_mean() const {
  return alive == 0 ? 0.0
                    : static_cast<double>(backup.slots) /
                          static_cast<double>(alive);
}

Experiment& Experiment::stabilize(std::size_t n, std::string label) {
  Phase p;
  p.kind = PhaseKind::kCycles;
  p.label = std::move(label);
  p.cycles = n;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::cycles(std::size_t n, std::string label) {
  return stabilize(n, std::move(label));
}

Experiment& Experiment::set_fanout(std::size_t fanout, std::string label) {
  Phase p;
  p.kind = PhaseKind::kSetFanout;
  p.label = std::move(label);
  p.fanout = fanout;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::crash(double fraction, std::string label) {
  Phase p;
  p.kind = PhaseKind::kCrash;
  p.label = std::move(label);
  p.fraction = fraction;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::leave(std::size_t count, double graceful_fraction,
                              std::string label) {
  Phase p;
  p.kind = PhaseKind::kLeave;
  p.label = std::move(label);
  p.count = count;
  p.fraction = graceful_fraction;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::broadcast(std::size_t count, std::string label) {
  Phase p;
  p.kind = PhaseKind::kBroadcast;
  p.label = std::move(label);
  p.count = count;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::heal_until(std::string baseline_label,
                                   std::size_t max_cycles,
                                   std::size_t probes_per_cycle,
                                   std::string label) {
  HPV_CHECK_THROW(probes_per_cycle > 0,
                  "heal_until needs at least one probe per cycle");
  const Phase* baseline = broadcast_phase(baseline_label);
  HPV_CHECK_THROW(baseline != nullptr,
                  "heal_until: baseline '" + baseline_label +
                      "' names no earlier broadcast phase");
  HPV_CHECK_THROW(baseline->count > 0,
                  "heal_until: baseline '" + baseline_label +
                      "' broadcasts nothing, so there is no reliability to "
                      "heal back to");
  Phase p;
  p.kind = PhaseKind::kHealUntil;
  p.label = std::move(label);
  p.cycles = max_cycles;
  p.count = probes_per_cycle;
  p.baseline_label = std::move(baseline_label);
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::churn(const ChurnConfig& cfg, std::string label) {
  Phase p;
  p.kind = PhaseKind::kChurn;
  p.label = std::move(label);
  p.churn = cfg;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::sybil_burst(std::size_t per_adversary,
                                    std::string label) {
  Phase p;
  p.kind = PhaseKind::kSybilBurst;
  p.label = std::move(label);
  p.count = per_adversary;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::heavy_churn(const HeavyChurnConfig& cfg,
                                    std::string label) {
  Phase p;
  p.kind = PhaseKind::kHeavyChurn;
  p.label = std::move(label);
  p.heavy = cfg;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::pubsub(const PubSubConfig& cfg, std::string label) {
  Phase p;
  p.kind = PhaseKind::kPubSub;
  p.label = std::move(label);
  p.pubsub = cfg;
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::settle(std::string label) {
  Phase p;
  p.kind = PhaseKind::kSettle;
  p.label = std::move(label);
  phases_.push_back(std::move(p));
  return *this;
}

Experiment& Experiment::overlay(std::string label) {
  Phase p;
  p.kind = PhaseKind::kOverlay;
  p.label = std::move(label);
  phases_.push_back(std::move(p));
  return *this;
}

const Experiment::Phase* Experiment::broadcast_phase(
    const std::string& label) const {
  const auto it =
      std::find_if(phases_.begin(), phases_.end(), [&](const Phase& p) {
        return p.kind == PhaseKind::kBroadcast && p.label == label;
      });
  return it == phases_.end() ? nullptr : &*it;
}

std::size_t Experiment::planned_broadcasts() const {
  std::size_t total = 0;
  for (const Phase& p : phases_) {
    switch (p.kind) {
      case PhaseKind::kBroadcast: total += p.count; break;
      case PhaseKind::kHealUntil: total += p.cycles * p.count; break;
      case PhaseKind::kChurn:
        total += p.churn.cycles * p.churn.probes_per_cycle;
        break;
      case PhaseKind::kHeavyChurn:
        total += p.heavy.cycles * p.heavy.probes_per_cycle;
        break;
      case PhaseKind::kPubSub:
        total += p.pubsub.sources * p.pubsub.ticks * p.pubsub.rate;
        break;
      default: break;
    }
  }
  return total;
}

double PhaseResult::avg_reliability() const { return average(reliabilities); }

double PhaseResult::min_reliability() const {
  // An empty phase used to report 0.0 — indistinguishable from a genuine
  // total delivery failure. Asking for the minimum of nothing is a driver
  // bug (wrong label, zero-count broadcast phase); fail loudly.
  HPV_CHECK_THROW(!reliabilities.empty(),
                  "min_reliability on phase '" + label +
                      "' which recorded no broadcasts");
  return *std::min_element(reliabilities.begin(), reliabilities.end());
}

double PhaseResult::last_reliability() const {
  HPV_CHECK_THROW(!reliabilities.empty(),
                  "last_reliability on phase '" + label +
                      "' which recorded no broadcasts");
  return reliabilities.back();
}

analysis::Summary PhaseResult::message_reliability() const {
  std::vector<double> values;
  values.reserve(broadcasts.size());
  for (const analysis::MessageResult& m : broadcasts) {
    values.push_back(m.reliability());
  }
  return analysis::summarize(values);
}

const PhaseResult& ExperimentResult::phase(const std::string& label) const {
  for (const PhaseResult& p : phases) {
    if (p.label == label) return p;
  }
  HPV_CHECK_THROW(false, "experiment result has no phase with that label");
  return phases.front();  // unreachable
}

bool ExperimentResult::has_phase(const std::string& label) const {
  for (const PhaseResult& p : phases) {
    if (p.label == label) return true;
  }
  return false;
}

ExperimentResult run_experiment(Backend& backend, const Experiment& spec) {
  ExperimentResult result;
  result.name = spec.name();
  result.backend = backend.backend_name();
  const double run_start = now_seconds();
  const std::uint64_t run_events_start = backend.events_processed();

  if (!backend.built()) backend.build();
  // Capacity semantics, and runs compose on one backend: reserve room for
  // the broadcasts already recorded plus this spec's, so a later run never
  // rehashes the recorder mid-measurement.
  backend.recorder().reserve(backend.recorder().results().size() +
                             spec.planned_broadcasts());

  result.phases.reserve(spec.phases().size());
  for (const Experiment::Phase& phase : spec.phases()) {
    PhaseResult pr;
    pr.label = phase.label;
    pr.kind = phase.kind;
    const double phase_start = now_seconds();
    const std::uint64_t events_start = backend.events_processed();
    const Counters counters_start = backend.counters();

    switch (phase.kind) {
      case Experiment::PhaseKind::kCycles:
        backend.run_cycles(phase.cycles);
        break;
      case Experiment::PhaseKind::kSetFanout:
        backend.set_fanout(phase.fanout);
        break;
      case Experiment::PhaseKind::kCrash:
        backend.fail_random_fraction(phase.fraction);
        break;
      case Experiment::PhaseKind::kLeave:
        backend.leave_random(phase.count, phase.fraction);
        break;
      case Experiment::PhaseKind::kBroadcast:
        pr.reliabilities.reserve(phase.count);
        pr.broadcasts.reserve(phase.count);
        for (std::size_t m = 0; m < phase.count; ++m) {
          pr.broadcasts.push_back(backend.broadcast_one());
          pr.reliabilities.push_back(pr.broadcasts.back().reliability());
        }
        break;
      case Experiment::PhaseKind::kHealUntil: {
        // The recovery target: the average reliability the referenced
        // broadcast phase measured before the fault.
        const auto earlier = std::find_if(
            result.phases.begin(), result.phases.end(),
            [&](const PhaseResult& p) {
              return p.kind == Experiment::PhaseKind::kBroadcast &&
                     p.label == phase.baseline_label;
            });
        HPV_CHECK_THROW(earlier != result.phases.end(),
                        "heal_until: baseline '" + phase.baseline_label +
                            "' names no earlier broadcast phase");
        // An empty phase averages to 0.0, which the first probe would
        // always "recover" (a phase edited through mutable_phases() can
        // get here past the builder's check).
        HPV_CHECK_THROW(!earlier->reliabilities.empty(),
                        "heal_until: baseline '" + phase.baseline_label +
                            "' recorded no broadcasts, so there is no "
                            "reliability to heal back to");
        const double baseline = earlier->avg_reliability();
        for (std::size_t cycle = 1; cycle <= phase.cycles; ++cycle) {
          backend.run_cycles(1);
          const double reliability = backend.probe_reliability(phase.count);
          pr.reliabilities.push_back(reliability);
          if (reliability >= baseline) {
            pr.cycles_to_heal = cycle;
            pr.recovered = true;
            break;
          }
        }
        if (!pr.recovered) pr.cycles_to_heal = phase.cycles;
        break;
      }
      case Experiment::PhaseKind::kChurn:
        pr.reliabilities = backend.run_churn(phase.churn);
        break;
      case Experiment::PhaseKind::kSettle:
        backend.settle();
        break;
      case Experiment::PhaseKind::kSybilBurst:
        pr.adversaries_fired = backend.sybil_burst(phase.count);
        break;
      case Experiment::PhaseKind::kHeavyChurn:
        pr.reliabilities = backend.run_heavy_churn(phase.heavy, pr.heavy);
        break;
      case Experiment::PhaseKind::kPubSub: {
        const std::size_t first = backend.recorder().results().size();
        pr.reliabilities = backend.run_pubsub(phase.pubsub);
        const auto& all = backend.recorder().results();
        pr.broadcasts.assign(
            all.begin() + static_cast<std::ptrdiff_t>(first), all.end());
        break;
      }
      case Experiment::PhaseKind::kOverlay:
        pr.overlay = measure_overlay(backend);
        break;
    }

    pr.wall_seconds = now_seconds() - phase_start;
    pr.events = backend.events_processed() - events_start;
    pr.counters = backend.counters() - counters_start;
    pr.alive = backend.alive_count();
    result.phases.push_back(std::move(pr));
  }

  result.wall_seconds = now_seconds() - run_start;
  result.events = backend.events_processed() - run_events_start;
  return result;
}

Cluster Cluster::sim(const NetworkConfig& config) {
  return Cluster(std::make_unique<SimBackend>(config));
}

Cluster Cluster::tcp(const TcpBackendConfig& config) {
  return Cluster(std::make_unique<TcpBackend>(config));
}

ExperimentResult Cluster::run(const Experiment& spec) {
  return run_experiment(*backend_, spec);
}

SimBackend* Cluster::sim_backend() {
  return dynamic_cast<SimBackend*>(backend_.get());
}

}  // namespace hyparview::harness
