#include "hyparview/harness/sim_backend.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "hyparview/common/assert.hpp"

namespace hyparview::harness {

NetworkConfig NetworkConfig::defaults_for(ProtocolKind kind,
                                          std::size_t nodes,
                                          std::uint64_t seed) {
  NetworkConfig cfg;
  static_cast<ClusterConfig&>(cfg) =
      ClusterConfig::defaults_for(kind, nodes, seed);
  cfg.sim.seed = seed;
  // HyParView keeps an open TCP connection to every active-view member, so
  // a peer's crash surfaces immediately as a connection reset (§4: "TCP is
  // also used as a failure detector"). Cyclon and Scamp keep no standing
  // connections and only discover failures when they next try to send.
  cfg.sim.notify_on_crash = (kind == ProtocolKind::kHyParView);
  return cfg;
}

SimBackend::SimBackend(NetworkConfig config)
    : Backend(config, /*real_addresses=*/false),
      config_(std::move(config)),
      sim_(config_.sim) {
  // Latency metrics read simulated time — deterministic, so pub/sub latency
  // numbers are bit-stable at fixed seed like every other sim metric.
  recorder().set_time_source([this] { return sim_.now(); });
}

SimBackend::~SimBackend() = default;

std::size_t SimBackend::assign_class() {
  if (config_.hyparview_classes.empty()) return 0;
  const double roll = sim_.rng().unit();
  double cumulative = 0.0;
  for (std::size_t c = 0; c < config_.hyparview_classes.size(); ++c) {
    cumulative += config_.hyparview_classes[c].fraction;
    if (roll < cumulative) return c;
  }
  return config_.hyparview_classes.size() - 1;  // fractions under-summed
}

std::size_t SimBackend::node_class(std::size_t i) const {
  HPV_CHECK(i < class_of_.size());
  return class_of_[i];
}

std::unique_ptr<gossip::NodeRuntime> SimBackend::spawn_node(
    std::size_t index) {
  const NodeId id = sim_.add_node(nullptr);
  class_of_.push_back(assign_class());
  core::Config hyparview = config_.hyparview;
  if (!config_.hyparview_classes.empty()) {
    const HyParViewClass& cls = config_.hyparview_classes[class_of_[index]];
    hyparview.active_capacity = cls.active_capacity;
    hyparview.passive_capacity = cls.passive_capacity;
  }
  auto runtime = make_runtime(sim_.env(id), index, hyparview, recorder());
  sim_.set_handler(id, runtime.get());
  return runtime;
}

void SimBackend::run_cycles(std::size_t n) {
  // Reused member scratch: run_cycles sits inside the membership-phase
  // steady state (micro_sim_events gates it allocation-free), so the random
  // round order must not cost a vector per call.
  cycle_order_.resize(node_count());
  std::iota(cycle_order_.begin(), cycle_order_.end(), 0);
  // PeerSim cycle semantics: each node's round traffic settles before the
  // next node acts.
  for (std::size_t round = 0; round < n; ++round) {
    sim_.rng().shuffle(cycle_order_);
    for (const std::size_t i : cycle_order_) {
      if (!alive(i)) continue;
      protocol(i).on_cycle();
      sim_.run_until_quiescent();
    }
  }
}

void SimBackend::read_substrate_counters(Counters& out) const {
  out.frames_sent = sim_.messages_sent();
  out.bytes_sent = sim_.bytes_sent();
  out.send_failures = sim_.sends_failed();
  out.connections_opened = sim_.connections_opened();
  std::copy_n(sim_.sent_by_type().begin(), Counters::kWireTypes,
              out.frames_by_type.begin());
  std::copy_n(sim_.bytes_by_type().begin(), Counters::kWireTypes,
              out.bytes_by_type.begin());
}

void SimBackend::kill_node(std::size_t i) {
  HPV_CHECK(i < node_count());
  sim_.crash(id_of(i));
}

NodeId SimBackend::id_of(std::size_t i) const {
  HPV_CHECK(i < node_count());
  return NodeId::from_index(static_cast<std::uint32_t>(i));
}

bool SimBackend::alive(std::size_t i) const { return sim_.alive(id_of(i)); }

std::vector<bool> SimBackend::alive_mask() const {
  std::vector<bool> mask(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) mask[i] = alive(i);
  return mask;
}

}  // namespace hyparview::harness
