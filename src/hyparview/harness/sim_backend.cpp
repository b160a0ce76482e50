#include "hyparview/harness/sim_backend.hpp"

#include <numeric>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/logging.hpp"

namespace hyparview::harness {

NetworkConfig NetworkConfig::defaults_for(ProtocolKind kind,
                                          std::size_t nodes,
                                          std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.kind = kind;
  cfg.node_count = nodes;
  cfg.seed = seed;
  cfg.sim.seed = seed;
  // §5.1 parameters.
  cfg.fanout = 4;
  cfg.hyparview.active_capacity = 5;   // fanout + 1
  cfg.hyparview.passive_capacity = 30;
  cfg.hyparview.arwl = 6;
  cfg.hyparview.prwl = 3;
  cfg.hyparview.shuffle_ka = 3;
  cfg.hyparview.shuffle_kp = 4;
  cfg.hyparview.shuffle_ttl = 6;
  cfg.cyclon.view_capacity = 35;       // HyParView active + passive
  cfg.cyclon.shuffle_length = 14;
  cfg.cyclon.join_walk_ttl = 5;
  cfg.scamp.c = 4;
  cfg.cyclon.purge_on_unreachable = (kind == ProtocolKind::kCyclonAcked);
  // HyParView keeps an open TCP connection to every active-view member, so
  // a peer's crash surfaces immediately as a connection reset (§4: "TCP is
  // also used as a failure detector"). Cyclon and Scamp keep no standing
  // connections and only discover failures when they next try to send.
  cfg.sim.notify_on_crash = (kind == ProtocolKind::kHyParView);
  switch (kind) {
    case ProtocolKind::kHyParView:
      cfg.gossip.mode = gossip::Mode::kFlood;
      break;
    case ProtocolKind::kCyclonAcked:
      cfg.gossip.mode = gossip::Mode::kRandomFanoutAcked;
      break;
    case ProtocolKind::kCyclon:
    case ProtocolKind::kScamp:
      cfg.gossip.mode = gossip::Mode::kRandomFanout;
      break;
  }
  cfg.gossip.fanout = cfg.fanout;
  // The harness drains every broadcast before starting the next, so at most
  // a handful of ids ever have copies in flight — 128 leaves two orders of
  // magnitude of slack over that in-flight horizon. Keeping the per-node
  // window small matters at paper scale: 10k windows are probed once per
  // delivery, and their combined footprint decides whether the dedup path
  // hits cache or DRAM.
  cfg.gossip.dedup_window = 128;
  return cfg;
}

SimBackend::SimBackend(NetworkConfig config)
    : config_(config), sim_(config.sim) {
  HPV_CHECK_THROW(config_.node_count >= 2,
                  "network needs at least two nodes");
  if (config_.adversary.enabled()) {
    adversary_ = std::make_unique<Adversary>(
        config_.adversary, config_.seed, /*real_addresses=*/false);
    adversary_->select(config_.node_count);
  }
  // Latency metrics read simulated time — deterministic, so pub/sub latency
  // numbers are bit-stable at fixed seed like every other sim metric.
  recorder_.set_time_source([this] { return sim_.now(); });
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

std::unique_ptr<membership::Protocol> SimBackend::make_protocol(
    membership::Env& env, std::size_t index) {
  std::unique_ptr<membership::Protocol> inner;
  switch (config_.kind) {
    case ProtocolKind::kHyParView: {
      core::Config cfg = config_.hyparview;
      if (!config_.hyparview_classes.empty()) {
        const auto& cls = config_.hyparview_classes[class_of_[index]];
        cfg.active_capacity = cls.active_capacity;
        cfg.passive_capacity = cls.passive_capacity;
      }
      inner = std::make_unique<core::HyParView>(env, cfg);
      break;
    }
    case ProtocolKind::kCyclon:
    case ProtocolKind::kCyclonAcked:
      inner = std::make_unique<baselines::Cyclon>(env, config_.cyclon);
      break;
    case ProtocolKind::kScamp:
      inner = std::make_unique<baselines::Scamp>(env, config_.scamp);
      break;
  }
  HPV_CHECK(inner != nullptr);
  return maybe_wrap_adversarial(adversary_.get(), index, env, config_.kind,
                                std::move(inner));
}

void SimBackend::build() {
  HPV_CHECK(!built_);
  built_ = true;
  runtimes_.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) {
    const NodeId id = sim_.add_node(nullptr);
    class_of_.push_back(assign_class());
    gossip::GossipConfig gcfg = config_.gossip;
    gcfg.fanout = config_.fanout;
    auto runtime = std::make_unique<gossip::NodeRuntime>(
        sim_.env(id), make_protocol(sim_.env(id), i), gcfg, &recorder_);
    sim_.set_handler(id, runtime.get());
    runtimes_.push_back(std::move(runtime));
  }
  // Joins happen one by one with no membership rounds in between (§5); each
  // drain is bounded by the watermark taken before the join, so only that
  // join's own traffic (and its cascades) is retired.
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    const std::uint64_t mark = sim_.next_event_seq();
    if (i == 0) {
      runtimes_[0]->protocol().start(std::nullopt);
    } else {
      std::size_t contact = 0;
      if (config_.kind == ProtocolKind::kScamp) {
        // Scamp joins through a random node already in the overlay.
        contact = static_cast<std::size_t>(sim_.rng().below(i));
      }
      runtimes_[i]->protocol().start(id_of(contact));
    }
    sim_.run_until_quiescent_from(mark);
  }
}

void SimBackend::run_cycles(std::size_t n) {
  // Reused member scratch: run_cycles sits inside the membership-phase
  // steady state (micro_sim_events gates it allocation-free), so the random
  // round order must not cost a vector per call.
  cycle_order_.resize(runtimes_.size());
  std::iota(cycle_order_.begin(), cycle_order_.end(), 0);
  // PeerSim cycle semantics: each node's round traffic settles before the
  // next node acts.
  for (std::size_t round = 0; round < n; ++round) {
    sim_.rng().shuffle(cycle_order_);
    for (const std::size_t i : cycle_order_) {
      if (!alive(i)) continue;
      runtimes_[i]->protocol().on_cycle();
      sim_.run_until_quiescent();
    }
  }
}

void SimBackend::kill_node(std::size_t i) {
  HPV_CHECK(i < runtimes_.size());
  sim_.crash(id_of(i));
}

std::size_t SimBackend::add_node() {
  HPV_CHECK(built_);
  // Checked before the node is created: once the joiner exists it is itself
  // alive, and the contact-selection loop below would otherwise spin
  // forever drawing the joiner as its own contact.
  HPV_CHECK_THROW(sim_.alive_count() > 0,
                  "add_node: no alive node left to act as join contact");
  const NodeId id = sim_.add_node(nullptr);
  class_of_.push_back(assign_class());
  gossip::GossipConfig gcfg = config_.gossip;
  gcfg.fanout = config_.fanout;
  auto runtime = std::make_unique<gossip::NodeRuntime>(
      sim_.env(id), make_protocol(sim_.env(id), runtimes_.size()), gcfg,
      &recorder_);
  sim_.set_handler(id, runtime.get());
  runtimes_.push_back(std::move(runtime));
  const std::size_t index = runtimes_.size() - 1;
  // Every protocol joins a live system through a random alive contact (the
  // single-contact bootstrap of build() is a cold-start artifact).
  std::size_t contact = index;
  while (contact == index) contact = random_alive_node();
  runtimes_[index]->protocol().start(id_of(contact));
  sim_.run_until_quiescent();
  return index;
}

std::uint64_t SimBackend::inject_broadcast(std::size_t source) {
  HPV_CHECK(source < runtimes_.size() && alive(source));
  const std::uint64_t msg_id = next_msg_id_++;
  recorder_.begin_message(msg_id, sim_.alive_count());
  runtimes_[source]->gossip().broadcast(msg_id);
  return msg_id;
}

analysis::MessageResult SimBackend::broadcast_from(std::size_t source) {
  const std::uint64_t msg_id = inject_broadcast(source);
  sim_.run_until_quiescent();
  return recorder_.result(msg_id);
}

void SimBackend::set_fanout(std::size_t fanout) {
  config_.fanout = fanout;
  for (auto& runtime : runtimes_) runtime->gossip().set_fanout(fanout);
}

membership::Protocol& SimBackend::protocol(std::size_t i) {
  HPV_CHECK(i < runtimes_.size());
  return runtimes_[i]->protocol();
}

const membership::Protocol& SimBackend::protocol(std::size_t i) const {
  HPV_CHECK(i < runtimes_.size());
  return runtimes_[i]->protocol();
}

gossip::NodeRuntime& SimBackend::runtime(std::size_t i) {
  HPV_CHECK(i < runtimes_.size());
  return *runtimes_[i];
}

NodeId SimBackend::id_of(std::size_t i) const {
  HPV_CHECK(i < runtimes_.size());
  return NodeId::from_index(static_cast<std::uint32_t>(i));
}

bool SimBackend::alive(std::size_t i) const { return sim_.alive(id_of(i)); }

std::vector<bool> SimBackend::alive_mask() const {
  std::vector<bool> mask(runtimes_.size());
  for (std::size_t i = 0; i < runtimes_.size(); ++i) mask[i] = alive(i);
  return mask;
}

}  // namespace hyparview::harness
