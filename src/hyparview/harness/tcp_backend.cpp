#include "hyparview/harness/tcp_backend.hpp"

#include <numeric>
#include <optional>

#include "hyparview/common/assert.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/harness/stats_export.hpp"

namespace hyparview::harness {

namespace {
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
}  // namespace

TcpBackendConfig TcpBackendConfig::defaults_for(ProtocolKind kind,
                                                std::size_t nodes,
                                                std::uint64_t seed) {
  // Reuse the §5.1 parameter block verbatim (single source of truth), then
  // drop the simulator-only pieces.
  const NetworkConfig base = NetworkConfig::defaults_for(kind, nodes, seed);
  TcpBackendConfig cfg;
  cfg.kind = kind;
  cfg.node_count = nodes;
  cfg.seed = seed;
  cfg.fanout = base.fanout;
  cfg.hyparview = base.hyparview;
  cfg.cyclon = base.cyclon;
  cfg.scamp = base.scamp;
  cfg.gossip = base.gossip;
  cfg.adversary = base.adversary;
  return cfg;
}

void TcpBackend::CountingObserver::on_deliver(const NodeId& node,
                                              std::uint64_t msg_id,
                                              std::uint16_t hops) {
  ++owner_.frames_observed_;
  owner_.recorder_.on_deliver(node, msg_id, hops);
}

void TcpBackend::CountingObserver::on_duplicate(const NodeId& node,
                                                std::uint64_t msg_id) {
  ++owner_.frames_observed_;
  owner_.recorder_.on_duplicate(node, msg_id);
}

TcpBackend::TcpBackend(TcpBackendConfig config)
    : config_(config),
      master_rng_(derive_seed(config.seed, 0x7c9'0000ull)),
      observer_(*this) {
  HPV_CHECK_THROW(config_.node_count >= 2,
                  "cluster needs at least two nodes");
  if (config_.adversary.enabled()) {
    adversary_ = std::make_unique<Adversary>(
        config_.adversary, config_.seed, /*real_addresses=*/true);
    adversary_->select(config_.node_count);
  }
  // Latency metrics read the event loop's monotonic clock — real
  // publish-to-last-delivery times over loopback sockets.
  recorder_.set_time_source([this] { return loop_.now(); });
}

TcpBackend::~TcpBackend() {
  for (auto& node : nodes_) {
    if (node.transport) node.transport->shutdown();
  }
}

void TcpBackend::wait(Duration d) {
  loop_.run_until([] { return false; }, d);
}

std::unique_ptr<membership::Protocol> TcpBackend::make_protocol(
    membership::Env& env, std::size_t index) {
  std::unique_ptr<membership::Protocol> inner;
  switch (config_.kind) {
    case ProtocolKind::kHyParView:
      inner = std::make_unique<core::HyParView>(env, config_.hyparview);
      break;
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

std::size_t TcpBackend::spawn_node() {
  const std::size_t index = nodes_.size();
  net::TcpTransportConfig tcfg = config_.transport;
  tcfg.rng_seed = derive_seed(config_.seed, index + 1);
  TcpNode node;
  node.transport =
      std::make_unique<net::TcpTransport>(loop_, nullptr, tcfg);
  gossip::GossipConfig gcfg = config_.gossip;
  gcfg.fanout = config_.fanout;
  node.runtime = std::make_unique<gossip::NodeRuntime>(
      *node.transport, make_protocol(*node.transport, index), gcfg,
      &observer_);
  node.transport->set_endpoint(node.runtime.get());
  // Overwriting insert: the kernel may hand a dead node's ephemeral port to
  // a later listener, and over TCP the address IS the identity — a view
  // entry naming a reused address reaches whoever owns it now, so the index
  // must map to the current owner, not the corpse.
  index_by_id_.insert(node.transport->local_id().raw(), index);
  nodes_.push_back(std::move(node));
  ++alive_count_;
  return index;
}

void TcpBackend::build() {
  HPV_CHECK(!built_);
  built_ = true;
  // Stats endpoint first, so a poller can watch the bootstrap itself.
  if (config_.stats_port >= 0) {
    stats_ = std::make_unique<StatsExporter>(*this, config_.stats_port);
  }
  nodes_.reserve(config_.node_count);
  for (std::size_t i = 0; i < config_.node_count; ++i) spawn_node();
  // Serial bootstrap (§5): each join's dial/walk traffic settles before
  // the next node joins — same policy as the sim backend, real handshakes.
  nodes_[0].runtime->protocol().start(std::nullopt);
  wait(config_.join_settle);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    std::size_t contact = 0;
    if (config_.kind == ProtocolKind::kScamp) {
      contact = static_cast<std::size_t>(master_rng_.below(i));
    }
    nodes_[i].runtime->protocol().start(id_of(contact));
    wait(config_.join_settle);
  }
}

std::size_t TcpBackend::add_node() {
  HPV_CHECK(built_);
  HPV_CHECK_THROW(alive_count_ > 0,
                  "add_node: no alive node left to act as join contact");
  const std::size_t index = spawn_node();
  std::size_t contact = index;
  while (contact == index) contact = random_alive_node();
  nodes_[index].runtime->protocol().start(id_of(contact));
  wait(config_.join_settle);
  return index;
}

void TcpBackend::kill_node(std::size_t i) {
  HPV_CHECK(i < nodes_.size());
  if (!nodes_[i].alive) return;
  nodes_[i].transport->shutdown();
  nodes_[i].alive = false;
  --alive_count_;
}

void TcpBackend::leave_node(std::size_t i, bool graceful) {
  HPV_CHECK(i < nodes_.size());
  if (!nodes_[i].alive) return;
  if (graceful) {
    nodes_[i].runtime->protocol().leave();
    // Unlike the simulator (where in-flight writes survive the sender's
    // exit), a real shutdown discards unflushed frames — give the goodbyes
    // an actual flush window before the process "exits".
    wait(config_.leave_settle);
  }
  kill_node(i);
  settle();
}

void TcpBackend::run_cycles(std::size_t n) {
  cycle_order_.resize(nodes_.size());
  std::iota(cycle_order_.begin(), cycle_order_.end(), 0);
  for (std::size_t round = 0; round < n; ++round) {
    master_rng_.shuffle(cycle_order_);
    for (const std::size_t i : cycle_order_) {
      if (!nodes_[i].alive) continue;
      nodes_[i].runtime->protocol().on_cycle();
    }
    wait(config_.cycle_settle);
  }
}

std::uint64_t TcpBackend::inject_broadcast(std::size_t source) {
  HPV_CHECK(source < nodes_.size() && nodes_[source].alive);
  const std::uint64_t msg_id = next_msg_id_++;
  recorder_.begin_message(msg_id, alive_count_);
  nodes_[source].runtime->gossip().broadcast(msg_id);
  return msg_id;
}

void TcpBackend::settle_broadcasts(std::span<const std::uint64_t> ids) {
  if (ids.empty()) {
    settle();
    return;
  }
  // Same cutoff structure as broadcast_from, aggregated: completion is
  // every id reaching its own registered alive population; "progress" is
  // the combined delivered+duplicate count over the batch, so one still-
  // flooding message keeps the whole window open.
  std::uint64_t last_seen = 0;
  TimePoint last_progress = loop_.now();
  loop_.run_until(
      [&] {
        bool all_done = true;
        std::uint64_t seen = 0;
        for (const std::uint64_t id : ids) {
          const analysis::MessageResult& r = recorder_.result(id);
          if (r.delivered < r.alive_nodes) all_done = false;
          seen += static_cast<std::uint64_t>(r.delivered) + r.duplicates;
        }
        if (all_done) return true;
        const TimePoint now = loop_.now();
        if (seen != last_seen) {
          last_seen = seen;
          last_progress = now;
          return false;
        }
        const Duration quiet = now > last_progress ? now - last_progress : 0;
        return last_seen > 0 && quiet > config_.broadcast_quiet_window;
      },
      config_.broadcast_timeout);
}

analysis::MessageResult TcpBackend::broadcast_from(std::size_t source) {
  const std::uint64_t msg_id = inject_broadcast(source);
  const std::size_t expect = recorder_.result(msg_id).alive_nodes;
  // Done when every alive node delivered — or when the flood went quiet
  // (no new deliveries/duplicates for a window): after failures, protocols
  // without a failure detector legitimately stall below full delivery, and
  // waiting the whole timeout per probe would turn a partial-delivery
  // measurement into minutes of dead air.
  //
  // Two edge cases the cutoff must get right (tcp_backend_test pins both):
  //  * before the first observation there is no "last progress" to go
  //    quiet from — slow connection establishment must not be misread as a
  //    stalled flood, so the quiet cutoff only engages once something has
  //    been seen;
  //  * a flood that never produces an observation (or a quiet window
  //    misconfigured above the timeout) must still terminate: the hard
  //    `broadcast_timeout` deadline inside run_until is the backstop.
  std::uint64_t last_seen = 0;
  TimePoint last_progress = loop_.now();
  loop_.run_until(
      [&] {
        const analysis::MessageResult& r = recorder_.result(msg_id);
        if (r.delivered >= expect) return true;
        const std::uint64_t seen =
            static_cast<std::uint64_t>(r.delivered) + r.duplicates;
        const TimePoint now = loop_.now();
        if (seen != last_seen) {
          last_seen = seen;
          last_progress = now;
          return false;  // progress this very poll; the window restarts
        }
        // Same monotonic clock on both sides, but clamp anyway: a negative
        // elapsed must read as "not quiet yet", never as an underflowed
        // huge gap that ends the wait instantly.
        const Duration quiet = now > last_progress ? now - last_progress : 0;
        return last_seen > 0 && quiet > config_.broadcast_quiet_window;
      },
      config_.broadcast_timeout);
  return recorder_.result(msg_id);
}

void TcpBackend::set_fanout(std::size_t fanout) {
  config_.fanout = fanout;
  for (auto& node : nodes_) node.runtime->gossip().set_fanout(fanout);
}

std::size_t TcpBackend::index_of(const NodeId& id) const {
  const std::size_t* slot = index_by_id_.find(id.raw());
  return slot == nullptr ? kNpos : *slot;
}

std::size_t TcpBackend::peer_slot(const NodeId& peer) const {
  const std::size_t j = index_of(peer);
  return j == kNpos ? kNoPeer : j;
}

bool TcpBackend::alive(std::size_t i) const {
  HPV_CHECK(i < nodes_.size());
  return nodes_[i].alive;
}

NodeId TcpBackend::id_of(std::size_t i) const {
  HPV_CHECK(i < nodes_.size());
  return nodes_[i].transport->local_id();
}

membership::Protocol& TcpBackend::protocol(std::size_t i) {
  HPV_CHECK(i < nodes_.size());
  return nodes_[i].runtime->protocol();
}

const membership::Protocol& TcpBackend::protocol(std::size_t i) const {
  HPV_CHECK(i < nodes_.size());
  return nodes_[i].runtime->protocol();
}

gossip::NodeRuntime& TcpBackend::runtime(std::size_t i) {
  HPV_CHECK(i < nodes_.size());
  return *nodes_[i].runtime;
}

net::TcpTransport& TcpBackend::transport(std::size_t i) {
  HPV_CHECK(i < nodes_.size());
  return *nodes_[i].transport;
}

}  // namespace hyparview::harness
