#include "hyparview/harness/tcp_backend.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/logging.hpp"
#include "hyparview/harness/stats_export.hpp"

namespace hyparview::harness {

TcpBackendConfig TcpBackendConfig::defaults_for(ProtocolKind kind,
                                                std::size_t nodes,
                                                std::uint64_t seed) {
  TcpBackendConfig cfg;
  static_cast<ClusterConfig&>(cfg) =
      ClusterConfig::defaults_for(kind, nodes, seed);
  return cfg;
}

void TcpBackend::CountingObserver::on_deliver(const NodeId& node,
                                              std::uint64_t msg_id,
                                              std::uint16_t hops) {
  ++owner_.frames_observed_;
  owner_.recorder().on_deliver(node, msg_id, hops);
}

void TcpBackend::CountingObserver::on_duplicate(const NodeId& node,
                                                std::uint64_t msg_id) {
  ++owner_.frames_observed_;
  owner_.recorder().on_duplicate(node, msg_id);
}

TcpBackend::TcpBackend(TcpBackendConfig config)
    : Backend(config, /*real_addresses=*/true),
      config_(std::move(config)),
      master_rng_(derive_seed(config_.seed, 0x7c9'0000ull)),
      observer_(*this) {
  // Latency metrics read the event loop's monotonic clock — real
  // publish-to-last-delivery times over loopback sockets.
  recorder().set_time_source([this] { return loop_.now(); });
}

TcpBackend::~TcpBackend() {
  for (auto& node : nodes_) {
    if (node.transport) node.transport->shutdown();
  }
}

void TcpBackend::drain(const char* what, const std::function<bool()>& done) {
  if (!loop_.run_until_quiescent(config_.broadcast_timeout, done)) {
    HPV_LOG_WARN("tcp backend: %s still busy at broadcast_timeout (%lld ms)",
                 what,
                 static_cast<long long>(config_.broadcast_timeout / 1000));
  }
}

std::unique_ptr<gossip::NodeRuntime> TcpBackend::spawn_node(
    std::size_t index) {
  net::TcpTransportConfig tcfg = config_.transport;
  tcfg.rng_seed = derive_seed(config_.seed, index + 1);
  TcpNode node;
  node.transport =
      std::make_unique<net::TcpTransport>(loop_, nullptr, tcfg);
  auto runtime =
      make_runtime(*node.transport, index, config_.hyparview, observer_);
  node.transport->set_endpoint(runtime.get());
  // Overwriting insert: the kernel may hand a dead node's ephemeral port to
  // a later listener, and over TCP the address IS the identity — a view
  // entry naming a reused address reaches whoever owns it now, so the index
  // must map to the current owner, not the corpse.
  index_by_id_.insert(node.transport->local_id().raw(), index);
  nodes_.push_back(std::move(node));
  ++alive_count_;
  return runtime;
}

void TcpBackend::build() {
  HPV_CHECK(!built());
  if (config_.stats_port >= 0) {
    stats_ = std::make_unique<StatsExporter>(*this, config_.stats_port);
  }
  Backend::build();
}

void TcpBackend::kill_node(std::size_t i) {
  HPV_CHECK(i < nodes_.size());
  if (!nodes_[i].alive) return;
  nodes_[i].transport->shutdown();
  nodes_[i].alive = false;
  --alive_count_;
}

void TcpBackend::read_substrate_counters(Counters& out) const {
  static_assert(net::TransportStats::kWireTypes == Counters::kWireTypes);
  for (const TcpNode& node : nodes_) {
    const net::TransportStats& st = node.transport->stats();
    out.frames_sent += st.frames_sent;
    out.bytes_sent += st.bytes_sent;
    out.send_failures += st.send_failures;
    out.connections_opened += st.dials;
    for (std::size_t t = 0; t < Counters::kWireTypes; ++t) {
      out.frames_by_type[t] += st.frames_by_type[t];
      out.bytes_by_type[t] += st.bytes_by_type[t];
    }
  }
}

void TcpBackend::run_cycles(std::size_t n) {
  cycle_order_.resize(nodes_.size());
  std::iota(cycle_order_.begin(), cycle_order_.end(), 0);
  for (std::size_t round = 0; round < n; ++round) {
    master_rng_.shuffle(cycle_order_);
    for (const std::size_t i : cycle_order_) {
      if (!nodes_[i].alive) continue;
      protocol(i).on_cycle();
    }
    loop_.run_until_quiescent(config_.cycle_settle);
  }
}

void TcpBackend::settle_broadcasts(std::span<const std::uint64_t> ids) {
  if (ids.empty()) {
    settle();
    return;
  }
  drain("settle_broadcasts", [&] {
    return std::all_of(ids.begin(), ids.end(), [&](std::uint64_t id) {
      const analysis::MessageResult& r = recorder().result(id);
      return r.delivered >= r.alive_nodes;
    });
  });
}

std::size_t TcpBackend::peer_slot(const NodeId& peer) const {
  const std::size_t* slot = index_by_id_.find(peer.raw());
  return slot == nullptr ? kNoPeer : *slot;
}

bool TcpBackend::alive(std::size_t i) const {
  HPV_CHECK(i < nodes_.size());
  return nodes_[i].alive;
}

NodeId TcpBackend::id_of(std::size_t i) const {
  HPV_CHECK(i < nodes_.size());
  return nodes_[i].transport->local_id();
}

net::TcpTransport& TcpBackend::transport(std::size_t i) {
  HPV_CHECK(i < nodes_.size());
  return *nodes_[i].transport;
}

}  // namespace hyparview::harness
