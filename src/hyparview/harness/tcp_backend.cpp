#include "hyparview/harness/tcp_backend.hpp"

#include <numeric>
#include <utility>

#include "hyparview/common/assert.hpp"
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

void TcpBackend::wait(Duration d) {
  loop_.run_until([] { return false; }, d);
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
    wait(config_.cycle_settle);
  }
}

void TcpBackend::settle_broadcasts(std::span<const std::uint64_t> ids) {
  if (ids.empty()) {
    settle();
    return;
  }
  // Done when every id reached its own registered alive population — or
  // when the batch went quiet (no new deliveries/duplicates for a window):
  // after failures, protocols without a failure detector legitimately stall
  // below full delivery, and waiting the whole timeout per probe would turn
  // a partial-delivery measurement into minutes of dead air. "Progress" is
  // the combined delivered+duplicate count over the batch, so one still-
  // flooding message keeps the whole window open.
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
        bool all_done = true;
        std::uint64_t seen = 0;
        for (const std::uint64_t id : ids) {
          const analysis::MessageResult& r = recorder().result(id);
          if (r.delivered < r.alive_nodes) all_done = false;
          seen += static_cast<std::uint64_t>(r.delivered) + r.duplicates;
        }
        if (all_done) return true;
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
