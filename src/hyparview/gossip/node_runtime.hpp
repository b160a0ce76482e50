// Per-node runtime: glues a membership protocol and a broadcast engine to a
// transport endpoint. Used by both the simulator harness and the TCP host.
#pragma once

#include <memory>

#include "hyparview/gossip/broadcast_engine.hpp"
#include "hyparview/gossip/gossip_engine.hpp"
#include "hyparview/gossip/tree_broadcast_engine.hpp"
#include "hyparview/membership/endpoint.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::gossip {

class NodeRuntime final : public membership::Endpoint {
 public:
  NodeRuntime(membership::Env& env,
              std::unique_ptr<membership::Protocol> protocol,
              GossipConfig gossip_config, DeliveryObserver* observer)
      : protocol_(std::move(protocol)) {
    // Engine selection is a config knob (JSON spec `gossip.engine`), not a
    // compile-time choice: the pub/sub bench runs both engines over the
    // same membership substrate in one process.
    if (gossip_config.engine == Engine::kPlumtree) {
      engine_ = std::make_unique<TreeBroadcastEngine>(env, *protocol_,
                                                      gossip_config, observer);
    } else {
      engine_ = std::make_unique<GossipEngine>(env, *protocol_, gossip_config,
                                               observer);
    }
  }

  [[nodiscard]] membership::Protocol& protocol() { return *protocol_; }
  [[nodiscard]] const membership::Protocol& protocol() const {
    return *protocol_;
  }
  [[nodiscard]] BroadcastEngine& gossip() { return *engine_; }
  [[nodiscard]] const BroadcastEngine& gossip() const { return *engine_; }

  // --- membership::Endpoint --------------------------------------------------
  // Frames are routed by wire tag: membership traffic goes straight to the
  // protocol, and only payload-plane frames are offered to the engine. A
  // frame the engine does not speak (eager flooding receiving an IHave)
  // still falls through to the protocol.
  void deliver(const NodeId& from, const wire::Message& msg) override {
    if (wire::is_payload_plane(msg) && engine_->handle(from, msg)) return;
    protocol_->handle(from, msg);
  }

  void send_failed(const NodeId& to, const wire::Message& msg) override {
    if (wire::is_payload_plane(msg) && engine_->handle_send_failed(to, msg)) {
      return;
    }
    protocol_->on_send_failed(to, msg);
  }

  void link_closed(const NodeId& peer) override {
    engine_->on_neighbor_down(peer);
    protocol_->on_link_closed(peer);
  }

 private:
  std::unique_ptr<membership::Protocol> protocol_;
  std::unique_ptr<BroadcastEngine> engine_;
};

}  // namespace hyparview::gossip
