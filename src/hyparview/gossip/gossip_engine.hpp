// Gossip broadcast engine (the dissemination protocol measured in §5).
//
// A node forwards a message when it receives it for the first time — there is
// no a priori bound on the number of gossip rounds, exactly as in the paper's
// PeerSim broadcast protocol. Target selection is delegated to the membership
// protocol:
//
//  * kFlood            — deterministic flood of the active view (HyParView);
//                        transport failures feed back into the membership
//                        protocol (TCP as failure detector).
//  * kRandomFanout     — `fanout` random view members (Cyclon/Scamp over an
//                        unreliable channel): delivery failures are invisible
//                        to the membership layer.
//  * kRandomFanoutAcked— like kRandomFanout but per-hop acknowledgements let
//                        the sender purge dead targets (CyclonAcked).
#pragma once

#include <cstdint>

#include "hyparview/common/node_id.hpp"
#include "hyparview/gossip/broadcast_engine.hpp"
#include "hyparview/gossip/dedup_window.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/membership/protocol.hpp"

namespace hyparview::gossip {

class GossipEngine final : public BroadcastEngine {
 public:
  GossipEngine(membership::Env& env, membership::Protocol& protocol,
               GossipConfig config, DeliveryObserver* observer);

  /// Starts a broadcast at this node (delivers locally with hops = 0).
  void broadcast(std::uint64_t msg_id) override;

  /// Incoming gossip frame.
  void handle_gossip(const NodeId& from, const wire::Gossip& msg);

  /// A gossip frame we sent to `to` bounced (peer crashed).
  void on_send_failed(const NodeId& to, const wire::Gossip& msg);

  // --- BroadcastEngine frame dispatch ----------------------------------------
  [[nodiscard]] bool handle(const NodeId& from,
                            const wire::Message& msg) override;
  [[nodiscard]] bool handle_send_failed(const NodeId& to,
                                        const wire::Message& msg) override;

  [[nodiscard]] std::uint64_t duplicates_received() const override {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t messages_forwarded() const override {
    return forwarded_;
  }
  [[nodiscard]] std::uint64_t payload_bytes_sent() const override {
    return payload_bytes_;
  }
  [[nodiscard]] std::uint64_t control_bytes_sent() const override {
    return control_bytes_;
  }
  [[nodiscard]] std::size_t history_bytes() const override {
    return seen_.storage_bytes();
  }

  /// Adjusts the gossip fanout at runtime (Figure 1 sweeps fanouts over one
  /// stabilized overlay). Ignored by kFlood.
  void set_fanout(std::size_t fanout) override { config_.fanout = fanout; }
  [[nodiscard]] std::size_t fanout() const override { return config_.fanout; }

  [[nodiscard]] const char* engine_name() const override { return "eager"; }

  /// Drops the dedup history (between harness experiments).
  void reset() override;

 private:
  void deliver_and_forward(const wire::Gossip& msg, const NodeId& exclude);
  void forward(const wire::Gossip& msg, const NodeId& exclude);
  [[nodiscard]] bool remember(std::uint64_t msg_id);

  membership::Env& env_;
  membership::Protocol& protocol_;
  GossipConfig config_;
  DeliveryObserver* observer_;

  /// Duplicate suppression: fixed-capacity ring + probe table, zero
  /// steady-state allocation (see dedup_window.hpp).
  DedupWindow<> seen_;
  /// Reused target buffer for forward()'s send loop. Invariant: nothing
  /// reachable from env_.send() may touch targets_scratch_ or re-enter
  /// forward(). Deliveries are asynchronous on both backends, but
  /// TcpTransport::send can invoke send_failed *synchronously* on a dial
  /// failure — on_send_failed is safe because it never calls forward() and
  /// its reroute path uses the separate reroute_scratch_ buffer. Keep it
  /// that way.
  std::vector<NodeId> targets_scratch_;
  /// Reused candidate buffer for on_send_failed's reroute path. Separate
  /// from targets_scratch_ because a synchronous transport failure can
  /// land while forward() is still iterating its buffer.
  std::vector<NodeId> reroute_scratch_;
  std::uint64_t duplicates_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t control_bytes_ = 0;
};

}  // namespace hyparview::gossip
