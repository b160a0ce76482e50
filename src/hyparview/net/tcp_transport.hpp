// TCP transport: the membership::Env implementation over real sockets.
//
// Realizes the deployment model the paper assumes (§4):
//  * one persistent connection per active-view neighbor, dialed on demand
//    and kept open (connection cache);
//  * length-prefixed binary frames (wire::encode); the first frame on every
//    connection is a HELLO carrying the dialer's listening address, since
//    inbound ephemeral ports do not identify nodes;
//  * write/connect errors surface as Endpoint::send_failed — TCP is the
//    failure detector;
//  * disconnect() flushes pending frames and then closes (so a DISCONNECT
//    notification sent immediately before is not lost).
//
// When frames reach the kernel: send() encodes the frame straight into
// its connection's output buffer and returns. Every frame a connection
// gathers during one loop iteration goes out in one send() call, made by
// the transport's pre-poll hook just before the loop blocks in epoll_wait,
// and once more before EventLoop::run_until returns, so no frame is left
// in user space when the caller gets control back. Only a send() that
// would block (EAGAIN) arms EPOLLOUT; the rest goes out when the socket
// drains, and EPOLLOUT is disarmed once the buffer is empty.
//
// How failures are reported: when a connection fails (connect refused,
// write error, reset, peer EOF), every frame not yet fully handed to the
// kernel is decoded back from the buffer and reported through
// Endpoint::send_failed exactly once, in send order (never the HELLO);
// then an identified peer gets Endpoint::link_closed. Frames sent on a
// closed connection fail at once.
//
// The output cap: a connection's output buffer never holds more than
// TcpTransport::kMaxOutputBytes (sent bytes not yet erased included). A
// frame that would grow it past the cap closes the connection as failed:
// its unsent frames and that frame report send_failed and the link reports
// link_closed, so the membership protocol repairs around a peer that
// stopped reading instead of buffering for it without limit. A peer that
// stops reading therefore costs its sender the kernel's send buffer plus
// at most kMaxOutputBytes in user space (the vector's allocation, grown by
// doubling, can reach twice that), and a buffer that drains gives back
// what a backlog grew.
//
// Quiescence (EventLoop::run_until_quiescent): idle() holds when no
// connection is dialing or holds unsent output and ioctl(SIOCOUTQNSD), the
// bytes the kernel has not yet sent, reads 0 on every socket. SIOCOUTQ
// would also count bytes the peer read but has not ACKed, and loopback
// delays ACKs by 40 ms or more; unread input shows as EPOLLIN. The test
// cannot see a segment still in the loopback backlog while the kernel
// defers its receive softirq: a drain may end that moment early.
//
// Threading: everything runs on the owning EventLoop's thread. Multiple
// transports (nodes) may share one loop, which is how the in-process
// cluster tests and the tcp_cluster example run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "hyparview/common/node_id.hpp"
#include "hyparview/common/rng.hpp"
#include "hyparview/membership/endpoint.hpp"
#include "hyparview/membership/env.hpp"
#include "hyparview/net/event_loop.hpp"
#include "hyparview/net/fd.hpp"

namespace hyparview::net {

struct TcpTransportConfig {
  /// Address to bind; port 0 picks an ephemeral port.
  std::uint32_t bind_ip = 0x7F000001;  // 127.0.0.1
  std::uint16_t bind_port = 0;
  /// Frames larger than this are rejected as malformed.
  std::uint32_t max_frame_bytes = 1u << 20;
  /// Seed for this node's Env rng.
  std::uint64_t rng_seed = 1;
};

/// Monotonic counters over the transport's life (the stats exporter derives
/// rates from deltas between polls). A malicious frame only ever costs its
/// own connection (closed and counted here) — never the loop or other
/// peers' connections (tcp_transport_test pins that).
struct TransportStats {
  static constexpr std::size_t kWireTypes = std::variant_size_v<wire::Message>;

  /// Undecodable frame bodies (CheckError from the bounded decoder).
  std::uint64_t malformed_frames = 0;
  /// Length prefixes above max_frame_bytes (also counted as malformed).
  std::uint64_t oversized_frames = 0;
  /// Non-HELLO frames on a connection that never identified itself.
  std::uint64_t frames_before_hello = 0;

  std::uint64_t frames_sent = 0;      ///< frames queued for the wire
  std::uint64_t frames_received = 0;  ///< frames decoded and dispatched
  std::uint64_t bytes_sent = 0;       ///< bytes handed to ::send
  std::uint64_t bytes_received = 0;   ///< bytes returned by ::read
  /// Frames and bytes (length prefix included) queued per wire type,
  /// indexed by wire::type_tag; HELLO is counted too.
  std::array<std::uint64_t, kWireTypes> frames_by_type{};
  std::array<std::uint64_t, kWireTypes> bytes_by_type{};
  std::uint64_t send_calls = 0;     ///< ::send system calls
  std::uint64_t send_failures = 0;  ///< frames reported through send_failed
  std::uint64_t dials = 0;          ///< outbound connection attempts
  /// Connections closed because a frame would pass kMaxOutputBytes.
  std::uint64_t output_overflows = 0;
  /// Most bytes any one connection's output buffer held.
  std::uint64_t peak_output_bytes = 0;
};

class TcpTransport final : public membership::Env, private PrePollHook {
 public:
  /// Bytes one connection's output buffer may hold (see the header
  /// comment).
  static constexpr std::size_t kMaxOutputBytes = std::size_t{4} << 20;

  /// Binds and starts listening immediately; local_id() is valid after
  /// construction. `endpoint` receives upcalls on the loop thread.
  TcpTransport(EventLoop& loop, membership::Endpoint* endpoint,
               TcpTransportConfig config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] NodeId local_id() const { return local_id_; }
  void set_endpoint(membership::Endpoint* endpoint) { endpoint_ = endpoint; }

  /// Closes the listener and every connection (no notifications emitted).
  void shutdown();

  /// Number of open (or connecting) peer connections.
  [[nodiscard]] std::size_t connection_count() const;

  /// Traffic, failure and hostile-frame counters.
  [[nodiscard]] const TransportStats& stats() const { return stats_; }

  // --- membership::Env -------------------------------------------------------
  [[nodiscard]] NodeId self() const override { return local_id_; }
  [[nodiscard]] TimePoint now() const override { return loop_.now(); }
  [[nodiscard]] Rng& rng() override { return rng_; }
  void send(const NodeId& to, wire::Message msg) override;
  void connect(const NodeId& to, membership::ConnectCallback cb) override;
  void disconnect(const NodeId& to) override;
  void schedule(Duration delay, membership::TaskCallback fn) override;

 private:
  class Listener;
  class Connection;
  friend class Connection;

  Connection* find_connection(const NodeId& peer);
  Connection* dial(const NodeId& peer);
  void adopt_inbound(std::unique_ptr<Connection> conn);

  /// Called by connections when their state changes.
  void on_identified(Connection* conn);
  void on_frame(Connection* conn, const wire::Message& msg);
  void on_closed(Connection* conn);

  void report_send_failed(const NodeId& to, const wire::Message& msg);
  void report_link_closed(const NodeId& peer);

  void remove_connection(Connection* conn);

  /// Queues `conn` for the next flush pass (once per pass).
  void mark_dirty(Connection* conn);
  /// The flush pass: one send() per connection that queued frames.
  void before_poll() override;
  /// Nothing in flight (see the header comment).
  [[nodiscard]] bool idle() const override;

  EventLoop& loop_;
  membership::Endpoint* endpoint_;
  TcpTransportConfig config_;
  NodeId local_id_;
  Rng rng_;
  TransportStats stats_;

  std::unique_ptr<Listener> listener_;
  /// Established/dialing connections keyed by peer id.
  std::unordered_map<std::uint64_t, Connection*> by_peer_;
  /// All live connections (including unidentified inbound ones).
  std::vector<std::unique_ptr<Connection>> connections_;
  /// Connections with frames to flush; a closed one leaves a nullptr.
  std::vector<Connection*> dirty_;
  bool shutdown_ = false;
};

}  // namespace hyparview::net
