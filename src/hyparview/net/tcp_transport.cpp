#include "hyparview/net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/binary.hpp"
#include "hyparview/common/logging.hpp"

namespace hyparview::net {
namespace {

constexpr std::size_t kLenPrefixBytes = 4;

// POSIX allows EAGAIN and EWOULDBLOCK to be distinct errno values; Linux
// makes them equal, which trips -Wlogical-op / misc-redundant-expression
// on the naive `e == EAGAIN || e == EWOULDBLOCK`. Branch at preprocessing
// time instead so both platforms compile the minimal, warning-free test.
constexpr bool err_would_block(int e) {
#if EAGAIN == EWOULDBLOCK
  return e == EAGAIN;
#else
  return e == EAGAIN || e == EWOULDBLOCK;
#endif
}

Fd make_tcp_socket() {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  HPV_CHECK_THROW(fd.valid(), "socket() failed");
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

sockaddr_in make_addr(std::uint32_t ip, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ip);
  addr.sin_port = htons(port);
  return addr;
}

/// Reads a frame's little-endian length prefix.
std::uint32_t frame_length(const std::uint8_t* prefix) {
  return static_cast<std::uint32_t>(prefix[0]) |
         (static_cast<std::uint32_t>(prefix[1]) << 8) |
         (static_cast<std::uint32_t>(prefix[2]) << 16) |
         (static_cast<std::uint32_t>(prefix[3]) << 24);
}

/// Size of the frame starting at `at` in a buffer of whole frames.
std::size_t frame_size(const std::vector<std::uint8_t>& buf, std::size_t at) {
  return kLenPrefixBytes + frame_length(buf.data() + at);
}

/// Read buffer sizing: the first read gets kReadStartBytes, and the buffer
/// doubles whenever less than kMinReadSpace is free behind the unread bytes.
constexpr std::size_t kReadStartBytes = 4 * 1024;
constexpr std::size_t kMinReadSpace = 1024;

/// A drained output buffer keeps up to this much capacity, so steady
/// traffic allocates nothing; what a backlog grew past it is given back.
constexpr std::size_t kKeptOutputBytes = 64 * 1024;

}  // namespace

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

class TcpTransport::Listener final : public IoHandler {
 public:
  Listener(TcpTransport* transport, std::uint32_t ip, std::uint16_t port)
      : transport_(transport) {
    fd_ = make_tcp_socket();
    const int one = 1;
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = make_addr(ip, port);
    HPV_CHECK_THROW(
        ::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
        "bind() failed");
    HPV_CHECK_THROW(::listen(fd_.get(), 128) == 0, "listen() failed");
    socklen_t len = sizeof(addr);
    HPV_CHECK(::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0);
    bound_port_ = ntohs(addr.sin_port);
    transport_->loop_.register_fd(fd_.get(), this, /*read=*/true,
                                  /*write=*/false);
  }

  ~Listener() override { close(); }

  void close() {
    if (fd_.valid()) {
      transport_->loop_.unregister_fd(fd_.get());
      fd_.reset();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  void on_readable() override;
  void on_writable() override {}

 private:
  TcpTransport* transport_;
  Fd fd_;
  std::uint16_t bound_port_ = 0;
};

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

class TcpTransport::Connection final : public IoHandler {
 public:
  enum class State : std::uint8_t {
    kConnecting,   ///< outbound dial in progress
    kEstablished,  ///< traffic flows (peer known for outbound; inbound waits
                   ///< for HELLO before delivering)
    kClosed,
  };

  /// Outbound constructor: dials `peer`.
  Connection(TcpTransport* transport, const NodeId& peer)
      : transport_(transport), peer_(peer) {
    fd_ = make_tcp_socket();
    sockaddr_in addr = make_addr(peer.ip, peer.port);
    const int rc =
        ::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) {
      state_ = State::kEstablished;
      transport_->loop_.register_fd(fd_.get(), this, true, false);
    } else if (errno == EINPROGRESS) {
      state_ = State::kConnecting;
      want_write_ = true;  // the dial completes as writable
      transport_->loop_.register_fd(fd_.get(), this, true, true);
    } else {
      state_ = State::kClosed;
      return;
    }
    queue_frame(wire::Hello{transport_->local_id()});
  }

  /// Inbound constructor: accepted socket, peer unknown until HELLO.
  Connection(TcpTransport* transport, Fd fd)
      : transport_(transport), peer_(kNoNode), fd_(std::move(fd)) {
    state_ = State::kEstablished;
    const int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    transport_->loop_.register_fd(fd_.get(), this, true, false);
    queue_frame(wire::Hello{transport_->local_id()});
  }

  ~Connection() override { detach(); }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const NodeId& peer() const { return peer_; }
  [[nodiscard]] bool identified() const { return peer_ != kNoNode; }
  /// True when queued frames wait for the next flush pass.
  [[nodiscard]] bool flush_due() const {
    return state_ == State::kEstablished && !want_write_ &&
           out_sent_ < out_.size();
  }

  /// No dial in progress and no unsent byte in the output buffer.
  [[nodiscard]] bool user_space_idle() const {
    return state_ != State::kConnecting && out_sent_ == out_.size();
  }

  void add_connect_callback(membership::ConnectCallback cb) {
    connect_callbacks_.push_back(std::move(cb));
  }

  /// Encodes the frame into the output buffer; the flush pass sends it. A
  /// frame that would grow the buffer past kMaxOutputBytes fails the
  /// connection instead.
  void send_message(const wire::Message& msg) {
    if (state_ == State::kClosed) {
      transport_->report_send_failed(peer_, msg);
      return;
    }
    const std::size_t frame_bytes = kLenPrefixBytes + wire::encoded_size(msg);
    if (out_.size() + frame_bytes > kMaxOutputBytes) {
      HPV_LOG_WARN("tcp %s: %zu bytes buffered for %s; closing",
                   transport_->local_id().to_string().c_str(), out_.size(),
                   peer_.to_string().c_str());
      ++transport_->stats_.output_overflows;
      close_now(/*notify=*/true, &msg);
      return;
    }
    queue_frame(msg, frame_bytes);
    if (flush_due()) transport_->mark_dirty(this);
  }

  /// Shutdown teardown: drop everything silently — no callbacks, no
  /// endpoint notifications, no transport bookkeeping. The owning transport
  /// (and possibly the endpoint) are being destroyed.
  void abandon() {
    expected_close_ = true;
    transport_->loop_.cancel(reaper_);
    dirty_ = false;
    connect_callbacks_.clear();
    out_.clear();
    out_sent_ = 0;
    if (state_ != State::kClosed) {
      state_ = State::kClosed;
      detach();
    }
  }

  /// Graceful close: flush pending frames (waiting out an in-progress dial
  /// if needed), then close without notifying.
  void close_graceful() {
    expected_close_ = true;
    if (state_ != State::kEstablished && state_ != State::kConnecting) {
      close_now(/*notify=*/false);
      return;
    }
    closing_after_flush_ = true;
    // An empty buffer half-closes at once; kConnecting: on_writable()
    // completes the dial and flushes, then closing_after_flush_ triggers
    // the half-close.
    flush();
  }

  /// `unqueued`: a frame that never entered the buffer, reported after the
  /// buffered ones.
  void close_now(bool notify, const wire::Message* unqueued = nullptr) {
    if (state_ == State::kClosed) return;
    HPV_LOG_DEBUG("tcp %s: close conn to %s (notify=%d fd %d)",
                  transport_->local_id().to_string().c_str(),
                  peer_.to_string().c_str(), notify ? 1 : 0, fd_.get());
    state_ = State::kClosed;
    transport_->loop_.cancel(reaper_);
    detach();
    // Fail any connect waiters.
    auto cbs = std::move(connect_callbacks_);
    connect_callbacks_.clear();
    for (auto& cb : cbs) cb(false);
    transport_->on_closed(this);
    // Taken before any upcall: the endpoint may send again, and a frame
    // for this peer must then dial afresh, not land in this buffer.
    std::vector<std::uint8_t> out = std::move(out_);
    const std::size_t sent = out_sent_;
    out_.clear();
    out_sent_ = 0;
    const bool failed = notify && !expected_close_;
    if (failed) {
      // Report undelivered frames so the failure detector semantics match
      // the simulator (send_failed per queued message). A frame the kernel
      // took only part of never arrives whole, so it is reported too.
      for (std::size_t at = 0; at < out.size();) {
        const std::size_t end = at + frame_size(out, at);
        if (end > sent) {
          transport_->report_send_failed(
              peer_, wire::decode_bytes({out.data() + at + kLenPrefixBytes,
                                         end - at - kLenPrefixBytes}));
        }
        at = end;
      }
    }
    if (unqueued != nullptr) transport_->report_send_failed(peer_, *unqueued);
    if (failed && identified()) transport_->report_link_closed(peer_);
    transport_->remove_connection(this);
    // `this` is destroyed here.
  }

  void on_readable() override {
    if (state_ == State::kConnecting) {
      on_writable();
      if (state_ != State::kEstablished) return;
    }
    while (true) {
      if (in_.size() - in_end_ < kMinReadSpace) {
        in_.resize(std::max(kReadStartBytes, 2 * in_.size()));
      }
      const std::size_t space = in_.size() - in_end_;
      const ssize_t n = ::read(fd_.get(), in_.data() + in_end_, space);
      if (n > 0) {
        transport_->stats_.bytes_received += static_cast<std::uint64_t>(n);
        // Half-closed: the bytes stay past in_end_, discarded, until the
        // peer's EOF.
        if (!draining_) {
          in_end_ += static_cast<std::size_t>(n);
          if (!parse_frames()) return;  // fatal decode error closed us
        }
        // A short read emptied the socket; the level-triggered loop
        // reports any bytes that arrive later.
        if (static_cast<std::size_t>(n) < space) return;
        continue;
      }
      if (n == 0) {
        // Peer EOF. After our own graceful half-close this is the expected
        // handshake completion; otherwise it is a failure signal.
        close_now(/*notify=*/!draining_);
        return;
      }
      if (err_would_block(errno)) return;
      if (errno == EINTR) continue;
      close_now(/*notify=*/!draining_);
      return;
    }
  }

  void on_writable() override {
    if (state_ == State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        close_now(/*notify=*/true);
        return;
      }
      state_ = State::kEstablished;
      HPV_LOG_DEBUG("tcp %s: dial to %s completed (fd %d)",
                    transport_->local_id().to_string().c_str(),
                    peer_.to_string().c_str(), fd_.get());
      auto cbs = std::move(connect_callbacks_);
      connect_callbacks_.clear();
      for (auto& cb : cbs) cb(true);
    }
    // The HELLO queued at the dial, the frames queued while it was in
    // flight, and any the callbacks just sent go out together.
    flush();
  }

  void on_io_error() override { close_now(/*notify=*/true); }

 private:
  /// Hands the unsent bytes to the kernel in one send() (more only when it
  /// takes a part and more fits); on EAGAIN the rest waits for EPOLLOUT.
  void flush() {
    if (state_ != State::kEstablished) return;
    while (out_sent_ < out_.size()) {
      // MSG_NOSIGNAL: a peer that crashed mid-stream RSTs the connection;
      // the write must surface EPIPE to the close_now path below, not
      // raise SIGPIPE and kill the process (sustained pub/sub streams
      // write into dying sockets routinely during churn).
      const ssize_t n = ::send(fd_.get(), out_.data() + out_sent_,
                               out_.size() - out_sent_, MSG_NOSIGNAL);
      ++transport_->stats_.send_calls;
      HPV_LOG_DEBUG("tcp %s: write %zd/%zu to %s (fd %d, errno %d)",
                    transport_->local_id().to_string().c_str(), n,
                    out_.size() - out_sent_, peer_.to_string().c_str(),
                    fd_.get(), n < 0 ? errno : 0);
      if (n < 0) {
        if (err_would_block(errno)) {
          drop_sent_frames();
          want_write(true);
          return;
        }
        if (errno == EINTR) continue;
        close_now(/*notify=*/true);
        return;
      }
      transport_->stats_.bytes_sent += static_cast<std::uint64_t>(n);
      out_sent_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    if (out_.capacity() > kKeptOutputBytes) {
      std::vector<std::uint8_t>().swap(out_);
    }
    out_sent_ = 0;
    want_write(false);
    if (closing_after_flush_) half_close();
  }

  void detach() {
    if (fd_.valid()) {
      transport_->loop_.unregister_fd(fd_.get());
      fd_.reset();
    }
  }

  /// Appends one length-prefixed frame to the output buffer.
  void queue_frame(const wire::Message& msg) {
    queue_frame(msg, kLenPrefixBytes + wire::encoded_size(msg));
  }
  void queue_frame(const wire::Message& msg, std::size_t frame_bytes) {
    const auto len = static_cast<std::uint32_t>(frame_bytes - kLenPrefixBytes);
    BinaryWriter w(out_);
    // Little-endian length prefix, written byte-wise.
    w.u8(static_cast<std::uint8_t>(len & 0xff));
    w.u8(static_cast<std::uint8_t>((len >> 8) & 0xff));
    w.u8(static_cast<std::uint8_t>((len >> 16) & 0xff));
    w.u8(static_cast<std::uint8_t>((len >> 24) & 0xff));
    wire::encode(msg, w);
    TransportStats& st = transport_->stats_;
    const std::uint8_t tag = wire::type_tag(msg);
    ++st.frames_sent;
    ++st.frames_by_type[tag];
    st.bytes_by_type[tag] += frame_bytes;
    st.peak_output_bytes =
        std::max<std::uint64_t>(st.peak_output_bytes, out_.size());
  }

  /// After a partial send: once the sent prefix passes half the buffer,
  /// erase its whole frames, so the buffer keeps starting on a frame
  /// boundary (close_now decodes from there) and, when the cap is reached,
  /// at least about half of it is unsent.
  void drop_sent_frames() {
    if (out_sent_ <= out_.size() / 2) return;
    std::size_t boundary = 0;
    while (boundary + frame_size(out_, boundary) <= out_sent_) {
      boundary += frame_size(out_, boundary);
    }
    out_.erase(out_.begin(),
               out_.begin() + static_cast<std::ptrdiff_t>(boundary));
    out_sent_ -= boundary;
  }

  /// EPOLLOUT is armed only while the kernel refuses bytes.
  void want_write(bool on) {
    if (want_write_ == on) return;
    want_write_ = on;
    transport_->loop_.update_fd(fd_.get(), true, on);
  }

  /// Graceful TCP termination: send FIN but keep reading (and discarding)
  /// until the peer closes too. Closing outright with unread inbound data
  /// would trigger an RST that destroys our just-flushed frames in the
  /// peer's receive queue.
  void half_close() {
    if (draining_ || state_ != State::kEstablished) return;
    draining_ = true;
    ::shutdown(fd_.get(), SHUT_WR);
    // Reap the connection even if the peer never closes its side. Every
    // close cancels the reaper: it must not fire on a deleted connection,
    // and a live one would hold every quiescence drain until it fires.
    reaper_ = transport_->loop_.schedule(kDrainTimeout, [this] {
      close_now(/*notify=*/false);
    });
  }

  /// Dispatches every whole frame in the read buffer. Returns false if the
  /// connection was closed (malformed frame, or by the endpoint).
  bool parse_frames() {
    while (in_end_ - in_head_ >= kLenPrefixBytes) {
      const std::uint8_t* base = in_.data() + in_head_;
      const std::uint32_t len = frame_length(base);
      if (len > transport_->config_.max_frame_bytes) {
        HPV_LOG_WARN("tcp: oversized frame (%u bytes) from %s; closing", len,
                     peer_.to_string().c_str());
        ++transport_->stats_.oversized_frames;
        ++transport_->stats_.malformed_frames;
        close_now(/*notify=*/true);
        return false;
      }
      if (in_end_ - in_head_ - kLenPrefixBytes < len) break;
      try {
        const wire::Message msg = wire::decode_bytes(
            {base + kLenPrefixBytes, static_cast<std::size_t>(len)});
        in_head_ += kLenPrefixBytes + len;
        ++transport_->stats_.frames_received;
        handle_frame(msg);
        if (state_ == State::kClosed) return false;
      } catch (const CheckError& err) {
        HPV_LOG_WARN("tcp: malformed frame from %s: %s",
                     peer_.to_string().c_str(), err.what());
        ++transport_->stats_.malformed_frames;
        close_now(/*notify=*/true);
        return false;
      }
    }
    // Consume by offset; move the partial frame to the front only once the
    // consumed prefix passes half the buffer.
    if (in_head_ == in_end_) {
      in_head_ = in_end_ = 0;
    } else if (in_head_ > in_.size() / 2) {
      std::memmove(in_.data(), in_.data() + in_head_, in_end_ - in_head_);
      in_end_ -= in_head_;
      in_head_ = 0;
    }
    return true;
  }

  void handle_frame(const wire::Message& msg) {
    if (const auto* hello = std::get_if<wire::Hello>(&msg)) {
      if (!identified()) {
        peer_ = hello->node_id;
        transport_->on_identified(this);
      }
      return;
    }
    if (!identified()) {
      HPV_LOG_WARN("tcp: frame before HELLO; closing");
      ++transport_->stats_.frames_before_hello;
      close_now(/*notify=*/false);
      return;
    }
    transport_->on_frame(this, msg);
  }

  static constexpr Duration kDrainTimeout = seconds(5);

  TcpTransport* transport_;
  NodeId peer_;
  Fd fd_;
  State state_ = State::kClosed;
  bool expected_close_ = false;
  bool closing_after_flush_ = false;
  bool draining_ = false;
  bool want_write_ = false;  ///< EPOLLOUT armed
  bool dirty_ = false;       ///< on the transport's flush list
  /// Queued frames, whole, from a frame boundary; the first out_sent_
  /// bytes are already in the kernel.
  std::vector<std::uint8_t> out_;
  std::size_t out_sent_ = 0;
  /// Received bytes: [in_head_, in_end_) is not yet parsed.
  std::vector<std::uint8_t> in_;
  std::size_t in_head_ = 0;
  std::size_t in_end_ = 0;
  std::vector<membership::ConnectCallback> connect_callbacks_;
  /// The half-close reaper timer (0: none scheduled).
  std::uint64_t reaper_ = 0;

  friend class TcpTransport;
};

void TcpTransport::Listener::on_readable() {
  while (true) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd = ::accept4(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                             &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (err_would_block(errno)) return;
      if (errno == EINTR) continue;
      HPV_LOG_WARN("tcp: accept failed: errno=%d", errno);
      return;
    }
    HPV_LOG_DEBUG("tcp %s: accepted fd %d",
                  transport_->local_id().to_string().c_str(), fd);
    transport_->adopt_inbound(
        std::make_unique<Connection>(transport_, Fd(fd)));
  }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(EventLoop& loop, membership::Endpoint* endpoint,
                           TcpTransportConfig config)
    : loop_(loop),
      endpoint_(endpoint),
      config_(config),
      rng_(config.rng_seed) {
  listener_ = std::make_unique<Listener>(this, config_.bind_ip,
                                         config_.bind_port);
  local_id_ = NodeId{config_.bind_ip, listener_->port()};
  loop_.add_pre_poll(this);
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  loop_.remove_pre_poll(this);
  dirty_.clear();
  if (listener_ != nullptr) listener_->close();
  // Steal the list first so nothing re-enters connections_ while we drop
  // every connection without callbacks (the endpoint may already be gone).
  std::vector<std::unique_ptr<Connection>> doomed;
  doomed.swap(connections_);
  for (auto& conn : doomed) conn->abandon();
  by_peer_.clear();
}

std::size_t TcpTransport::connection_count() const {
  return connections_.size();
}

TcpTransport::Connection* TcpTransport::find_connection(const NodeId& peer) {
  const auto it = by_peer_.find(peer.raw());
  return it == by_peer_.end() ? nullptr : it->second;
}

TcpTransport::Connection* TcpTransport::dial(const NodeId& peer) {
  ++stats_.dials;
  auto owned = std::make_unique<Connection>(this, peer);
  Connection* conn = owned.get();
  if (conn->state() == Connection::State::kClosed) {
    return nullptr;  // immediate dial failure (no route etc.)
  }
  connections_.push_back(std::move(owned));
  by_peer_[peer.raw()] = conn;
  if (conn->flush_due()) mark_dirty(conn);  // the HELLO
  return conn;
}

void TcpTransport::adopt_inbound(std::unique_ptr<Connection> conn) {
  // Drop connections that died in their constructor (instant write error)
  // and anything accepted mid-shutdown.
  if (shutdown_ || conn->state() == Connection::State::kClosed) return;
  mark_dirty(conn.get());  // the HELLO
  connections_.push_back(std::move(conn));
}

void TcpTransport::send(const NodeId& to, wire::Message msg) {
  HPV_CHECK(to != local_id_);
  if (shutdown_) return;
  Connection* conn = find_connection(to);
  if (conn == nullptr) {
    conn = dial(to);
    if (conn == nullptr) {
      report_send_failed(to, msg);
      return;
    }
  }
  conn->send_message(msg);
}

void TcpTransport::connect(const NodeId& to, membership::ConnectCallback cb) {
  if (shutdown_) return;
  Connection* conn = find_connection(to);
  if (conn == nullptr) conn = dial(to);
  if (conn == nullptr) {
    loop_.schedule(0, [cb = std::move(cb)]() mutable { cb(false); });
    return;
  }
  if (conn->state() == Connection::State::kEstablished) {
    loop_.schedule(0, [cb = std::move(cb)]() mutable { cb(true); });
    return;
  }
  conn->add_connect_callback(std::move(cb));
}

void TcpTransport::disconnect(const NodeId& to) {
  Connection* conn = find_connection(to);
  if (conn == nullptr) return;
  by_peer_.erase(to.raw());
  conn->close_graceful();
}

void TcpTransport::schedule(Duration delay, membership::TaskCallback fn) {
  loop_.schedule(delay, std::move(fn));
}

void TcpTransport::on_identified(Connection* conn) {
  // Keep the first mapping if we already have a live connection (e.g. both
  // sides dialed simultaneously); the extra connection still delivers reads.
  const auto key = conn->peer().raw();
  if (!by_peer_.contains(key)) by_peer_[key] = conn;
}

void TcpTransport::on_frame(Connection* conn, const wire::Message& msg) {
  if (endpoint_ != nullptr) endpoint_->deliver(conn->peer(), msg);
}

void TcpTransport::on_closed(Connection* conn) {
  const auto it = by_peer_.find(conn->peer().raw());
  if (it != by_peer_.end() && it->second == conn) by_peer_.erase(it);
}

void TcpTransport::report_send_failed(const NodeId& to,
                                      const wire::Message& msg) {
  if (std::holds_alternative<wire::Hello>(msg)) return;
  ++stats_.send_failures;
  if (endpoint_ != nullptr) endpoint_->send_failed(to, msg);
}

void TcpTransport::report_link_closed(const NodeId& peer) {
  if (endpoint_ != nullptr) endpoint_->link_closed(peer);
}

void TcpTransport::mark_dirty(Connection* conn) {
  if (conn->dirty_) return;
  conn->dirty_ = true;
  dirty_.push_back(conn);
}

void TcpTransport::before_poll() {
  // Index loop: a flush that fails reports upcalls, which may queue frames
  // on other connections; those join this pass.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    Connection* conn = dirty_[i];
    if (conn == nullptr) continue;
    conn->dirty_ = false;
    conn->flush();
  }
  dirty_.clear();
}

bool TcpTransport::idle() const {
  for (const auto& conn : connections_) {
    if (!conn->user_space_idle()) return false;
  }
  // The ioctl pass runs only once every connection passed the cheap test.
  int unsent = 0;
  for (const auto& conn : connections_) {
    if (::ioctl(conn->fd_.get(), SIOCOUTQNSD, &unsent) == 0 && unsent > 0) {
      return false;
    }
  }
  return true;
}

void TcpTransport::remove_connection(Connection* conn) {
  if (conn->dirty_) {
    conn->dirty_ = false;
    std::replace(dirty_.begin(), dirty_.end(), conn,
                 static_cast<Connection*>(nullptr));
  }
  for (std::size_t i = 0; i < connections_.size(); ++i) {
    if (connections_[i].get() == conn) {
      // Deleting `conn` inside one of its own callbacks is unsafe; defer.
      auto owned = std::move(connections_[i]);
      connections_[i] = std::move(connections_.back());
      connections_.pop_back();
      loop_.schedule(0, [owned = std::shared_ptr<Connection>(
                             owned.release())]() mutable { owned.reset(); });
      return;
    }
  }
}

}  // namespace hyparview::net
