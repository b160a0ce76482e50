#include "hyparview/sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <variant>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/logging.hpp"

namespace hyparview::sim {

/// membership::Env implementation bound to one simulated node.
class SimEnv final : public membership::Env {
 public:
  SimEnv(Simulator* sim, std::uint32_t index, std::uint64_t seed)
      : sim_(sim), index_(index), rng_(seed) {}

  [[nodiscard]] NodeId self() const override {
    return NodeId::from_index(index_);
  }

  [[nodiscard]] TimePoint now() const override { return sim_->now(); }

  [[nodiscard]] Rng& rng() override { return rng_; }

  void send(const NodeId& to, wire::Message msg) override {
    sim_->do_send(index_, to.ip, msg);
  }

  void connect(const NodeId& to, membership::ConnectCallback cb) override {
    sim_->do_connect(index_, to.ip, std::move(cb));
  }

  void disconnect(const NodeId& to) override {
    sim_->do_disconnect(index_, to.ip);
  }

  void schedule(Duration delay, membership::TaskCallback fn) override {
    sim_->do_schedule(index_, delay, std::move(fn));
  }

 private:
  Simulator* sim_;
  std::uint32_t index_;
  Rng rng_;
};

// Every wire message — membership shuffles included — is a flat POD, so
// frames travel as plain bytes: inline in the event, or through a slab slot
// that no destructor ever runs on.
static_assert(std::is_trivially_copyable_v<wire::Message>);

namespace {

/// Rebuilds alternative I of wire::Message from an event's inline bytes.
/// Instantiated for every alternative so the table below is indexable by
/// any tag; put_message never stores a list frame inline.
template <std::size_t I>
wire::Message unpack_frame(const unsigned char* frame) {
  using T = std::variant_alternative_t<I, wire::Message>;
  T m;
  if constexpr (sizeof(T) <= kInlineFrameBytes) {
    std::memcpy(static_cast<void*>(&m), frame, sizeof(T));
  } else {
    HPV_ASSERT(false);
  }
  return wire::Message(std::in_place_index<I>, m);
}

template <std::size_t... I>
constexpr auto make_unpack_table(std::index_sequence<I...>) {
  return std::array<wire::Message (*)(const unsigned char*), sizeof...(I)>{
      &unpack_frame<I>...};
}

/// unpack_frame by wire tag.
constexpr auto kUnpackFrame = make_unpack_table(
    std::make_index_sequence<std::variant_size_v<wire::Message>>{});

// The broadcast hot path must never need a slab slot.
static_assert(sizeof(wire::Gossip) <= kInlineFrameBytes &&
              sizeof(wire::TreeGossip) <= kInlineFrameBytes &&
              sizeof(wire::IHave) <= kInlineFrameBytes &&
              sizeof(wire::Graft) <= kInlineFrameBytes);

/// Events (and payload slots) pre-reserved at construction so steady-state
/// runs never grow the queue or the payload slabs.
constexpr std::size_t kInitialEventCapacity = 4096;

/// Abort the run if a single run_until_quiescent() exceeds this many events
/// (guards against accidental self-sustaining event loops).
constexpr std::uint64_t kMaxEventsPerDrain = 2'000'000'000ull;

/// CheckError (not abort) on a bad config: the band is caller input, and an
/// inverted band would otherwise surface as a modulo-by-zero or an
/// underflowed uniform draw deep inside draw_latency.
SimConfig validated(SimConfig config) {
  HPV_CHECK_THROW(config.latency_min >= 0,
                  "SimConfig: latency_min must be >= 0");
  HPV_CHECK_THROW(config.latency_max >= config.latency_min,
                  "SimConfig: inverted latency band (latency_min > "
                  "latency_max); a zero-width band (min == max) is the way "
                  "to model fixed latency");
  return config;
}

}  // namespace

Simulator::Simulator(SimConfig config)
    : config_(validated(config)),
      master_rng_(derive_seed(config.seed, 0)),
      latency_rng_(derive_seed(config.seed, 1)),
      // The wheel year must cover the failure-detection delay too: those
      // events ride just behind the message band, and parking them in the
      // far list would make every crash wave pay the overflow sweep.
      queue_(std::max(config_.latency_max, config_.failure_detect_delay)),
      sent_by_type_(std::variant_size_v<wire::Message>, 0),
      bytes_by_type_(std::variant_size_v<wire::Message>, 0) {
  // Pre-size the hot containers once: after warm-up, pushing an event is a
  // POD store plus bucket append, never a reallocation.
  queue_.reserve(kInitialEventCapacity);
  messages_.reserve(kInitialEventCapacity);
  tasks_.reserve(64);
  connects_.reserve(64);
}

Simulator::~Simulator() = default;

NodeId Simulator::add_node(Handler* handler) {
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  SimNode node;
  node.handler = handler;
  // Stream ids 0/1 are the master/latency streams; nodes start at 2.
  node.env = std::make_unique<SimEnv>(this, index,
                                      derive_seed(config_.seed, 2 + index));
  nodes_.push_back(std::move(node));
  state_.push_back(kAlive);
  ++alive_count_;
  return NodeId::from_index(index);
}

void Simulator::set_handler(const NodeId& id, Handler* handler) {
  HPV_CHECK(id.ip < nodes_.size());
  nodes_[id.ip].handler = handler;
}

bool Simulator::alive(const NodeId& id) const {
  HPV_CHECK(id.ip < nodes_.size());
  return is_alive(id.ip);
}

void Simulator::crash(const NodeId& id) {
  HPV_CHECK(id.ip < nodes_.size());
  if (!is_alive(id.ip)) return;
  SimNode& node = nodes_[id.ip];
  state_[id.ip] = 0;
  node.inbox.clear();
  --alive_count_;
  if (config_.notify_on_crash) {
    for (const std::uint32_t peer : node.link_peers) {
      // The peer's side of the link is removed when the notification is
      // dispatched (it may be suppressed if the peer closes first).
      const std::size_t peer_side = link_slot(nodes_[peer], id.ip);
      if (peer_side == kNoLink) continue;
      Event ev;
      ev.at = now_ + config_.failure_detect_delay;
      ev.kind = EventKind::kLinkClosed;
      ev.node = peer;
      ev.peer = id.ip;
      ev.link_gen = nodes_[peer].link_data[peer_side].gen;
      push_event(ev);
    }
    node.link_peers.clear();
    node.link_data.clear();
    node.link_index.clear();
  }
  // In detect-on-send mode the links stay in peers' tables; the next send
  // over them fails, which is exactly how the paper's failure detector works.
}

void Simulator::block(const NodeId& id) {
  HPV_CHECK(id.ip < nodes_.size());
  if (is_alive(id.ip)) state_[id.ip] = kAlive | kBlocked;
}

void Simulator::unblock(const NodeId& id) {
  HPV_CHECK(id.ip < nodes_.size());
  if (!blocked(id)) return;
  SimNode& node = nodes_[id.ip];
  state_[id.ip] = kAlive;
  // Replay the backlog in arrival order (the consumer catches up): a
  // single shared delay plus the sequence-number tie break preserves it.
  std::vector<QueuedMessage> backlog;
  backlog.swap(node.inbox);
  const Duration delay = draw_latency();
  for (auto& queued : backlog) {
    Event ev;
    ev.at = now_ + delay;
    ev.node = id.ip;
    ev.peer = queued.from;
    switch (queued.kind) {
      case QueuedMessage::Kind::kDeliver:
        ev.kind = EventKind::kDeliver;
        put_message(ev, queued.msg);
        break;
      case QueuedMessage::Kind::kClose:
        ev.kind = EventKind::kLinkClosed;
        ev.replay = true;  // skip the gen/suppression check: already ran
        break;
      case QueuedMessage::Kind::kSendFailed:
        ev.kind = EventKind::kSendFailed;
        ev.replay = true;  // already counted at the original dispatch
        put_message(ev, queued.msg);
        break;
      case QueuedMessage::Kind::kConnectResult:
        ev.kind = EventKind::kConnectResult;
        ev.replay = true;  // deliver the recorded handshake outcome
        ev.ok = queued.ok;
        ev.payload = connects_.put(std::move(queued.cb));
        break;
    }
    push_event(ev);
  }
}

bool Simulator::blocked(const NodeId& id) const {
  HPV_CHECK(id.ip < nodes_.size());
  return (state_[id.ip] & kBlocked) != 0;
}

bool Simulator::drop_link(const NodeId& a, const NodeId& b) {
  HPV_CHECK(a.ip < nodes_.size() && b.ip < nodes_.size());
  // Schedule a generation-checked close for each side still open; the links
  // themselves are removed at dispatch, so racing closes and reconnections
  // resolve exactly like do_disconnect-initiated teardowns.
  bool scheduled = false;
  for (const auto& [owner, other] : {std::pair{a.ip, b.ip}, {b.ip, a.ip}}) {
    const std::size_t side = link_slot(nodes_[owner], other);
    if (side == kNoLink || !is_alive(owner)) continue;
    Event ev;
    ev.at = now_ + config_.failure_detect_delay;
    ev.kind = EventKind::kLinkClosed;
    ev.node = owner;
    ev.peer = other;
    ev.link_gen = nodes_[owner].link_data[side].gen;
    push_event(ev);
    scheduled = true;
  }
  return scheduled;
}

std::size_t Simulator::drop_random_links(double fraction) {
  HPV_CHECK(fraction >= 0.0 && fraction <= 1.0);
  // Collect every open connection once (normalized lo<hi key; sides can be
  // asymmetric after detect-on-send crashes), sorted for determinism.
  std::vector<std::uint64_t> pairs;
  for (std::uint32_t x = 0; x < nodes_.size(); ++x) {
    for (const std::uint32_t peer : nodes_[x].link_peers) {
      const std::uint32_t lo = std::min(x, peer);
      const std::uint32_t hi = std::max(x, peer);
      pairs.push_back((static_cast<std::uint64_t>(lo) << 32) | hi);
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::size_t dropped = 0;
  for (const std::uint64_t key : pairs) {
    if (!master_rng_.chance(fraction)) continue;
    if (drop_link(NodeId::from_index(static_cast<std::uint32_t>(key >> 32)),
                  NodeId::from_index(static_cast<std::uint32_t>(key)))) {
      ++dropped;
    }
  }
  return dropped;
}

void Simulator::set_latency(Duration min, Duration max) {
  HPV_CHECK_THROW(min >= 0, "set_latency: latency_min must be >= 0");
  HPV_CHECK_THROW(max >= min,
                  "set_latency: inverted latency band (min > max); use "
                  "min == max for fixed latency");
  config_.latency_min = min;
  config_.latency_max = max;
  // A spike stretches the arrival horizon: re-derive the calendar's bucket
  // width so the new band spreads across the wheel instead of piling into
  // a few buckets.
  queue_.set_band(std::max(max, config_.failure_detect_delay));
}

membership::Env& Simulator::env(const NodeId& id) {
  HPV_CHECK(id.ip < nodes_.size());
  return *nodes_[id.ip].env;
}

std::uint64_t Simulator::run_until_quiescent() {
  std::uint64_t processed = 0;
  while (step()) {
    ++processed;
    HPV_CHECK(processed <= kMaxEventsPerDrain);
  }
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  Event ev = queue_.pop();
  HPV_ASSERT(ev.at >= now_);
  now_ = ev.at;
  ++events_processed_;
  dispatch(ev);
  return true;
}

bool Simulator::linked(const NodeId& a, const NodeId& b) const {
  HPV_CHECK(a.ip < nodes_.size() && b.ip < nodes_.size());
  return link_has(nodes_[a.ip], b.ip);
}

std::size_t Simulator::link_count(const NodeId& id) const {
  HPV_CHECK(id.ip < nodes_.size());
  return nodes_[id.ip].link_peers.size();
}

void Simulator::do_send(std::uint32_t from, std::uint32_t to,
                        const wire::Message& msg) {
  // Dead nodes initiate nothing; blocked nodes are frozen applications.
  if (!is_running(from)) return;
  ++sent_total_;
  const std::uint8_t tag = wire::type_tag(msg);
  ++sent_by_type_[tag];
  // The payload-frame encodings are compile-time constants (wire_test pins
  // them against the generic walk).
  std::uint64_t cost = 0;
  if (const auto* gossip = std::get_if<wire::Gossip>(&msg)) {
    cost = wire::wire_cost(*gossip);
  } else if (const auto* tree = std::get_if<wire::TreeGossip>(&msg)) {
    cost = wire::wire_cost(*tree);
  } else {
    cost = wire::wire_cost(msg);
  }
  bytes_total_ += cost;
  bytes_by_type_[tag] += cost;

  Event ev;
  put_message(ev, msg);
  // Out-of-range addresses are fabricated identities (the adversarial tier
  // injects view entries that name no simulated process). They behave
  // exactly like crashed peers: the write fails back to the sender after
  // the detection delay. In-range traffic takes the historical path
  // unchanged.
  if (to >= nodes_.size() || !is_alive(to)) {
    // TCP write against a crashed peer: fails back to the sender after the
    // detection delay. The link, if any, is torn down.
    link_remove(nodes_[from], to);
    ev.kind = EventKind::kSendFailed;
    ev.at = now_ + config_.failure_detect_delay;
    ev.node = from;
    ev.peer = to;
    push_event(ev);
    return;
  }
  // Implicit connection establishment, as with a TCP dial-on-demand cache.
  std::size_t slot = link_slot(nodes_[from], to);
  if (slot == kNoLink) {
    slot = link_add(nodes_[from], to);
    // The slot stays valid: for from != to this touches a different node's
    // table, and for a (degenerate) self-send it finds the entry just
    // added instead of growing the table.
    link_add(nodes_[to], from);
    ++connections_opened_;
  }
  ev.kind = EventKind::kDeliver;
  ev.at = arrival_time(nodes_[from].link_data[slot]);
  ev.node = to;
  ev.peer = from;
  push_event(ev);
}

void Simulator::do_connect(std::uint32_t from, std::uint32_t to,
                           membership::ConnectCallback cb) {
  // Dead nodes initiate nothing, and neither do blocked ones: a frozen
  // process cannot reach its dial loop any more than its send path (the
  // same rule do_send applies).
  if (!is_running(from)) return;
  // Fabricated (out-of-range) targets refuse the dial after the detection
  // delay, like crashed peers.
  const bool reachable = to < nodes_.size() && is_alive(to);
  Event ev;
  ev.kind = EventKind::kConnectResult;
  ev.at = now_ + (reachable ? draw_latency()
                            : config_.failure_detect_delay);
  ev.node = from;
  ev.peer = to;
  ev.payload = connects_.put(std::move(cb));
  push_event(ev);
}

void Simulator::do_disconnect(std::uint32_t from, std::uint32_t to) {
  // Same inertness rule as do_send/do_connect: a frozen (or dead)
  // application never reaches its teardown path either.
  if (!is_running(from)) return;
  // TCP semantics: the remote side observes our FIN *after* any in-flight
  // data on this connection (clamped to the link's last scheduled arrival).
  // If the remote closes its own side first — e.g. because a DISCONNECT
  // message told it to — or the pair reconnects meanwhile (new generation),
  // the notification is suppressed at dispatch. Fabricated (out-of-range)
  // peers have no remote side to notify.
  const std::size_t remote_side = to < nodes_.size() && is_alive(to)
                                      ? link_slot(nodes_[to], from)
                                      : kNoLink;
  if (remote_side != kNoLink) {
    TimePoint fin_at = now_ + draw_latency();
    if (const std::size_t mine = link_slot(nodes_[from], to);
        mine != kNoLink && nodes_[from].link_data[mine].last_arrival > fin_at) {
      fin_at = nodes_[from].link_data[mine].last_arrival;
    }
    Event ev;
    ev.at = fin_at + config_.failure_detect_delay;
    ev.kind = EventKind::kLinkClosed;
    ev.node = to;
    ev.peer = from;
    ev.link_gen = nodes_[to].link_data[remote_side].gen;
    push_event(ev);
  }
  link_remove(nodes_[from], to);
}

void Simulator::do_schedule(std::uint32_t node, Duration delay,
                            membership::TaskCallback fn) {
  HPV_CHECK(delay >= 0);
  Event ev;
  ev.kind = EventKind::kTask;
  ev.at = now_ + delay;
  ev.node = node;
  ev.payload = tasks_.put(std::move(fn));
  push_event(ev);
}

void Simulator::push_event(Event ev) {
  ev.seq = next_seq_++;
  queue_.push(ev);
}

void Simulator::dispatch(Event& ev) {
  SimNode& node = nodes_[ev.node];
  const std::uint8_t state = state_[ev.node];
  switch (ev.kind) {
    case EventKind::kDeliver: {
      if ((state & kAlive) == 0) {
        // Target crashed while the message was in flight: the sender's TCP
        // stack notices (RST / timeout) and reports the failure.
        fail_back(ev);
        return;
      }
      if ((state & kBlocked) != 0) {
        // Slow consumer (§5.5): buffer up to the per-sender flow-control
        // window, then fail back to the sender as if the node had crashed.
        std::size_t from_sender = 0;
        for (const auto& queued : node.inbox) {
          if (queued.from == ev.peer &&
              queued.kind == QueuedMessage::Kind::kDeliver) {
            ++from_sender;
          }
        }
        if (from_sender < config_.link_send_buffer) {
          if (node.inbox.capacity() == 0) {
            node.inbox.reserve(config_.link_send_buffer);
          }
          QueuedMessage queued;
          queued.kind = QueuedMessage::Kind::kDeliver;
          queued.from = ev.peer;
          queued.msg = take_message(ev);
          node.inbox.push_back(std::move(queued));
          return;
        }
        fail_back(ev);
        return;
      }
      ++delivered_total_;
      // Move the payload out before the upcall: the handler's own sends may
      // grow the slab, and the recycled slot must not alias the message the
      // handler is still reading.
      wire::Message msg = take_message(ev);
      if (node.handler != nullptr) {
        node.handler->deliver(NodeId::from_index(ev.peer), msg);
      }
      return;
    }
    case EventKind::kSendFailed: {
      if (!ev.replay) ++send_failures_;
      wire::Message msg = take_message(ev);
      if ((state & kAlive) == 0) return;
      if ((state & kBlocked) != 0) {
        // The failure report is a kernel-level fact (the RST arrived); the
        // frozen application processes it when it resumes — dropping it
        // would wedge protocols waiting on the send's outcome.
        QueuedMessage queued;
        queued.kind = QueuedMessage::Kind::kSendFailed;
        queued.from = ev.peer;
        queued.msg = std::move(msg);
        node.inbox.push_back(std::move(queued));
        return;
      }
      if (node.handler != nullptr) {
        node.handler->send_failed(NodeId::from_index(ev.peer), msg);
      }
      return;
    }
    case EventKind::kConnectResult: {
      membership::ConnectCallback cb = connects_.take(ev.payload);
      if ((state & kAlive) == 0) return;
      // The kernel completes the handshake whether or not the application
      // is frozen, so the link comes into being now; only the callback
      // waits for the process to resume (a dropped completion would wedge
      // any state machine gating on the dial, e.g. HyParView promotion).
      const bool ok =
          ev.replay ? ev.ok : ev.peer < nodes_.size() && is_alive(ev.peer);
      if (!ev.replay && ok && !link_has(node, ev.peer)) {
        link_add(node, ev.peer);
        link_add(nodes_[ev.peer], ev.node);
        ++connections_opened_;
      }
      if ((state & kBlocked) != 0) {
        QueuedMessage queued;
        queued.kind = QueuedMessage::Kind::kConnectResult;
        queued.from = ev.peer;
        queued.cb = std::move(cb);
        queued.ok = ok;
        node.inbox.push_back(std::move(queued));
        return;
      }
      if (cb) cb(ok);
      return;
    }
    case EventKind::kTask: {
      membership::TaskCallback task = tasks_.take(ev.payload);
      // Frozen applications miss their timers (app-internal scheduling
      // fires into a stuck process); dead ones are gone.
      if (state != kAlive) return;
      if (task) task();
      return;
    }
    case EventKind::kLinkClosed: {
      if ((state & kAlive) == 0) return;
      // ev.replay marks a forced replay from a drained inbox; otherwise
      // the notification only fires if our side of *that* link instance is
      // still open (close-vs-close races resolve silently, like mutual
      // FINs, and reconnections have a fresh generation).
      if (!ev.replay) {
        const std::size_t side = link_slot(node, ev.peer);
        if (side == kNoLink || node.link_data[side].gen != ev.link_gen) {
          return;
        }
        link_remove(node, ev.peer);
      }
      if ((state & kBlocked) != 0) {
        QueuedMessage queued;
        queued.kind = QueuedMessage::Kind::kClose;
        queued.from = ev.peer;
        node.inbox.push_back(std::move(queued));
        return;
      }
      if (node.handler != nullptr) {
        node.handler->link_closed(NodeId::from_index(ev.peer));
      }
      return;
    }
  }
}

void Simulator::fail_back(const Event& ev) {
  if (!is_alive(ev.peer)) {
    release_message(ev);
    return;
  }
  link_remove(nodes_[ev.peer], ev.node);
  link_remove(nodes_[ev.node], ev.peer);
  // The frame — inline bytes or slab slot — moves to the failure event
  // untouched.
  Event fail = ev;
  fail.kind = EventKind::kSendFailed;
  fail.at = now_ + config_.failure_detect_delay;
  fail.node = ev.peer;
  fail.peer = ev.node;
  push_event(fail);
}

void Simulator::put_message(Event& ev, const wire::Message& msg) {
  // Copy only the active alternative: a Gossip send writes 16 bytes into
  // the event, a shuffle its list into the slab — never the variant's full
  // ~270-byte storage (whole-variant assignment of a trivially copyable
  // variant is a full-storage memcpy, measurably slower across a 9.5M-event
  // bootstrap).
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (sizeof(T) <= kInlineFrameBytes) {
          std::memcpy(ev.frame, static_cast<const void*>(&m), sizeof(T));
          ev.payload = kNoSlot;
        } else {
          const std::uint32_t slot = messages_.alloc();
          messages_[slot].emplace<T>(m);
          ev.payload = slot;
        }
      },
      msg);
  ev.frame_tag = static_cast<std::uint8_t>(msg.index());
}

wire::Message Simulator::take_message(const Event& ev) {
  if (ev.payload == kNoSlot) return kUnpackFrame[ev.frame_tag](ev.frame);
  // Copy out only the active alternative. The slot is released *first* so
  // the return expression stays a prvalue — guaranteed copy elision
  // constructs the caller's Message directly from the slab; a named local
  // here measurably demoted the return to a full-storage (272-byte) memcpy
  // (GCC declined NRVO with the two-branch return). Safe by SlotPool's
  // documented release() contract: the slot's contents stay intact until
  // the next put()/alloc(), and nothing runs between the release and the
  // read below (single-threaded dispatch).
  messages_.release(ev.payload);
  return std::visit([](const auto& m) { return wire::Message(m); },
                    messages_[ev.payload]);
}

void Simulator::release_message(const Event& ev) {
  if (ev.payload != kNoSlot) messages_.release(ev.payload);
}

Duration Simulator::draw_latency() {
  // Zero-width band = fixed latency, decided without consuming an RNG draw;
  // the validated band (min <= max) keeps the modulus below >= 1.
  if (config_.latency_max == config_.latency_min) return config_.latency_min;
  return config_.latency_min +
         static_cast<Duration>(latency_rng_.below(static_cast<std::uint64_t>(
             config_.latency_max - config_.latency_min + 1)));
}

TimePoint Simulator::arrival_time(LinkData& link) {
  TimePoint at = now_ + draw_latency();
  if (link.last_arrival > at) at = link.last_arrival;
  link.last_arrival = at;
  return at;
}

std::size_t Simulator::link_slot(const SimNode& node, std::uint32_t peer) {
  if (node.link_index.empty()) {
    const auto it =
        std::find(node.link_peers.begin(), node.link_peers.end(), peer);
    return it == node.link_peers.end()
               ? kNoLink
               : static_cast<std::size_t>(it - node.link_peers.begin());
  }
  const std::uint32_t* slot = node.link_index.find(peer);
  return slot == nullptr ? kNoLink : *slot;
}

std::size_t Simulator::link_add(SimNode& node, std::uint32_t peer) {
  if (const std::size_t existing = link_slot(node, peer);
      existing != kNoLink) {
    return existing;
  }
  if (node.link_peers.capacity() == 0) {
    node.link_peers.reserve(8);
    node.link_data.reserve(8);
  }
  if (!node.link_index.empty()) {
    node.link_index.insert(
        peer, static_cast<std::uint32_t>(node.link_peers.size()));
  } else if (node.link_peers.size() + 1 > kLinkIndexThreshold) {
    // The table outgrew scanning: index everything, new entry included.
    node.link_index.reserve(node.link_peers.size() + 1);
    for (std::size_t i = 0; i < node.link_peers.size(); ++i) {
      node.link_index.insert(node.link_peers[i],
                             static_cast<std::uint32_t>(i));
    }
    node.link_index.insert(
        peer, static_cast<std::uint32_t>(node.link_peers.size()));
  }
  node.link_peers.push_back(peer);
  node.link_data.push_back(LinkData{next_link_gen_++, /*last_arrival=*/0});
  return node.link_peers.size() - 1;
}

void Simulator::link_remove(SimNode& node, std::uint32_t peer) {
  const std::size_t i = link_slot(node, peer);
  if (i == kNoLink) return;
  if (!node.link_index.empty()) {
    node.link_index.erase(peer);
    if (i + 1 != node.link_peers.size()) {
      // Swap-remove: re-point the moved entry's index at its new slot.
      node.link_index.insert(node.link_peers.back(),
                             static_cast<std::uint32_t>(i));
    }
  }
  node.link_peers[i] = node.link_peers.back();
  node.link_data[i] = node.link_data.back();
  node.link_peers.pop_back();
  node.link_data.pop_back();
}

bool Simulator::link_has(const SimNode& node, std::uint32_t peer) {
  return link_slot(node, peer) != kNoLink;
}

}  // namespace hyparview::sim
