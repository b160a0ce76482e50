// Microbenchmark + invariant check for the simulator event pipeline.
//
// Six claims are verified, not just measured:
//  1. steady-state message delivery (the dissemination hot path: send →
//     queue → deliver → re-send) performs ZERO heap allocations per event —
//     the slim-POD event queue and the free-list payload pools recycle
//     everything after warm-up;
//  2. steady-state timer scheduling (Env::schedule → kTask dispatch) is
//     likewise allocation-free thanks to InplaceFunction + the task pool;
//  3. the full broadcast pipeline — gossip dedup window, per-node
//     forwarding buffers, broadcast recorder — is allocation-free once the
//     dedup windows are saturated and the recorder storage is reserved
//     (DedupWindow ring + probe table, BroadcastRecorder::reserve);
//  4. the shuffle wire path — flat SHUFFLE frames relayed through the POD
//     message slab — moves frames with plain bounded copies, zero
//     allocations per hop (the old vector-payload frames allocated on
//     every relay);
//  5. full HyParView membership rounds (shuffle walks, replies, passive
//     integration, promotion episodes) run allocation-free end to end once
//     the protocol scratch buffers and slabs are warm;
//  6. the Plumtree payload plane (TreeGossip push, IHave digests, graft
//     timers, prune decisions, link scores, payload cache) is likewise
//     allocation-free once the dedup/cache rings are saturated and the
//     eager tree has converged.
//
// The binary exits non-zero if any steady-state phase allocates, so it
// doubles as a CI regression gate (wired into CTest under the smoke label).
// Throughput (events/sec) is printed and recorded in
// BENCH_micro_sim_events.json, where bench_compare.py's A/B mode compares
// it against a parent build on the same machine.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_common.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global allocator: every heap allocation in the process bumps the
// counter. The steady-state phases below assert the delta is exactly zero.
void* operator new(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hyparview {
namespace {

/// Endpoint that answers every delivered gossip frame with another one until
/// `remaining` runs out — a two-node ping-pong that keeps exactly one
/// message event in flight, exercising the deliver path millions of times.
class PingPong final : public membership::Endpoint {
 public:
  PingPong(membership::Env& env, NodeId peer, std::uint64_t exchanges)
      : env_(env), peer_(peer), remaining_(exchanges) {}

  void deliver(const NodeId& /*from*/, const wire::Message& msg) override {
    if (remaining_ == 0) return;
    --remaining_;
    const auto& gossip = std::get<wire::Gossip>(msg);
    wire::Gossip next = gossip;
    next.hops = static_cast<std::uint16_t>(gossip.hops + 1);
    env_.send(peer_, next);
  }

  void send_failed(const NodeId&, const wire::Message&) override {}
  void link_closed(const NodeId&) override {}

  void reset(std::uint64_t exchanges) { remaining_ = exchanges; }

 private:
  membership::Env& env_;
  NodeId peer_;
  std::uint64_t remaining_;
};

/// Endpoint that relays every delivered SHUFFLE frame back to the peer —
/// a frame copy plus a send, exactly the shape of HyParView's walk relay —
/// until `remaining` runs out. Exercises the flat-frame slab path (put /
/// take of a max-capacity bounded node-list) once per event.
class ShufflePong final : public membership::Endpoint {
 public:
  ShufflePong(membership::Env& env, NodeId peer, std::uint64_t exchanges)
      : env_(env), peer_(peer), remaining_(exchanges) {}

  void deliver(const NodeId& /*from*/, const wire::Message& msg) override {
    if (remaining_ == 0) return;
    --remaining_;
    const auto& shuffle = std::get<wire::Shuffle>(msg);
    wire::Shuffle next = shuffle;  // POD copy, like a walk relay
    next.ttl = next.ttl > 0 ? static_cast<std::uint8_t>(next.ttl - 1) : 6;
    env_.send(peer_, next);
  }

  void send_failed(const NodeId&, const wire::Message&) override {}
  void link_closed(const NodeId&) override {}

  void reset(std::uint64_t exchanges) { remaining_ = exchanges; }

 private:
  membership::Env& env_;
  NodeId peer_;
  std::uint64_t remaining_;
};

/// Self-re-arming timer chain: each fired task schedules the next one,
/// exercising the task pool's put/take recycling.
struct TimerChain {
  membership::Env* env = nullptr;
  std::uint64_t remaining = 0;

  void arm() {
    if (remaining == 0) return;
    --remaining;
    env->schedule(microseconds(10), [this] { arm(); });
  }
};

int run() {
  const auto scale = harness::BenchScale::from_env(/*messages=*/0);
  std::printf("micro_sim_events — event-pipeline throughput & allocation "
              "audit\n");

  sim::SimConfig cfg;
  cfg.seed = scale.seed;
  sim::Simulator sim(cfg);
  const NodeId a = sim.add_node(nullptr);
  const NodeId b = sim.add_node(nullptr);
  PingPong ha(sim.env(a), b, 0);
  PingPong hb(sim.env(b), a, 0);
  sim.set_handler(a, &ha);
  sim.set_handler(b, &hb);

  // --- Phase 1: deliver path -------------------------------------------------
  constexpr std::uint64_t kWarmup = 20'000;
  const std::uint64_t exchanges = scale.quick ? 200'000 : 2'000'000;

  // Warm-up: links open, pools and queue grow to their steady footprint.
  ha.reset(kWarmup);
  hb.reset(kWarmup);
  sim.env(a).send(b, wire::Gossip{1, 0, 64});
  sim.run_until_quiescent();

  ha.reset(exchanges);
  hb.reset(exchanges);
  const std::uint64_t allocs_before = g_allocs.load();
  bench::Stopwatch watch;
  sim.env(a).send(b, wire::Gossip{2, 0, 64});
  const std::uint64_t deliver_events = sim.run_until_quiescent();
  const double deliver_seconds = watch.seconds();
  const std::uint64_t deliver_allocs = g_allocs.load() - allocs_before;

  std::printf("deliver path : %llu events in %.3fs (%.0f events/sec), "
              "%llu heap allocations\n",
              static_cast<unsigned long long>(deliver_events), deliver_seconds,
              static_cast<double>(deliver_events) / deliver_seconds,
              static_cast<unsigned long long>(deliver_allocs));

  // --- Phase 2: timer path ---------------------------------------------------
  TimerChain chain{&sim.env(a), kWarmup};
  chain.arm();
  sim.run_until_quiescent();

  chain.remaining = scale.quick ? 100'000 : 1'000'000;
  const std::uint64_t timer_allocs_before = g_allocs.load();
  bench::Stopwatch timer_watch;
  chain.arm();
  const std::uint64_t timer_events = sim.run_until_quiescent();
  const double timer_seconds = timer_watch.seconds();
  const std::uint64_t timer_allocs = g_allocs.load() - timer_allocs_before;

  std::printf("timer path   : %llu events in %.3fs (%.0f events/sec), "
              "%llu heap allocations\n",
              static_cast<unsigned long long>(timer_events), timer_seconds,
              static_cast<double>(timer_events) / timer_seconds,
              static_cast<unsigned long long>(timer_allocs));

  // --- Phase 3: broadcast path (gossip dedup + recorder) ---------------------
  // A real HyParView flood network: every broadcast exercises remember()
  // in each node's dedup window, the reused forwarding buffers, and the
  // recorder's begin/deliver/duplicate accounting. The dedup windows are
  // deliberately smaller than the message budget so the warm-up saturates
  // them (ring + probe table at final size, evictions active) — from then
  // on the whole pipeline must be allocation-free.
  const std::size_t bcast_warmup = 300;
  const std::size_t bcast_messages = scale.quick ? 1'000 : 5'000;
  auto netcfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 64, scale.seed);
  netcfg.gossip.dedup_window = 256;  // < warm-up: evictions in steady state
  harness::SimBackend net(netcfg);
  net.build();
  net.run_cycles(10);
  net.recorder().reserve(bcast_warmup + bcast_messages);
  for (std::size_t m = 0; m < bcast_warmup; ++m) net.broadcast_one();

  const std::uint64_t bcast_events_before = net.simulator().events_processed();
  const std::uint64_t bcast_allocs_before = g_allocs.load();
  bench::Stopwatch bcast_watch;
  double reliability = 0.0;
  for (std::size_t m = 0; m < bcast_messages; ++m) {
    reliability += net.broadcast_one().reliability();
  }
  const double bcast_seconds = bcast_watch.seconds();
  const std::uint64_t bcast_allocs = g_allocs.load() - bcast_allocs_before;
  const std::uint64_t bcast_events =
      net.simulator().events_processed() - bcast_events_before;
  reliability /= static_cast<double>(bcast_messages);

  std::printf("broadcast path: %llu events in %.3fs (%.0f events/sec), "
              "%llu heap allocations, reliability %.4f\n",
              static_cast<unsigned long long>(bcast_events), bcast_seconds,
              static_cast<double>(bcast_events) / bcast_seconds,
              static_cast<unsigned long long>(bcast_allocs), reliability);

  // --- Phase 4: shuffle wire path --------------------------------------------
  // Max-rate relay of flat SHUFFLE frames between two nodes: each hop reads
  // the delivered frame, copies it (exactly what HyParView's walk relay
  // does) and sends it on. Every event moves a bounded node-list payload
  // through the POD message slab — the membership equivalent of phase 1.
  ShufflePong sa(sim.env(a), b, 0);
  ShufflePong sb(sim.env(b), a, 0);
  sim.set_handler(a, &sa);
  sim.set_handler(b, &sb);
  wire::Shuffle seed_frame;
  seed_frame.origin = a;
  seed_frame.ttl = 6;
  for (std::uint32_t i = 0; i < wire::kMaxShuffleEntries; ++i) {
    seed_frame.entries.push_back(NodeId::from_index(i));
  }
  sa.reset(kWarmup);
  sb.reset(kWarmup);
  sim.env(a).send(b, seed_frame);
  sim.run_until_quiescent();

  const std::uint64_t shuffle_exchanges = scale.quick ? 200'000 : 2'000'000;
  sa.reset(shuffle_exchanges);
  sb.reset(shuffle_exchanges);
  const std::uint64_t shuffle_allocs_before = g_allocs.load();
  bench::Stopwatch shuffle_watch;
  sim.env(a).send(b, seed_frame);
  const std::uint64_t shuffle_events = sim.run_until_quiescent();
  const double shuffle_seconds = shuffle_watch.seconds();
  const std::uint64_t shuffle_allocs = g_allocs.load() - shuffle_allocs_before;

  std::printf("shuffle path : %llu events in %.3fs (%.0f events/sec), "
              "%llu heap allocations\n",
              static_cast<unsigned long long>(shuffle_events), shuffle_seconds,
              static_cast<double>(shuffle_events) / shuffle_seconds,
              static_cast<unsigned long long>(shuffle_allocs));

  // --- Phase 5: membership rounds (full HyParView protocol) ------------------
  // Real membership cycles on a flood network: every round each node runs
  // its periodic action — shuffle initiation, TTL walks, replies, passive
  // integration with eviction preference, promotion episodes — and the
  // traffic drains. After warm-up (views full, scratch vectors and slabs at
  // steady footprint) the entire membership control plane must not touch
  // the allocator.
  auto memcfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 64, scale.seed);
  harness::SimBackend memnet(memcfg);
  memnet.build();
  memnet.run_cycles(10);

  const std::size_t membership_cycles = scale.quick ? 40 : 200;
  const std::uint64_t mem_events_before = memnet.simulator().events_processed();
  const std::uint64_t mem_allocs_before = g_allocs.load();
  bench::Stopwatch mem_watch;
  memnet.run_cycles(membership_cycles);
  const double mem_seconds = mem_watch.seconds();
  const std::uint64_t mem_allocs = g_allocs.load() - mem_allocs_before;
  const std::uint64_t mem_events =
      memnet.simulator().events_processed() - mem_events_before;

  std::printf("membership   : %llu events in %.3fs (%.0f events/sec), "
              "%llu heap allocations\n",
              static_cast<unsigned long long>(mem_events), mem_seconds,
              static_cast<double>(mem_events) / mem_seconds,
              static_cast<unsigned long long>(mem_allocs));

  // --- Phase 6: Plumtree payload plane ---------------------------------------
  // The tree-broadcast engine on a real overlay: every wave exercises the
  // eager/lazy split (TreeGossip + IHave), the per-link score windows, the
  // payload cache, and — through IHave-before-eager races — the
  // missing-entry table and graft-timer chain. Dedup and cache rings are
  // sized below the warm-up budget so evictions are active, and warm-up
  // also converges the eager subgraph to the spanning tree; from then on
  // the whole payload plane must be allocation-free.
  auto treecfg = harness::NetworkConfig::defaults_for(
      harness::ProtocolKind::kHyParView, 64, scale.seed);
  treecfg.gossip.engine = gossip::Engine::kPlumtree;
  treecfg.gossip.dedup_window = 256;  // < warm-up: evictions in steady state
  treecfg.gossip.cache_window = 256;
  harness::SimBackend treenet(treecfg);
  treenet.build();
  treenet.run_cycles(10);
  const std::size_t tree_messages = scale.quick ? 1'000 : 5'000;
  treenet.recorder().reserve(bcast_warmup + tree_messages);
  for (std::size_t m = 0; m < bcast_warmup; ++m) treenet.broadcast_one();

  const std::uint64_t tree_events_before = treenet.simulator().events_processed();
  const std::uint64_t tree_allocs_before = g_allocs.load();
  bench::Stopwatch tree_watch;
  double tree_reliability = 0.0;
  for (std::size_t m = 0; m < tree_messages; ++m) {
    tree_reliability += treenet.broadcast_one().reliability();
  }
  const double tree_seconds = tree_watch.seconds();
  const std::uint64_t tree_allocs = g_allocs.load() - tree_allocs_before;
  const std::uint64_t tree_events =
      treenet.simulator().events_processed() - tree_events_before;
  tree_reliability /= static_cast<double>(tree_messages);

  std::printf("plumtree path: %llu events in %.3fs (%.0f events/sec), "
              "%llu heap allocations, reliability %.4f\n",
              static_cast<unsigned long long>(tree_events), tree_seconds,
              static_cast<double>(tree_events) / tree_seconds,
              static_cast<unsigned long long>(tree_allocs), tree_reliability);

  bench::write_bench_json(
      "micro_sim_events", scale,
      deliver_seconds + timer_seconds + bcast_seconds + shuffle_seconds +
          mem_seconds + tree_seconds,
      deliver_events + timer_events + bcast_events + shuffle_events +
          mem_events + tree_events,
      {{"deliver_events_per_second",
        static_cast<double>(deliver_events) / deliver_seconds},
       {"timer_events_per_second",
        static_cast<double>(timer_events) / timer_seconds},
       {"broadcast_events_per_second",
        static_cast<double>(bcast_events) / bcast_seconds},
       {"shuffle_events_per_second",
        static_cast<double>(shuffle_events) / shuffle_seconds},
       {"membership_events_per_second",
        static_cast<double>(mem_events) / mem_seconds},
       {"plumtree_events_per_second",
        static_cast<double>(tree_events) / tree_seconds},
       {"deliver_allocs", static_cast<double>(deliver_allocs)},
       {"timer_allocs", static_cast<double>(timer_allocs)},
       {"broadcast_allocs", static_cast<double>(bcast_allocs)},
       {"shuffle_allocs", static_cast<double>(shuffle_allocs)},
       {"membership_allocs", static_cast<double>(mem_allocs)},
       {"plumtree_allocs", static_cast<double>(tree_allocs)}});

  if (deliver_allocs != 0 || timer_allocs != 0 || bcast_allocs != 0 ||
      shuffle_allocs != 0 || mem_allocs != 0 || tree_allocs != 0) {
    std::printf("FAIL: steady-state event processing allocated "
                "(deliver=%llu, timer=%llu, broadcast=%llu, shuffle=%llu, "
                "membership=%llu, plumtree=%llu); the zero-allocation "
                "invariant of the slim-event/slot-pool/flat-wire design "
                "regressed.\n",
                static_cast<unsigned long long>(deliver_allocs),
                static_cast<unsigned long long>(timer_allocs),
                static_cast<unsigned long long>(bcast_allocs),
                static_cast<unsigned long long>(shuffle_allocs),
                static_cast<unsigned long long>(mem_allocs),
                static_cast<unsigned long long>(tree_allocs));
    return 1;
  }
  std::printf("OK: zero heap allocations on all six steady-state paths.\n");
  return 0;
}

}  // namespace
}  // namespace hyparview

int main() { return hyparview::run(); }
