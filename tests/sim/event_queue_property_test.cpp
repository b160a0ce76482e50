// Property suite for the simulator's event scheduler.
//
// The contract under test: the CalendarQueue pops the exact same (at, seq)
// sequence as a MinHeap (the reference oracle) for any workload the
// simulator can generate — monotonic-in-time pushes, same-timestamp FIFO
// ties, far-horizon timers, and latency-band spikes that re-bucket the
// wheel mid-run. Strict (at, seq) order is what makes every simulated run
// deterministic at a fixed seed.
#include "hyparview/sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "hyparview/common/rng.hpp"
#include "hyparview/sim/min_heap.hpp"
#include "hyparview/sim/simulator.hpp"

namespace hyparview::sim {
namespace {

struct Ev {
  TimePoint at = 0;
  std::uint64_t seq = 0;
};

struct AtSeqLess {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
};

using HeapQueue = MinHeap<Ev, AtSeqLess>;

/// Drives a calendar queue and a heap through one interleaved random
/// workload, asserting the popped (at, seq) streams never diverge.
///
/// Pushes honor the simulator's scheduling invariant (never before `now`,
/// the timestamp of the last dispatched event); everything else — burst
/// sizes, far-timer fraction, spike cadence — is randomized per trial.
void run_mixed_trial(Rng& rng, Duration initial_band, int steps) {
  CalendarQueue<Ev> calendar(initial_band);
  HeapQueue heap;

  TimePoint now = 0;
  std::uint64_t seq = 0;
  Duration band = initial_band;

  const auto push_both = [&](TimePoint at) {
    calendar.push({at, seq});
    heap.push({at, seq});
    ++seq;
  };

  for (int step = 0; step < steps; ++step) {
    const std::uint64_t op = rng.below(93);
    if (op < 55) {
      // Push burst: mostly near-horizon arrivals inside the live band, a
      // tail of long timers far beyond the wheel year (failure detection,
      // harness alarms), and occasional at == now immediates + exact ties.
      const int burst = 1 + static_cast<int>(rng.below(8));
      for (int i = 0; i < burst; ++i) {
        const std::uint64_t shape = rng.below(10);
        TimePoint at = now;
        if (shape < 6) {
          at = now + static_cast<Duration>(
                         rng.below(static_cast<std::uint64_t>(band) + 1));
        } else if (shape < 8) {
          at = now;  // immediate: same-timestamp FIFO tie break
        } else {
          at = now + band * static_cast<Duration>(2 + rng.below(4000));
        }
        push_both(at);
      }
    } else if (op < 85) {
      // Pop burst: both structures must yield the identical stream.
      std::size_t burst = 1 + rng.below(8);
      while (burst-- > 0 && !heap.empty()) {
        const Ev a = calendar.pop();
        const Ev b = heap.pop();
        ASSERT_EQ(a.at, b.at) << "divergence at seq " << b.seq;
        ASSERT_EQ(a.seq, b.seq) << "tie-break divergence at t=" << b.at;
        ASSERT_GE(a.at, now) << "pop went backwards in time";
        now = a.at;
      }
      ASSERT_EQ(calendar.size(), heap.size());
    } else {
      // Latency spike (set_latency fault injection): the calendar re-derives
      // its bucket width and re-buckets in place; order must survive.
      band = 1 + static_cast<Duration>(rng.below(200'000));
      calendar.set_band(band);
    }
  }

  // Full drain: every remaining event, in lockstep.
  while (!heap.empty()) {
    const Ev a = calendar.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.at, b.at);
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_GE(a.at, now);
    now = a.at;
  }
  ASSERT_TRUE(calendar.empty());
}

TEST(EventQueueProperty, CalendarMatchesHeapUnderMixedWorkload) {
  Rng rng(20260808);
  for (int trial = 0; trial < 25; ++trial) {
    const Duration band = 1 + static_cast<Duration>(rng.below(50'000));
    run_mixed_trial(rng, band, 400);
  }
}

TEST(EventQueueProperty, CalendarMatchesHeapWithDegenerateBands) {
  Rng rng(7);
  // band_max == 0 (zero-width latency) collapses the wheel to 1-tick
  // buckets; the structure must still order correctly.
  run_mixed_trial(rng, 0, 300);
  run_mixed_trial(rng, 1, 300);
}

TEST(EventQueueProperty, FarTimersAcrossEmptyYears) {
  // Sparse far-only workload: every event lands beyond the wheel horizon,
  // so every pop exercises the jump-to-earliest-far path instead of
  // stepping bucket by bucket through empty years.
  CalendarQueue<Ev> calendar(100);
  HeapQueue heap;
  Rng rng(99);
  TimePoint at = 0;
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    at += 1'000'000 + static_cast<Duration>(rng.below(1'000'000'000));
    calendar.push({at, seq});
    heap.push({at, seq});
  }
  while (!heap.empty()) {
    const Ev a = calendar.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.at, b.at);
    ASSERT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(EventQueueProperty, WrapMigrationInstallsFarEventsInTime) {
  // Adversarial schedule for the wrap sweep: an event just past the wheel
  // horizon at push time (so it starts in the far list), then enough
  // near-horizon traffic to walk the cursor right up to — and past — the
  // far event's window. The wrap sweep must install it before its window
  // is reached, or it pops late (out of order vs the heap).
  for (const Duration band : {Duration{1}, Duration{37}, Duration{4096}}) {
    CalendarQueue<Ev> calendar(band);
    HeapQueue heap;
    std::uint64_t seq = 0;
    const Duration width = calendar.bucket_width();
    const TimePoint just_past_horizon =
        width * static_cast<Duration>(calendar.bucket_count() + 2);
    calendar.push({just_past_horizon, seq});
    heap.push({just_past_horizon, seq});
    ++seq;
    // Dense near traffic: one event per bucket width, well past the far
    // event's timestamp, so the cursor crosses the wrap boundary while the
    // far event is due in between.
    for (TimePoint t = 0;
         t < just_past_horizon + width * 64; t += std::max<Duration>(1, width)) {
      calendar.push({t, seq});
      heap.push({t, seq});
      ++seq;
    }
    while (!heap.empty()) {
      const Ev a = calendar.pop();
      const Ev b = heap.pop();
      ASSERT_EQ(a.at, b.at) << "band=" << band;
      ASSERT_EQ(a.seq, b.seq) << "band=" << band;
    }
  }
}

TEST(EventQueueProperty, OutOfOrderPushesBeforeFirstPop) {
  // Before the first pop (now == 0) pushes may arrive in any time order.
  CalendarQueue<Ev> calendar(1000);
  HeapQueue heap;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const auto at = static_cast<TimePoint>((seq * 7919) % 5000);
    calendar.push({at, seq});
    heap.push({at, seq});
  }
  ASSERT_EQ(calendar.size(), heap.size());
  while (!heap.empty()) {
    const Ev a = calendar.pop();
    const Ev b = heap.pop();
    ASSERT_EQ(a.at, b.at);
    ASSERT_EQ(a.seq, b.seq);
  }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t fnv_step(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 0x100000001b3ull;
}

/// Endpoint that relays every delivery to a pseudo-random peer a bounded
/// number of times — enough traffic shape (fan-in ties, cascades) to catch
/// an ordering divergence at the simulator level.
class RelayEndpoint final : public membership::Endpoint {
 public:
  RelayEndpoint(Simulator* sim, std::uint32_t self, std::uint32_t n,
                std::uint64_t seed)
      : sim_(sim), self_(self), n_(n), rng_(seed) {}

  void deliver(const NodeId& from, const wire::Message& msg) override {
    (void)msg;
    ++deliveries;
    order_digest =
        fnv_step(order_digest, std::uint64_t{from.ip} << 32 ^
                                   static_cast<std::uint64_t>(sim_->now()));
    if (hops_left_ > 0) {
      --hops_left_;
      const auto peer = static_cast<std::uint32_t>(rng_.below(n_));
      if (peer != self_) {
        sim_->env(NodeId::from_index(self_))
            .send(NodeId::from_index(peer), wire::Join{});
      }
    }
  }
  void send_failed(const NodeId&, const wire::Message&) override {
    ++failures;
  }
  void link_closed(const NodeId&) override { ++closes; }

  void arm(int hops) { hops_left_ += hops; }

  std::uint64_t deliveries = 0;
  /// (sender, arrival time) of every delivery, folded in delivery order.
  std::uint64_t order_digest = kFnvOffset;
  std::uint64_t failures = 0;
  std::uint64_t closes = 0;

 private:
  Simulator* sim_;
  std::uint32_t self_;
  std::uint32_t n_;
  Rng rng_;
  int hops_left_ = 0;
};

struct SimTrace {
  std::uint64_t events = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t bytes = 0;
  TimePoint final_now = 0;
  std::vector<std::uint64_t> per_node_deliveries;
  /// Every node's order_digest, folded in node order.
  std::uint64_t order_digest = kFnvOffset;

  bool operator==(const SimTrace&) const = default;
};

/// Runs one scripted relay workload — per-round drains, a latency spike, a
/// fixed-latency stretch, a crash — and returns every observable counter.
SimTrace run_scripted_sim() {
  constexpr std::uint32_t kNodes = 24;
  SimConfig config;
  config.seed = 4242;
  Simulator sim(config);

  std::vector<std::unique_ptr<RelayEndpoint>> endpoints;
  endpoints.reserve(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    endpoints.push_back(
        std::make_unique<RelayEndpoint>(&sim, i, kNodes, 1000 + i));
    sim.add_node(endpoints.back().get());
  }

  for (int round = 0; round < 6; ++round) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      endpoints[i]->arm(4);
      const std::uint32_t peer =
          (i * 7 + static_cast<std::uint32_t>(round)) % kNodes;
      if (peer == i) continue;
      sim.env(NodeId::from_index(i))
          .send(NodeId::from_index(peer), wire::Join{});
    }
    if (round == 2) sim.set_latency(milliseconds(5), milliseconds(40));
    // Fixed latency: every burst arrives in same-timestamp ties, so the
    // order digest below pins the (at, seq) tie-break too.
    if (round == 3) sim.set_latency(milliseconds(2), milliseconds(2));
    if (round == 4) sim.crash(NodeId::from_index(3));
    sim.run_until_quiescent();
  }
  sim.run_until_quiescent();

  SimTrace trace;
  trace.events = sim.events_processed();
  trace.sent = sim.messages_sent();
  trace.delivered = sim.messages_delivered();
  trace.bytes = sim.bytes_sent();
  trace.final_now = sim.now();
  for (const auto& ep : endpoints) {
    trace.per_node_deliveries.push_back(ep->deliveries);
    trace.order_digest = fnv_step(trace.order_digest, ep->order_digest);
  }
  return trace;
}

TEST(EventQueueProperty, SimulatorRunMatchesGoldenTrace) {
  // Golden values recorded while the simulator could still run on a MinHeap
  // too, where the heap and calendar runs matched exactly. Any change in
  // dispatch order, same-timestamp ties included, moves the order digest.
  SimTrace golden;
  golden.events = 665;
  golden.sent = 664;
  golden.delivered = 657;
  golden.bytes = 664;
  golden.final_now = 283898;
  golden.per_node_deliveries = {28, 27, 22, 25, 27, 27, 22, 20,
                                26, 27, 32, 24, 33, 35, 26, 29,
                                21, 31, 31, 31, 20, 31, 33, 29};
  golden.order_digest = 0x5bb84eb3c9093a31ull;
  EXPECT_EQ(run_scripted_sim(), golden);
}

}  // namespace
}  // namespace hyparview::sim
