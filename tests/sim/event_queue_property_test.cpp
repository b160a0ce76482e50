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
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "hyparview/common/rng.hpp"
#include "hyparview/sim/min_heap.hpp"
#include "hyparview/sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global allocator: the recycled-burst test below reads the
// allocation count around a second burst. The array forms forward here.
void* operator new(std::size_t size) {
  ++g_allocs;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

/// A calendar and its heap oracle, fed and drained in lockstep under the
/// simulator's scheduling contract (no push before the last pop).
struct Lockstep {
  explicit Lockstep(Duration band) : calendar(band) {}

  void push(TimePoint at) {
    calendar.push({at, seq});
    heap.push({at, seq});
    ++seq;
  }

  /// Pops up to n events from both, requiring the identical stream.
  void pop(std::size_t n) {
    while (n-- > 0 && !heap.empty()) {
      const Ev a = calendar.pop();
      const Ev b = heap.pop();
      ASSERT_EQ(a.at, b.at) << "divergence at seq " << b.seq;
      ASSERT_EQ(a.seq, b.seq) << "tie-break divergence at t=" << b.at;
      now = a.at;
    }
    ASSERT_EQ(calendar.size(), heap.size());
  }

  CalendarQueue<Ev> calendar;
  HeapQueue heap;
  TimePoint now = 0;
  std::uint64_t seq = 0;
};

TEST(EventQueueProperty, TickPilesOfThousandsThroughEveryPath) {
  // A crash's link-close burst piles thousands of events on one tick. The
  // pile spans many chunks of one bucket's chain; it must keep strict
  // (at, seq) order through far migration, rebuilds, band spikes and both
  // pop modes.
  Lockstep q(100);
  ASSERT_EQ(q.calendar.bucket_width(), 1);  // single-tick buckets
  for (int i = 0; i < 1500; ++i) q.push(50);
  for (int i = 0; i < 1200; ++i) q.push(50'000);  // beyond the horizon
  q.pop(700);  // head takes along the 1,500-event chain
  ASSERT_EQ(q.now, 50);

  // Spike: rebuild into wide buckets, where pops scan the pile.
  q.calendar.set_band(40'000);
  ASSERT_GT(q.calendar.bucket_width(), 1);
  for (int i = 0; i < 1200; ++i) q.push(q.now + i % 3);
  q.pop(500);
  // Enough events to double the wheel: grow rebuilds.
  const std::size_t buckets = q.calendar.bucket_count();
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    q.push(q.now + static_cast<Duration>(rng.below(60'000)));
  }
  ASSERT_GT(q.calendar.bucket_count(), buckets);
  q.pop(900);

  // Back to single-tick buckets: every rebuilt chain is dirty and sorts on
  // its first pop; more ties append behind the sorted remainder.
  q.calendar.set_band(100);
  ASSERT_EQ(q.calendar.bucket_width(), 1);
  for (int i = 0; i < 1000; ++i) q.push(q.now);
  // Drain everything: the far pile at 50,000 migrates in as one chain.
  q.pop(q.heap.size());
  ASSERT_TRUE(q.calendar.empty());
}

TEST(EventQueueProperty, StorageFollowsPendingEventsAndIsRecycled) {
  // A burst over single-tick buckets: 20 ticks, 60 to 79 events each.
  constexpr std::size_t kTicks = 20;
  constexpr std::size_t kChunk = CalendarQueue<Ev>::kChunkEvents;
  Lockstep q(100);
  const auto burst = [&q](auto push) {
    for (std::size_t t = 0; t < kTicks; ++t) {
      for (std::size_t i = 0; i < 60 + t; ++i) {
        push(q.now + 1 + static_cast<Duration>(t) * 7);
      }
    }
  };
  burst([&q](TimePoint at) { q.push(at); });
  const std::size_t peak = q.calendar.size();
  ASSERT_GT(peak, 1000u);
  const std::size_t storage = q.calendar.storage_events();
  // Peak live events rounded up to chunks, plus one chunk per live bucket.
  EXPECT_LE(storage, (peak + kChunk - 1) / kChunk * kChunk + kChunk * kTicks);
  q.pop(peak);
  ASSERT_TRUE(q.calendar.empty());

  // The same burst again, calendar only: it runs on recycled chunks.
  std::vector<Ev> popped;
  popped.reserve(peak);
  std::uint64_t seq = q.seq;
  const std::uint64_t allocs = g_allocs;
  burst([&](TimePoint at) { q.calendar.push({at, seq++}); });
  while (!q.calendar.empty()) popped.push_back(q.calendar.pop());
  EXPECT_EQ(g_allocs - allocs, 0u);
  EXPECT_EQ(q.calendar.storage_events(), storage);

  // ... and still in (at, seq) order.
  ASSERT_EQ(popped.size(), peak);
  std::vector<Ev> sorted = popped;
  std::sort(sorted.begin(), sorted.end(), AtSeqLess{});
  EXPECT_TRUE(std::equal(popped.begin(), popped.end(), sorted.begin(),
                         [](const Ev& a, const Ev& b) {
                           return a.at == b.at && a.seq == b.seq;
                         }));
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
