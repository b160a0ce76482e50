// hpv_bench — the repository benchmark program (benchmark/README.md).
//
// Runs one workload file and prints one JSON result line on stdout;
// benchmark/run.py builds this binary, runs it once per workload and
// formats the result. A workload file is the repo's spec schema
// (harness/spec_json.hpp) with the phase list split in two: "setup" phases
// build the state a user starts from, "measure" phases are the work the
// end-to-end metrics time.
//
// A run is the workload's fixed number of passes, each on a fresh cluster:
// build, setup, measure. Pass k runs on derive_seed(--seed, k), so every
// pass sees the same inputs on every machine. On the simulator every count,
// simulated latency and byte total pools all passes and is bit-identical
// per --seed; wall-time metrics are medians over the passes.
//
// --trace=1 runs every pass twice on the same seed, untraced then traced.
// The traced twin swaps each node's endpoint for a TimedEndpoint that
// forwards to the node's NodeRuntime, counts every upcall, clock-times 1 in
// kTimeStride of them, and splits them by wire type into membership frames
// (core) and payload-plane frames (gossip). Time in neither is the
// substrate's self time. The untraced twin gives the clean wall times and
// the tracing overhead, and on the simulator it must reach the identical
// outcome. Only public harness accessors are used.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <new>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/json.hpp"
#include "hyparview/common/options.hpp"
#include "hyparview/common/rng.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/spec_json.hpp"
#include "hyparview/harness/tcp_backend.hpp"
#include "hyparview/membership/wire.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// Counting global allocator, the same replacement bench/micro_sim_events
// uses: allocations per simulator event and per TCP frame are per-layer
// metrics. GCC pairs operator new with operator delete and flags the
// free() below once the two are inlined into one caller; they match here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
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
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace hyparview {
namespace {

/// One endpoint upcall in this many is clock-timed.
constexpr std::uint64_t kTimeStride = 16;
/// One timed upcall in this many becomes a span in the Chrome trace.
constexpr std::uint64_t kSpanStride = 16;
constexpr std::size_t kMaxSpans = 100'000;
/// Pass seeds stay below 2^48 so they print exactly in JSON.
constexpr std::uint64_t kSeedMask = (1ull << 48) - 1;

constexpr std::size_t kTags = std::variant_size_v<wire::Message>;
/// Span tag of link_closed upcalls, which carry no frame.
constexpr std::size_t kLinkClosedTag = kTags;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

template <std::size_t... I>
std::array<const char*, kTags> make_type_names(std::index_sequence<I...>) {
  return {wire::type_name(wire::Message(std::in_place_index<I>))...};
}

const char* frame_name(std::size_t tag) {
  static const std::array<const char*, kTags> names =
      make_type_names(std::make_index_sequence<kTags>{});
  return tag < kTags ? names[tag] : "LINK_CLOSED";
}

enum Layer : std::uint8_t { kCore = 0, kGossip = 1 };

/// The frames NodeRuntime hands to its broadcast engine; everything else
/// goes to the membership protocol.
Layer layer_of(const wire::Message& msg) {
  const bool payload_plane = std::holds_alternative<wire::Gossip>(msg) ||
                             std::holds_alternative<wire::GossipAck>(msg) ||
                             std::holds_alternative<wire::TreeGossip>(msg) ||
                             std::holds_alternative<wire::IHave>(msg) ||
                             std::holds_alternative<wire::Graft>(msg) ||
                             std::holds_alternative<wire::Prune>(msg);
  return payload_plane ? kGossip : kCore;
}

/// Upcall totals over the measure phases of one traced pass.
struct LayerCounters {
  std::array<std::uint64_t, kTags> frames{};  ///< deliver upcalls by type
  std::array<std::uint64_t, kTags> bytes{};   ///< their wire_cost (TCP only)
  std::array<std::uint64_t, 2> calls{};       ///< every upcall, by layer
  std::array<std::uint64_t, 2> top_calls{};   ///< not nested in another
  std::array<std::uint64_t, 2> timed{};
  std::array<std::int64_t, 2> timed_ns{};

  /// Sampled time scaled up to every top-level call of the layer.
  [[nodiscard]] double seconds(Layer l) const {
    if (timed[l] == 0) return 0.0;
    return static_cast<double>(timed_ns[l]) * 1e-9 *
           static_cast<double>(top_calls[l]) / static_cast<double>(timed[l]);
  }

  [[nodiscard]] double ns_per_call(Layer l) const {
    return timed[l] == 0 ? 0.0
                         : static_cast<double>(timed_ns[l]) /
                               static_cast<double>(timed[l]);
  }
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::size_t tag = 0;
  Layer layer = kCore;
};

/// Upcall accounting of the traced pass in progress. One instance shared
/// by every TimedEndpoint keeps the decorator at a vptr and a pointer, so
/// wrapping thousands of endpoints adds little cache pressure to the pass
/// it measures (the process is single-threaded).
struct LayerClock {
  LayerCounters counters;
  /// Top-level upcalls; every kTimeStride-th is timed.
  std::uint64_t ticks = 0;
  std::uint64_t timed_total = 0;
  /// > 0 inside an upcall (TCP can nest a send_failed in a deliver).
  int depth = 0;
  bool count_bytes = false;  ///< the simulator counts bytes itself
  /// Sampled spans; reserved up front, so recording never allocates.
  std::vector<Span>* spans = nullptr;
};

LayerClock g_clock;

/// Endpoint decorator: forwards every upcall to the node's runtime and
/// accounts it to a layer in g_clock.
class TimedEndpoint final : public membership::Endpoint {
 public:
  explicit TimedEndpoint(membership::Endpoint& inner) : inner_(&inner) {}

  void deliver(const NodeId& from, const wire::Message& msg) override {
    const std::size_t tag = msg.index();
    ++g_clock.counters.frames[tag];
    if (g_clock.count_bytes) {
      g_clock.counters.bytes[tag] += wire::wire_cost(msg);
    }
    call(layer_of(msg), tag, [&] { inner_->deliver(from, msg); });
  }

  void send_failed(const NodeId& to, const wire::Message& msg) override {
    call(layer_of(msg), msg.index(), [&] { inner_->send_failed(to, msg); });
  }

  void link_closed(const NodeId& peer) override {
    call(kCore, kLinkClosedTag, [&] { inner_->link_closed(peer); });
  }

 private:
  template <typename Fn>
  static void call(Layer layer, std::size_t tag, Fn&& fn) {
    LayerClock& clock = g_clock;
    LayerCounters& c = clock.counters;
    ++c.calls[layer];
    // A nested upcall's time already belongs to the one enclosing it.
    const bool top = clock.depth == 0;
    if (top) ++c.top_calls[layer];
    if (!top || clock.ticks++ % kTimeStride != 0) {
      ++clock.depth;
      fn();
      --clock.depth;
      return;
    }
    ++clock.depth;
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t dur = now_ns() - start;
    --clock.depth;
    ++c.timed[layer];
    c.timed_ns[layer] += dur;
    if (clock.spans != nullptr && clock.timed_total++ % kSpanStride == 0 &&
        clock.spans->size() < clock.spans->capacity()) {
      clock.spans->push_back(Span{start, dur, tag, layer});
    }
  }

  membership::Endpoint* inner_;
};

struct Workload {
  harness::RunSpec spec;  ///< configs + the setup phases
  harness::Experiment measure{"measure"};
  /// Correctness floor on every pass's mean reliability.
  double reliability_floor = 1.0;
  /// Passes per run, sized so a run measures about run_seconds.
  std::uint64_t passes = 0;
};

/// Splits a workload file into a spec document (setup phases) and the
/// measured phase list; both go through the strict spec loaders, so an
/// unknown or mistyped key fails naming its path.
Workload load_workload(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  HPV_CHECK_THROW(doc.is_object(), path + ": expected a JSON object");
  json::Value spec_doc = json::Value::object();
  json::Value measure_doc = json::Value::object();
  Workload w;
  bool has_setup = false;
  bool has_measure = false;
  for (const json::Member& m : doc.as_object()) {
    if (m.first == "setup") {
      spec_doc.set("phases", m.second);
      has_setup = true;
    } else if (m.first == "measure") {
      measure_doc.set("phases", m.second);
      has_measure = true;
    } else if (m.first == "reliability_floor") {
      w.reliability_floor = m.second.as_double();
    } else if (m.first == "passes") {
      const std::int64_t n = m.second.as_int();
      HPV_CHECK_THROW(n > 0, path + ": passes must be positive");
      w.passes = static_cast<std::uint64_t>(n);
    } else {
      spec_doc.set(m.first, m.second);
    }
  }
  HPV_CHECK_THROW(has_setup && has_measure && w.passes > 0,
                  path + ": needs setup and measure phase lists and passes");
  try {
    w.spec = harness::spec_from_json(spec_doc);
    measure_doc.set("name", w.spec.name);
    w.measure = harness::Experiment::from_json(measure_doc);
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
  return w;
}

/// A labelled interval of a pass, for the Chrome trace.
struct Mark {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Monotonic substrate and engine counters, read around the measure phases.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t wire_bytes = 0;
  std::array<std::uint64_t, kTags> sent{};
  std::array<std::uint64_t, kTags> sent_bytes{};
  std::uint64_t payload_bytes = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t grafts = 0;
  std::uint64_t prunes = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t hostile_frames = 0;

  [[nodiscard]] Counters minus(const Counters& o) const {
    Counters d;
    d.events = events - o.events;
    d.send_failures = send_failures - o.send_failures;
    d.connections_opened = connections_opened - o.connections_opened;
    d.wire_bytes = wire_bytes - o.wire_bytes;
    for (std::size_t t = 0; t < kTags; ++t) {
      d.sent[t] = sent[t] - o.sent[t];
      d.sent_bytes[t] = sent_bytes[t] - o.sent_bytes[t];
    }
    d.payload_bytes = payload_bytes - o.payload_bytes;
    d.control_bytes = control_bytes - o.control_bytes;
    d.grafts = grafts - o.grafts;
    d.prunes = prunes - o.prunes;
    d.frames_sent = frames_sent - o.frames_sent;
    d.hostile_frames = hostile_frames - o.hostile_frames;
    return d;
  }
};

struct PassResult {
  std::uint64_t seed = 0;
  bool traced = false;
  double build_s = 0.0;
  double setup_s = 0.0;  ///< build + setup phases
  double work_s = 0.0;   ///< measure phases
  std::vector<std::pair<std::string, double>> phase_s;
  std::vector<Mark> marks;

  // Broadcasts published by the measure phases.
  std::uint64_t published = 0;
  std::uint64_t planned = 0;
  std::uint64_t failed = 0;  ///< did not reach every node alive at publish
  std::uint64_t delivered = 0;
  std::uint64_t hop_sum = 0;
  std::uint64_t max_hop_sum = 0;
  std::uint64_t duplicates = 0;
  double reliability_sum = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::string> unhealed;

  Counters counters;  ///< over the measure phases (hostile frames: whole pass)
  std::uint64_t connections = 0;
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
  std::uint64_t allocs = 0;

  LayerCounters layers;  ///< traced passes only

  [[nodiscard]] double reliability() const {
    return published == 0 ? 0.0
                          : reliability_sum / static_cast<double>(published);
  }
};

Counters snapshot(harness::Cluster& cluster) {
  Counters s;
  harness::Backend& backend = cluster.backend();
  for (std::size_t i = 0; i < backend.node_count(); ++i) {
    gossip::BroadcastEngine& e = backend.engine(i);
    s.payload_bytes += e.payload_bytes_sent();
    s.control_bytes += e.control_bytes_sent();
    s.grafts += e.grafts_sent();
    s.prunes += e.prunes_sent();
  }
  if (harness::SimBackend* sim = cluster.sim_backend()) {
    const sim::Simulator& simulator = sim->simulator();
    s.events = simulator.events_processed();
    s.send_failures = simulator.sends_failed();
    s.connections_opened = simulator.connections_opened();
    s.wire_bytes = simulator.bytes_sent();
    std::copy_n(simulator.sent_by_type().begin(), kTags, s.sent.begin());
    std::copy_n(simulator.bytes_by_type().begin(), kTags, s.sent_bytes.begin());
  } else {
    auto& tcp = dynamic_cast<harness::TcpBackend&>(backend);
    for (std::size_t i = 0; i < tcp.node_count(); ++i) {
      const net::TransportStats& t = tcp.transport(i).stats();
      s.wire_bytes += t.bytes_sent;
      s.frames_sent += t.frames_sent;
      // oversized_frames are counted as malformed too.
      s.hostile_frames += t.malformed_frames + t.frames_before_hello;
    }
  }
  return s;
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// Broadcasts a measure phase publishes, given how it ran.
std::uint64_t planned_broadcasts(const harness::Experiment::Phase& phase,
                                 const harness::PhaseResult& result) {
  using PK = harness::Experiment::PhaseKind;
  switch (phase.kind) {
    case PK::kBroadcast: return phase.count;
    case PK::kHealUntil: return result.cycles_to_heal * phase.count;
    case PK::kPubSub:
      return phase.pubsub.sources * phase.pubsub.rate * phase.pubsub.ticks;
    default: return 0;
  }
}

/// Appends one mark per phase; phases run back to back from `start_ns`.
void mark_phases(const harness::ExperimentResult& result, std::int64_t start_ns,
                 std::vector<Mark>& marks) {
  std::int64_t at = start_ns;
  for (const harness::PhaseResult& p : result.phases) {
    const auto dur = static_cast<std::int64_t>(p.wall_seconds * 1e9);
    marks.push_back(Mark{p.label, at, at + dur});
    at += dur;
  }
}

void run_pass(const Workload& w, std::uint64_t seed, bool traced,
              std::vector<Span>* spans, PassResult& r) {
  r.seed = seed;
  r.traced = traced;
  harness::RunSpec spec = w.spec;
  spec.net.seed = seed;
  spec.net.sim.seed = seed;
  spec.tcp.seed = seed;
  const bool tcp = spec.backend == "tcp";

  // Declared before the cluster so they outlive it: the substrate keeps
  // pointers to them until it is torn down.
  std::vector<TimedEndpoint> probes;
  harness::Cluster cluster =
      tcp ? harness::Cluster::tcp(spec.tcp) : harness::Cluster::sim(spec.net);
  harness::Backend& backend = cluster.backend();

  const std::int64_t t0 = now_ns();
  backend.build();
  const std::int64_t built = now_ns();
  r.build_s = seconds_between(t0, built);
  if (traced) {
    g_clock = LayerClock{};
    g_clock.count_bytes = tcp;
    g_clock.spans = spans;
    probes.reserve(backend.node_count());
    for (std::size_t i = 0; i < backend.node_count(); ++i) {
      if (tcp) {
        auto& t = dynamic_cast<harness::TcpBackend&>(backend);
        probes.emplace_back(t.runtime(i));
        t.transport(i).set_endpoint(&probes.back());
      } else {
        harness::SimBackend& s = *cluster.sim_backend();
        probes.emplace_back(s.runtime(i));
        s.simulator().set_handler(s.id_of(i), &probes.back());
      }
    }
  }
  const std::int64_t setup_start = now_ns();
  const harness::ExperimentResult setup = cluster.run(spec.experiment);
  const std::int64_t setup_end = now_ns();
  r.setup_s = seconds_between(t0, setup_end);

  const Counters before = snapshot(cluster);
  g_clock.counters = LayerCounters{};
  const std::size_t first_msg = backend.recorder().results().size();
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t m0 = now_ns();
  const harness::ExperimentResult measured = cluster.run(w.measure);
  const std::int64_t m1 = now_ns();
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  const Counters after = snapshot(cluster);
  r.work_s = seconds_between(m0, m1);
  r.allocs = allocs1 - allocs0;
  r.cpu_user_s = cpu_seconds(ru1.ru_utime) - cpu_seconds(ru0.ru_utime);
  r.cpu_sys_s = cpu_seconds(ru1.ru_stime) - cpu_seconds(ru0.ru_stime);
  if (traced) r.layers = g_clock.counters;

  r.counters = after.minus(before);
  r.counters.hostile_frames = after.hostile_frames;
  if (tcp) {
    // The transport has no per-type send counters; count what the
    // receiving endpoints saw (traced passes only).
    r.counters.sent = r.layers.frames;
    r.counters.sent_bytes = r.layers.bytes;
  }
  if (tcp) {
    auto& t = dynamic_cast<harness::TcpBackend&>(backend);
    for (std::size_t i = 0; i < t.node_count(); ++i) {
      if (t.alive(i)) r.connections += t.transport(i).connection_count();
    }
  }

  const auto& results = backend.recorder().results();
  r.latency_ms.reserve(results.size() - first_msg);
  for (std::size_t m = first_msg; m < results.size(); ++m) {
    const analysis::MessageResult& msg = results[m];
    ++r.published;
    if (msg.delivered < msg.alive_nodes) ++r.failed;
    r.delivered += msg.delivered;
    r.reliability_sum += msg.reliability();
    r.hop_sum += msg.hop_sum;
    r.max_hop_sum += msg.max_hops;
    r.duplicates += msg.duplicates;
    r.latency_ms.push_back(static_cast<double>(msg.latency_to_last()) / 1e3);
  }

  const auto& phases = w.measure.phases();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    r.planned += planned_broadcasts(phases[i], measured.phases[i]);
    if (phases[i].kind == harness::Experiment::PhaseKind::kHealUntil &&
        !measured.phases[i].recovered) {
      r.unhealed.push_back(phases[i].label);
    }
  }
  for (const auto* exp : {&setup, &measured}) {
    for (const harness::PhaseResult& p : exp->phases) {
      r.phase_s.emplace_back(p.label, p.wall_seconds);
    }
  }
  if (spans != nullptr) {
    r.marks.push_back(Mark{"pass", t0, m1});
    r.marks.push_back(Mark{"build", t0, built});
    r.marks.push_back(Mark{"setup", setup_start, setup_end});
    mark_phases(setup, setup_start, r.marks);
    r.marks.push_back(Mark{"measure", m0, m1});
    mark_phases(measured, m0, r.marks);
  }
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto): the pass, its
/// setup/measure halves and every phase as complete events, with the
/// sampled handler spans nested inside the phase that contains them.
void write_chrome_trace(const std::string& path, const PassResult& pass,
                        const std::vector<Span>& spans,
                        const std::string& workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  HPV_CHECK_THROW(f != nullptr, "hpv_bench: cannot write " + path);
  const std::int64_t base = pass.marks.front().start_ns;
  const auto us = [base](std::int64_t ns) {
    return static_cast<double>(ns - base) / 1e3;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
                  "\"%s\",\"seed\":%llu,\"time_stride\":%llu,"
                  "\"span_stride\":%llu},\"traceEvents\":[\n",
               workload.c_str(), static_cast<unsigned long long>(pass.seed),
               static_cast<unsigned long long>(kTimeStride),
               static_cast<unsigned long long>(kSpanStride));
  bool first = true;
  for (const Mark& m : pass.marks) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"harness\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",\n", m.name.c_str(), us(m.start_ns),
                 static_cast<double>(m.end_ns - m.start_ns) / 1e3);
    first = false;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 frame_name(s.tag), s.layer == kGossip ? "gossip" : "core",
                 us(s.start_ns), static_cast<double>(s.dur_ns) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  HPV_CHECK_THROW(std::fclose(f) == 0, "hpv_bench: cannot write " + path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted values.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double as_double(std::uint64_t v) { return static_cast<double>(v); }

/// The passes of a run, grouped the way the metrics pool them.
struct PassSets {
  std::vector<const PassResult*> clean;   ///< untraced passes
  std::vector<const PassResult*> traced;  ///< traced twins
};

template <typename Fn>
double median_of(const std::vector<const PassResult*>& passes, Fn&& fn) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const PassResult* p : passes) v.push_back(fn(*p));
  return median(v);
}

template <typename Fn>
double sum_of(const std::vector<const PassResult*>& passes, Fn&& fn) {
  double total = 0.0;
  for (const PassResult* p : passes) total += fn(*p);
  return total;
}

// Per-pass quantities the metrics pool or take medians of.
double published_of(const PassResult& p) { return as_double(p.published); }
double delivered_of(const PassResult& p) { return as_double(p.delivered); }
double events_of(const PassResult& p) { return as_double(p.counters.events); }
double allocs_of(const PassResult& p) { return as_double(p.allocs); }
double frames_of(const PassResult& p) {
  return as_double(p.counters.frames_sent);
}
double cpu_of(const PassResult& p) { return p.cpu_user_s + p.cpu_sys_s; }
double handler_s_of(const PassResult& p) {
  return p.layers.seconds(kCore) + p.layers.seconds(kGossip);
}

class MetricSet {
 public:
  /// `is_exact`: fixed by the seed, so an A/B must find it equal.
  void add(const std::string& name, double value, const char* unit,
           bool is_exact = false) {
    json::Value m = json::Value::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
    if (is_exact) exact.push_back(name);
  }
  json::Value metrics = json::Value::object();
  json::Value exact = json::Value::array();
};

/// The outcome fields the simulator must reproduce bit for bit.
bool same_outcome(const PassResult& a, const PassResult& b) {
  const Counters& x = a.counters;
  const Counters& y = b.counters;
  return x.events == y.events && x.wire_bytes == y.wire_bytes &&
         x.sent == y.sent && x.grafts == y.grafts && x.prunes == y.prunes &&
         a.published == b.published && a.failed == b.failed &&
         a.delivered == b.delivered && a.hop_sum == b.hop_sum &&
         a.duplicates == b.duplicates && a.latency_ms == b.latency_ms;
}

json::Value check(const std::string& name, const std::string& problems,
                  const std::string& context = "") {
  json::Value c = json::Value::object();
  c.set("name", name);
  c.set("ok", problems.empty());
  c.set("detail", context + problems);
  return c;
}

/// The correctness gate: every pass published what its phases planned,
/// kept the workload's reliability floor, healed every heal_until phase,
/// and saw no hostile frame; on the simulator each traced twin reached its
/// untraced pass's outcome exactly.
json::Value gate(const Workload& w, const std::deque<PassResult>& passes,
                 bool twins) {
  std::string plan;
  std::string floor;
  std::string heal;
  std::string drift;
  std::uint64_t hostile = 0;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    const std::string seed = "seed " + std::to_string(p.seed);
    hostile += p.counters.hostile_frames;
    if (p.published != p.planned || p.published == 0) {
      plan += seed + ": published " + std::to_string(p.published) + " of " +
              std::to_string(p.planned) + "; ";
    }
    if (p.reliability() < w.reliability_floor) {
      floor += seed + ": " + std::to_string(p.reliability()) + "; ";
    }
    for (const std::string& label : p.unhealed) {
      heal += seed + ": phase '" + label + "' did not recover; ";
    }
    if (twins && p.traced && !same_outcome(passes[i - 1], p)) {
      drift += seed + "; ";
    }
  }
  json::Value checks = json::Value::array();
  checks.push_back(check("published_equals_planned", plan));
  checks.push_back(check("reliability_floor", floor,
                         "floor " + std::to_string(w.reliability_floor) +
                             "; "));
  checks.push_back(check("heals", heal));
  checks.push_back(check("hostile_frames_zero",
                         hostile == 0 ? "" : std::to_string(hostile)));
  if (twins) checks.push_back(check("tracing_keeps_outcome", drift));
  return checks;
}

/// End-to-end metrics from the untraced passes. Outcomes pool every pass,
/// so on the simulator they are exact per --seed.
MetricSet end_to_end(const PassSets& s, bool sim, long peak_rss_kb,
                     std::size_t& latency_samples) {
  const std::vector<const PassResult*>& pooled = s.clean;
  std::vector<double> latency;
  for (const PassResult* p : pooled) {
    latency.insert(latency.end(), p->latency_ms.begin(), p->latency_ms.end());
  }
  std::sort(latency.begin(), latency.end());
  latency_samples = latency.size();
  const double published = sum_of(pooled, published_of);

  MetricSet m;
  m.add("setup_s", median_of(s.clean, [](const PassResult& p) {
          return p.setup_s;
        }), "s");
  m.add("work_s", median_of(s.clean, [](const PassResult& p) {
          return p.work_s;
        }), "s");
  m.add("msgs_per_s", median_of(s.clean, [](const PassResult& p) {
          return ratio(p.reliability_sum, p.work_s);
        }), "msg/s");
  m.add("latency_p50_ms", percentile(latency, 0.50), "ms", sim);
  m.add("latency_p99_ms", percentile(latency, 0.99), "ms", sim);
  m.add("reliability", ratio(sum_of(pooled, [](const PassResult& p) {
          return p.reliability_sum;
        }), published), "fraction", sim);
  m.add("wire_bytes_per_msg", ratio(sum_of(pooled, [](const PassResult& p) {
          return as_double(p.counters.wire_bytes);
        }), published), "B", sim);
  m.add("cpu_us_per_delivery", median_of(s.clean, [](const PassResult& p) {
          return ratio(cpu_of(p) * 1e6, delivered_of(p));
        }), "us");
  m.add("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB");
  return m;
}

/// Per-layer metrics: counts summed over the traced twins (exact on the
/// simulator), upcall times as medians over the traced twins, wall and CPU
/// shares as medians over the untraced passes. A layer the workload
/// bypasses reads 0.
MetricSet per_layer(const PassSets& s, const std::deque<PassResult>& passes,
                    bool sim) {
  const auto total = [&s](auto fn) { return sum_of(s.traced, fn); };
  const double published = total(published_of);
  const double delivered = total(delivered_of);
  const double frames = total(frames_of);
  const std::size_t gossip = wire::Message(wire::Gossip{}).index();
  const std::size_t tree = wire::Message(wire::TreeGossip{}).index();
  const double payload_frames = total([gossip, tree](const PassResult& p) {
    return as_double(p.layers.frames[gossip] + p.layers.frames[tree]);
  });
  const auto per_msg = [&](auto fn) { return ratio(total(fn), published); };

  MetricSet m;
  m.add("harness.build_s", median_of(s.clean, [](const PassResult& p) {
          return p.build_s;
        }), "s");
  for (const auto& phase : s.clean.front()->phase_s) {
    const std::string& label = phase.first;
    m.add("harness." + label + "_s",
          median_of(s.clean, [&label](const PassResult& p) {
            for (const auto& [l, secs] : p.phase_s) {
              if (l == label) return secs;
            }
            return 0.0;
          }), "s");
  }

  m.add("sim.events", total(events_of), "count", sim);
  m.add("sim.ns_per_event", median_of(s.clean, [](const PassResult& p) {
          return ratio(p.work_s * 1e9, events_of(p));
        }), "ns");
  m.add("sim.self_s", !sim ? 0.0 : median_of(s.traced, [](const PassResult& p) {
          return p.work_s - handler_s_of(p);
        }), "s");
  m.add("sim.allocs_per_event",
        ratio(sum_of(s.clean, allocs_of), sum_of(s.clean, events_of)),
        "count");
  m.add("sim.send_failures", total([](const PassResult& p) {
          return as_double(p.counters.send_failures);
        }), "count", sim);
  m.add("sim.connections_opened", total([](const PassResult& p) {
          return as_double(p.counters.connections_opened);
        }), "count", sim);

  for (std::size_t t = 0; t < kTags; ++t) {
    const std::string type = frame_name(t);
    m.add("wire.sent." + type, total([t](const PassResult& p) {
            return as_double(p.counters.sent[t]);
          }), "count", sim);
    m.add("wire.bytes." + type, total([t](const PassResult& p) {
            return as_double(p.counters.sent_bytes[t]);
          }), "B", sim);
  }

  for (const Layer l : {kCore, kGossip}) {
    const std::string prefix = l == kCore ? "core." : "gossip.";
    m.add(prefix + "handle_calls", total([l](const PassResult& p) {
            return as_double(p.layers.calls[l]);
          }), "count", sim);
    m.add(prefix + "handle_s", median_of(s.traced, [l](const PassResult& p) {
            return p.layers.seconds(l);
          }), "s");
    m.add(prefix + "ns_per_handle",
          median_of(s.traced, [l](const PassResult& p) {
            return p.layers.ns_per_call(l);
          }), "ns");
  }
  m.add("gossip.frames_per_msg", ratio(payload_frames, published), "count",
        sim);
  m.add("gossip.dups_per_msg", per_msg([](const PassResult& p) {
          return as_double(p.duplicates);
        }), "count", sim);
  m.add("gossip.useful_ratio", ratio(delivered - published, payload_frames),
        "ratio", sim);
  m.add("gossip.payload_bytes_per_msg", per_msg([](const PassResult& p) {
          return as_double(p.counters.payload_bytes);
        }), "B", sim);
  m.add("gossip.control_bytes_per_msg", per_msg([](const PassResult& p) {
          return as_double(p.counters.control_bytes);
        }), "B", sim);
  m.add("gossip.grafts", total([](const PassResult& p) {
          return as_double(p.counters.grafts);
        }), "count", sim);
  m.add("gossip.prunes", total([](const PassResult& p) {
          return as_double(p.counters.prunes);
        }), "count", sim);

  m.add("analysis.avg_hops", ratio(total([](const PassResult& p) {
          return as_double(p.hop_sum);
        }), delivered), "hops", sim);
  m.add("analysis.max_hops", per_msg([](const PassResult& p) {
          return as_double(p.max_hop_sum);
        }), "hops", sim);

  // Real-socket shares; the simulator has no kernel or idle time.
  double bytes_per_frame = 0.0;
  double sys_share = 0.0;
  double handler_s = 0.0;
  double loop_self_s = 0.0;
  double idle_share = 0.0;
  if (!sim) {
    bytes_per_frame = ratio(total([](const PassResult& p) {
      return as_double(p.counters.wire_bytes);
    }), frames);
    sys_share = median_of(s.clean, [](const PassResult& p) {
      return ratio(p.cpu_sys_s, cpu_of(p));
    });
    handler_s = median_of(s.traced, handler_s_of);
    loop_self_s = median_of(s.traced, [](const PassResult& p) {
      return cpu_of(p) - handler_s_of(p);
    });
    idle_share = median_of(s.clean, [](const PassResult& p) {
      return 1.0 - ratio(cpu_of(p), p.work_s);
    });
  }
  m.add("net.frames_per_msg", ratio(frames, published), "count");
  m.add("net.bytes_per_frame", bytes_per_frame, "B");
  m.add("net.allocs_per_frame",
        ratio(sum_of(s.clean, allocs_of), sum_of(s.clean, frames_of)),
        "count");
  m.add("net.sys_cpu_share", sys_share, "ratio");
  m.add("net.handler_s", handler_s, "s");
  m.add("net.loop_self_s", loop_self_s, "s");
  m.add("net.idle_share", idle_share, "ratio");
  m.add("net.connections", as_double(s.clean.front()->connections), "count");
  m.add("net.hostile_frames", total([](const PassResult& p) {
          return as_double(p.counters.hostile_frames);
        }), "count");

  std::vector<double> overhead;
  for (std::size_t i = 0; i + 1 < passes.size(); i += 2) {
    overhead.push_back(ratio(passes[i + 1].work_s, passes[i].work_s) - 1.0);
  }
  m.add("trace.overhead", median(overhead), "ratio");
  return m;
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  args.check_known({"workload", "seed", "trace", "trace-out"});
  const std::string path = args.get("workload", "");
  HPV_CHECK_THROW(!path.empty(), "hpv_bench: --workload=<file> is required");
  const std::int64_t seed_arg = args.get_int("seed", 1);
  HPV_CHECK_THROW(seed_arg >= 0, "hpv_bench: --seed must be non-negative");
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool trace = args.get_int("trace", 0) != 0;
  const std::string trace_out = args.get("trace-out", "");

  const Workload w = load_workload(path);
  const bool sim = w.spec.backend == "sim";

  // With --trace=1 each pass has a traced twin on the same seed.
  std::vector<Span> spans;
  std::deque<PassResult> passes;
  PassSets sets;
  for (std::uint64_t k = 0; k < w.passes; ++k) {
    const std::uint64_t pass_seed = derive_seed(seed, k) & kSeedMask;
    PassResult& clean = passes.emplace_back();
    run_pass(w, pass_seed, false, nullptr, clean);
    sets.clean.push_back(&clean);
    if (!trace) continue;
    const bool record = k == 0 && !trace_out.empty();
    if (record) spans.reserve(kMaxSpans);
    PassResult& twin = passes.emplace_back();
    run_pass(w, pass_seed, true, record ? &spans : nullptr, twin);
    sets.traced.push_back(&twin);
    if (record) write_chrome_trace(trace_out, twin, spans, w.spec.name);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const long peak_rss_kb = usage.ru_maxrss;

  json::Value checks = gate(w, passes, trace && sim);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const json::Value& c : checks.as_array()) {
    correct = correct && c.find("ok")->as_bool();
  }
  for (const PassResult& p : passes) {
    attempted += p.published;
    failed += p.failed;
  }
  std::size_t latency_samples = 0;
  MetricSet e2e = end_to_end(sets, sim, peak_rss_kb, latency_samples);

  json::Value out = json::Value::object();
  out.set("workload", w.spec.name);
  out.set("backend", w.spec.backend);
  out.set("seed", seed);
  out.set("trace", trace);
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("latency_samples", latency_samples);
  out.set("checks", std::move(checks));
  out.set("end_to_end", std::move(e2e.metrics));
  json::Value exact = std::move(e2e.exact);
  if (trace) {
    MetricSet layer = per_layer(sets, passes, sim);
    out.set("per_layer", std::move(layer.metrics));
    for (const json::Value& name : layer.exact.as_array()) {
      exact.push_back(name);
    }
    if (!trace_out.empty()) out.set("trace_file", trace_out);
  }
  out.set("exact", std::move(exact));

  json::Value runs = json::Value::array();
  for (const PassResult& p : passes) {
    json::Value r = json::Value::object();
    r.set("seed", p.seed);
    r.set("traced", p.traced);
    r.set("setup_s", p.setup_s);
    r.set("work_s", p.work_s);
    r.set("published", p.published);
    r.set("failed", p.failed);
    runs.push_back(std::move(r));
  }
  out.set("passes", std::move(runs));
  json::Value build = json::Value::object();
  build.set("compiler", __VERSION__);
  build.set("build_type", HPV_BENCH_BUILD_TYPE);
  out.set("build", std::move(build));

  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace hyparview

int main(int argc, char** argv) {
  try {
    return hyparview::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpv_bench: %s\n", e.what());
    return 2;
  }
}
