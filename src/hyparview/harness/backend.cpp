#include "hyparview/harness/backend.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <utility>

#include "hyparview/baselines/cyclon.hpp"
#include "hyparview/baselines/scamp.hpp"
#include "hyparview/common/assert.hpp"
#include "hyparview/harness/adversary.hpp"
#include "hyparview/harness/cluster_config.hpp"

namespace hyparview::harness {

namespace {

/// Session length in cycles, drawn from the configured heavy-tailed
/// distribution (inverse-CDF for Pareto, Box–Muller for lognormal) off the
/// shared harness stream. Clamped to at least one full cycle.
double draw_session(Rng& rng, const HeavyChurnConfig& cfg) {
  switch (cfg.dist) {
    case HeavyChurnConfig::Dist::kPareto: {
      // unit() ∈ [0,1); 1-u ∈ (0,1] keeps the pow argument positive.
      const double u = rng.unit();
      return cfg.pareto_xm * std::pow(1.0 - u, -1.0 / cfg.pareto_alpha);
    }
    case HeavyChurnConfig::Dist::kLognormal: {
      const double u1 = std::max(rng.unit(), 1e-12);
      const double u2 = rng.unit();
      const double z = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * std::numbers::pi * u2);
      return std::exp(cfg.lognormal_mu + cfg.lognormal_sigma * z);
    }
  }
  return 1.0;
}

/// The scalar counters by report name; named() and operator- walk it.
struct CounterField {
  const char* name;
  std::uint64_t Counters::*member;
};
constexpr CounterField kCounterFields[] = {
    {"frames_sent", &Counters::frames_sent},
    {"bytes_sent", &Counters::bytes_sent},
    {"send_failures", &Counters::send_failures},
    {"connections_opened", &Counters::connections_opened},
    {"payload_bytes", &Counters::payload_bytes},
    {"control_bytes", &Counters::control_bytes},
    {"forwards", &Counters::forwards},
    {"duplicates", &Counters::duplicates},
    {"grafts", &Counters::grafts},
    {"prunes", &Counters::prunes},
    {"promotions", &Counters::promotions},
    {"warm_promotions", &Counters::warm_promotions},
    {"joins", &Counters::joins},
    {"graceful_leaves", &Counters::graceful_leaves},
    {"crashes", &Counters::crashes},
};

template <std::size_t... I>
std::array<const char*, sizeof...(I)> wire_type_names(
    std::index_sequence<I...>) {
  return {wire::type_name(wire::Message(std::in_place_index<I>))...};
}

}  // namespace

Counters Counters::operator-(const Counters& before) const {
  Counters d;
  for (const CounterField& f : kCounterFields) {
    d.*f.member = this->*f.member - before.*f.member;
  }
  for (std::size_t t = 0; t < kWireTypes; ++t) {
    d.frames_by_type[t] = frames_by_type[t] - before.frames_by_type[t];
    d.bytes_by_type[t] = bytes_by_type[t] - before.bytes_by_type[t];
  }
  return d;
}

std::vector<std::pair<std::string, std::uint64_t>> Counters::named() const {
  static const auto type_names =
      wire_type_names(std::make_index_sequence<kWireTypes>{});
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(std::size(kCounterFields) + 2 * kWireTypes);
  for (const CounterField& f : kCounterFields) {
    out.emplace_back(f.name, this->*f.member);
  }
  for (std::size_t t = 0; t < kWireTypes; ++t) {
    out.emplace_back(std::string("frames_") + type_names[t],
                     frames_by_type[t]);
  }
  for (std::size_t t = 0; t < kWireTypes; ++t) {
    out.emplace_back(std::string("bytes_") + type_names[t], bytes_by_type[t]);
  }
  return out;
}

const char* kind_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kHyParView: return "HyParView";
    case ProtocolKind::kCyclon: return "Cyclon";
    case ProtocolKind::kCyclonAcked: return "CyclonAcked";
    case ProtocolKind::kScamp: return "Scamp";
  }
  return "?";
}

const std::vector<ProtocolKind>& all_protocol_kinds() {
  static const std::vector<ProtocolKind> kinds = {
      ProtocolKind::kHyParView, ProtocolKind::kCyclonAcked,
      ProtocolKind::kCyclon, ProtocolKind::kScamp};
  return kinds;
}

ClusterConfig ClusterConfig::defaults_for(ProtocolKind kind,
                                          std::size_t nodes,
                                          std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.kind = kind;
  cfg.node_count = nodes;
  cfg.seed = seed;
  // §5.1 parameters.
  cfg.gossip.fanout = 4;
  cfg.hyparview.active_capacity = 5;   // fanout + 1
  cfg.hyparview.passive_capacity = 30;
  cfg.hyparview.arwl = 6;
  cfg.hyparview.prwl = 3;
  cfg.hyparview.shuffle_ka = 3;
  cfg.hyparview.shuffle_kp = 4;
  cfg.hyparview.shuffle_ttl = 6;
  cfg.cyclon.view_capacity = 35;       // HyParView active + passive
  cfg.cyclon.shuffle_length = 14;
  cfg.cyclon.join_walk_ttl = 5;
  cfg.scamp.c = 4;
  cfg.cyclon.purge_on_unreachable = (kind == ProtocolKind::kCyclonAcked);
  switch (kind) {
    case ProtocolKind::kHyParView:
      cfg.gossip.mode = gossip::Mode::kFlood;
      break;
    case ProtocolKind::kCyclonAcked:
      cfg.gossip.mode = gossip::Mode::kRandomFanoutAcked;
      break;
    case ProtocolKind::kCyclon:
    case ProtocolKind::kScamp:
      cfg.gossip.mode = gossip::Mode::kRandomFanout;
      break;
  }
  // The harness drains every broadcast before starting the next, so at most
  // a handful of ids ever have copies in flight — 128 leaves two orders of
  // magnitude of slack over that in-flight horizon. Keeping the per-node
  // window small matters at paper scale: 10k windows are probed once per
  // delivery, and their combined footprint decides whether the dedup path
  // hits cache or DRAM.
  cfg.gossip.dedup_window = 128;
  return cfg;
}

Backend::Backend(const ClusterConfig& config, bool real_addresses) {
  HPV_CHECK_THROW(config.node_count >= 2,
                  "cluster needs at least two nodes");
  if (config.adversary.enabled()) {
    adversary_ = std::make_unique<Adversary>(config.adversary, config.seed,
                                             real_addresses);
    adversary_->select(config.node_count);
  }
  runtimes_.reserve(config.node_count);
}

Backend::~Backend() = default;

gossip::NodeRuntime& Backend::runtime(std::size_t i) {
  HPV_CHECK(i < runtimes_.size());
  return *runtimes_[i];
}

const gossip::NodeRuntime& Backend::runtime(std::size_t i) const {
  HPV_CHECK(i < runtimes_.size());
  return *runtimes_[i];
}

std::unique_ptr<gossip::NodeRuntime> Backend::make_runtime(
    membership::Env& env, std::size_t index, const core::Config& hyparview,
    gossip::DeliveryObserver& observer) {
  const ClusterConfig& cfg = cluster_config();
  std::unique_ptr<membership::Protocol> inner;
  switch (cfg.kind) {
    case ProtocolKind::kHyParView:
      inner = std::make_unique<core::HyParView>(env, hyparview);
      break;
    case ProtocolKind::kCyclon:
    case ProtocolKind::kCyclonAcked:
      inner = std::make_unique<baselines::Cyclon>(env, cfg.cyclon);
      break;
    case ProtocolKind::kScamp:
      inner = std::make_unique<baselines::Scamp>(env, cfg.scamp);
      break;
  }
  HPV_CHECK(inner != nullptr);
  if (adversary_ != nullptr && adversary_->is_adversarial(index)) {
    adversary_->add_colluder(env.self());
    inner = std::make_unique<AdversarialProtocol>(env, std::move(inner),
                                                  cfg.kind, *adversary_);
  }
  return std::make_unique<gossip::NodeRuntime>(env, std::move(inner),
                                               cfg.gossip, &observer);
}

void Backend::build() {
  HPV_CHECK(!built_);
  built_ = true;
  const ClusterConfig& cfg = cluster_config();
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    runtimes_.push_back(spawn_node(i));
  }
  // Joins happen one by one with no membership rounds in between (§5);
  // each join's traffic settles before the next node joins.
  protocol(0).start(std::nullopt);
  settle_join();
  for (std::size_t i = 1; i < cfg.node_count; ++i) {
    std::size_t contact = 0;
    if (cfg.kind == ProtocolKind::kScamp) {
      // Scamp joins through a random node already in the overlay.
      contact = static_cast<std::size_t>(rng().below(i));
    }
    protocol(i).start(id_of(contact));
    settle_join();
  }
}

std::size_t Backend::add_node() {
  HPV_CHECK(built_);
  // Checked before the node is created: once the joiner exists it is itself
  // alive, and the contact-selection loop below would otherwise spin
  // forever drawing the joiner as its own contact.
  HPV_CHECK_THROW(alive_count() > 0,
                  "add_node: no alive node left to act as join contact");
  const std::size_t index = node_count();
  runtimes_.push_back(spawn_node(index));
  std::size_t contact = index;
  while (contact == index) contact = random_alive_node();
  protocol(index).start(id_of(contact));
  settle_join();
  ++performed_.joins;
  return index;
}

std::uint64_t Backend::inject_broadcast(std::size_t source) {
  HPV_CHECK(source < node_count() && alive(source));
  const std::uint64_t msg_id = next_msg_id_++;
  recorder_.begin_message(msg_id, alive_count());
  engine(source).broadcast(msg_id);
  return msg_id;
}

analysis::MessageResult Backend::broadcast_from(std::size_t source) {
  const std::uint64_t msg_id = inject_broadcast(source);
  settle_broadcasts({&msg_id, 1});
  return recorder_.result(msg_id);
}

void Backend::set_fanout(std::size_t fanout) {
  cluster_config().gossip.fanout = fanout;
  for (std::size_t i = 0; i < node_count(); ++i) {
    engine(i).set_fanout(fanout);
  }
}

std::size_t Backend::random_alive_node() {
  // A spec can crash every node (crash or pubsub churn_fraction 1.0): that
  // is bad input, not a broken invariant, so it must not abort.
  HPV_CHECK_THROW(alive_count() > 0, "no alive node left");
  while (true) {
    const auto i = static_cast<std::size_t>(rng().below(node_count()));
    if (alive(i)) return i;
  }
}

void Backend::leave_node(std::size_t i, bool graceful) {
  HPV_CHECK(i < node_count());
  if (!alive(i)) return;
  if (graceful) {
    protocol(i).leave();
    flush_goodbyes();
  }
  // The process exits right after writing its goodbyes: it must not keep
  // participating (e.g. accepting NEIGHBOR requests back into active
  // views) while they are in flight.
  kill_node(i);
  ++(graceful ? performed_.graceful_leaves : performed_.crashes);
  settle();
}

void Backend::fail_random_fraction(double fraction) {
  HPV_CHECK_THROW(fraction >= 0.0 && fraction <= 1.0,
                  "failure fraction must be within [0,1]");
  std::vector<std::size_t> alive_ids;
  alive_ids.reserve(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (alive(i)) alive_ids.push_back(i);
  }
  const auto count =
      static_cast<std::size_t>(fraction * static_cast<double>(alive_ids.size()));
  for (const std::size_t i : rng().sample(alive_ids, count)) {
    kill_node(i);
  }
  performed_.crashes += count;
}

analysis::MessageResult Backend::broadcast_one() {
  return broadcast_from(random_alive_node());
}

std::vector<analysis::MessageResult> Backend::broadcast_many(
    std::size_t count) {
  std::vector<analysis::MessageResult> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(broadcast_one());
  return out;
}

double Backend::probe_reliability(std::size_t count) {
  HPV_CHECK(count > 0);
  double sum = 0.0;
  for (std::size_t i = 0; i < count; ++i) sum += broadcast_one().reliability();
  return sum / static_cast<double>(count);
}

void Backend::leave_random(std::size_t count, double graceful_fraction) {
  for (std::size_t l = 0; l < count; ++l) {
    if (alive_count() <= 2) break;
    const std::size_t victim = random_alive_node();
    const bool graceful = rng().chance(graceful_fraction);
    leave_node(victim, graceful);
  }
}

Counters Backend::counters() const {
  Counters c = performed_;
  read_substrate_counters(c);
  for (std::size_t i = 0; i < node_count(); ++i) {
    const gossip::BroadcastEngine& e = runtime(i).gossip();
    c.payload_bytes += e.payload_bytes_sent();
    c.control_bytes += e.control_bytes_sent();
    c.forwards += e.messages_forwarded();
    c.duplicates += e.duplicates_received();
    c.grafts += e.grafts_sent();
    c.prunes += e.prunes_sent();
    if (const auto* hpv =
            dynamic_cast<const core::HyParView*>(&protocol(i))) {
      c.promotions += hpv->stats().promotions;
      c.warm_promotions += hpv->stats().warm_promotions;
    }
  }
  return c;
}

graph::Digraph Backend::dissemination_graph(bool alive_only) const {
  graph::Digraph g(node_count());
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (alive_only && !alive(i)) continue;
    for (const NodeId& peer : protocol(i).dissemination_view()) {
      const std::size_t j = peer_slot(peer);
      if (j == kNoPeer) continue;  // peer outside this cluster
      if (alive_only && !alive(j)) continue;
      g.add_edge(static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j));
    }
  }
  g.dedupe();
  return g;
}

double Backend::view_accuracy() const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (!alive(i)) continue;
    const auto view = protocol(i).dissemination_view();
    if (view.empty()) continue;
    std::size_t live = 0;
    for (const NodeId& peer : view) {
      const std::size_t j = peer_slot(peer);
      if (j != kNoPeer && alive(j)) ++live;
    }
    sum += static_cast<double>(live) / static_cast<double>(view.size());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

std::vector<double> Backend::run_churn(const ChurnConfig& cfg) {
  HPV_CHECK(built());
  std::vector<double> per_cycle;
  for (std::size_t cycle = 0; cycle < cfg.cycles; ++cycle) {
    for (std::size_t j = 0; j < cfg.joins_per_cycle; ++j) add_node();
    leave_random(cfg.leaves_per_cycle, cfg.graceful_fraction);
    run_cycles(1);
    if (cfg.probes_per_cycle > 0) {
      per_cycle.push_back(probe_reliability(cfg.probes_per_cycle));
    }
  }
  return per_cycle;
}

std::vector<double> Backend::run_heavy_churn(const HeavyChurnConfig& cfg,
                                             HeavyChurnStats& stats) {
  HPV_CHECK(built());
  stats = {};
  struct Session {
    std::size_t index;
    std::size_t expires_at;  ///< cycle number the session ends on
  };
  std::vector<Session> sessions;
  std::vector<double> per_cycle;
  double session_sum = 0.0;
  for (std::size_t cycle = 0; cycle < cfg.cycles; ++cycle) {
    for (std::size_t j = 0; j < cfg.joins_per_cycle; ++j) {
      const std::size_t index = add_node();
      const double drawn = std::max(1.0, draw_session(rng(), cfg));
      session_sum += drawn;
      stats.max_session_cycles = std::max(stats.max_session_cycles, drawn);
      sessions.push_back(
          Session{index, cycle + static_cast<std::size_t>(drawn)});
    }
    // Expire due sessions in join order (one deterministic order for both
    // backends). The graceful/crash draw happens per expiry, like
    // leave_random's per-victim draw.
    std::size_t kept = 0;
    for (const Session& s : sessions) {
      if (s.expires_at > cycle) {
        sessions[kept++] = s;
        continue;
      }
      if (alive_count() <= 2 || !alive(s.index)) continue;
      leave_node(s.index, rng().chance(cfg.graceful_fraction));
    }
    sessions.resize(kept);
    run_cycles(1);
    if (cfg.probes_per_cycle > 0) {
      per_cycle.push_back(probe_reliability(cfg.probes_per_cycle));
    }
  }
  const std::size_t joins = cfg.cycles * cfg.joins_per_cycle;
  if (joins > 0) {
    stats.mean_session_cycles = session_sum / static_cast<double>(joins);
  }
  return per_cycle;
}

void check_pubsub_window(const PubSubConfig& cfg, std::size_t dedup_window,
                         const std::string& where) {
  // sources x rate > window, without forming the product.
  HPV_CHECK_THROW(cfg.sources == 0 || cfg.rate <= dedup_window / cfg.sources,
                  where + ": sources (" + std::to_string(cfg.sources) +
                      ") x rate (" + std::to_string(cfg.rate) +
                      ") exceeds network.gossip.dedup_window (" +
                      std::to_string(dedup_window) +
                      "); the flood never ends");
}

std::vector<double> Backend::run_pubsub(const PubSubConfig& cfg) {
  HPV_CHECK(built());
  // Loaders that know no network block (hpv_bench's measure phases) reach
  // this point unchecked.
  check_pubsub_window(cfg, cluster_config().gossip.dedup_window, "pubsub");

  // Distinct publishers off the shared harness stream (same draw order on
  // both backends). Capped by the population when a small cluster is asked
  // for more sources than it has alive nodes.
  std::vector<std::size_t> sources;
  const std::size_t want = std::min(cfg.sources, alive_count());
  sources.reserve(want);
  while (sources.size() < want) {
    const std::size_t s = random_alive_node();
    if (std::find(sources.begin(), sources.end(), s) == sources.end()) {
      sources.push_back(s);
    }
  }

  std::vector<double> per_tick;
  std::vector<std::uint64_t> tick_ids;
  tick_ids.reserve(cfg.sources * cfg.rate);
  const std::size_t mid_tick = cfg.ticks / 2;

  for (std::size_t tick = 0; tick < cfg.ticks; ++tick) {
    if (cfg.churn_fraction > 0.0 && tick == mid_tick && tick > 0) {
      fail_random_fraction(cfg.churn_fraction);
      // Dead publishers hand their stream to a fresh random alive node —
      // the stream keeps flowing while the overlay (and tree) heals. Fewer
      // survivors than publishers cannot keep every stream distinct, so
      // the surplus streams end; with nobody alive, one entry stays and
      // random_alive_node() throws.
      sources.resize(std::min(sources.size(),
                              std::max<std::size_t>(alive_count(), 1)));
      for (std::size_t& s : sources) {
        while (!alive(s) ||
               std::count(sources.begin(), sources.end(), s) > 1) {
          s = random_alive_node();
        }
      }
    }
    // Every source publishes its whole tick budget *before* anything
    // settles: sources × rate messages genuinely share the wire.
    tick_ids.clear();
    for (const std::size_t s : sources) {
      for (std::size_t r = 0; r < cfg.rate; ++r) {
        tick_ids.push_back(inject_broadcast(s));
      }
    }
    if (cfg.cycles_per_tick > 0) run_cycles(cfg.cycles_per_tick);
    settle_broadcasts(tick_ids);

    double sum = 0.0;
    for (const std::uint64_t id : tick_ids) {
      sum += recorder().result(id).reliability();
    }
    if (!tick_ids.empty()) {
      per_tick.push_back(sum / static_cast<double>(tick_ids.size()));
    }
  }
  return per_tick;
}

std::size_t Backend::sybil_burst(std::size_t per_adversary) {
  std::size_t fired = 0;
  for (std::size_t i = 0; i < node_count(); ++i) {
    if (!alive(i)) continue;
    auto* wrapped = dynamic_cast<AdversarialProtocol*>(&protocol(i));
    if (wrapped == nullptr) continue;
    wrapped->sybil_burst(per_adversary);
    ++fired;
  }
  settle();
  return fired;
}

}  // namespace hyparview::harness
