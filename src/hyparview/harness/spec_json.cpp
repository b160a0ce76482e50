#include "hyparview/harness/spec_json.hpp"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/options.hpp"

namespace hyparview::harness {
namespace {

// Strict schema walker over one JSON object: typed getters record which
// members they consumed, finish() rejects the rest by full key path. Every
// loader goes through it, so "unknown keys are errors" holds uniformly and
// error messages always name the offending key.
class ObjectReader {
 public:
  ObjectReader(const json::Value& v, std::string path)
      : path_(std::move(path)) {
    HPV_CHECK_THROW(v.is_object(), "spec: " + path_ + ": expected an object");
    obj_ = &v.as_object();
    used_.assign(obj_->size(), false);
  }

  /// Marks `key` consumed; nullptr when absent.
  [[nodiscard]] const json::Value* get(std::string_view key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        used_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::string key_path(std::string_view key) const {
    return path_ + "." + std::string(key);
  }

  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_int(),
                    "spec: " + key_path(key) + ": expected an integer");
    return v->as_int();
  }

  [[nodiscard]] std::int64_t require_int(std::string_view key) {
    const json::Value* v = get(key);
    HPV_CHECK_THROW(v != nullptr, "spec: missing key " + key_path(key));
    HPV_CHECK_THROW(v->is_int(),
                    "spec: " + key_path(key) + ": expected an integer");
    return v->as_int();
  }

  /// Integer >= `min` as size_t (counts, capacities, cycles).
  [[nodiscard]] std::size_t get_size(std::string_view key,
                                     std::size_t fallback,
                                     std::size_t min = 0) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    const std::size_t n = to_size(*v, key);
    HPV_CHECK_THROW(n >= min, "spec: " + key_path(key) +
                                  ": expected an integer >= " +
                                  std::to_string(min));
    return n;
  }

  [[nodiscard]] std::size_t require_size(std::string_view key) {
    return to_size(require(key), key);
  }

  [[nodiscard]] std::uint8_t get_u8(std::string_view key,
                                    std::uint8_t fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_int() && v->as_int() >= 0 && v->as_int() <= 255,
                    "spec: " + key_path(key) + ": expected 0..255");
    return static_cast<std::uint8_t>(v->as_int());
  }

  /// A `*_ms` key: non-negative milliseconds whose microsecond Duration
  /// fits int64.
  [[nodiscard]] Duration get_duration_ms(std::string_view key,
                                         Duration fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_int() && v->as_int() >= 0 &&
                        v->as_int() <= std::numeric_limits<Duration>::max() /
                                           milliseconds(1),
                    "spec: " + key_path(key) +
                        ": expected a non-negative millisecond count");
    return milliseconds(v->as_int());
  }

  [[nodiscard]] double get_double(std::string_view key, double fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_number(),
                    "spec: " + key_path(key) + ": expected a number");
    return v->as_double();
  }

  /// A probability: number in [0, 1].
  [[nodiscard]] double get_fraction(std::string_view key, double fallback) {
    const double d = get_double(key, fallback);
    HPV_CHECK_THROW(d >= 0.0 && d <= 1.0,
                    "spec: " + key_path(key) +
                        ": fraction out of range [0, 1]");
    return d;
  }

  [[nodiscard]] double require_fraction(std::string_view key) {
    const json::Value* v = get(key);
    HPV_CHECK_THROW(v != nullptr, "spec: missing key " + key_path(key));
    HPV_CHECK_THROW(v->is_number(),
                    "spec: " + key_path(key) + ": expected a number");
    const double d = v->as_double();
    HPV_CHECK_THROW(d >= 0.0 && d <= 1.0,
                    "spec: " + key_path(key) +
                        ": fraction out of range [0, 1]");
    return d;
  }

  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_bool(),
                    "spec: " + key_path(key) + ": expected true/false");
    return v->as_bool();
  }

  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_string(),
                    "spec: " + key_path(key) + ": expected a string");
    return v->as_string();
  }

  [[nodiscard]] std::string require_string(std::string_view key) {
    const json::Value* v = get(key);
    HPV_CHECK_THROW(v != nullptr, "spec: missing key " + key_path(key));
    HPV_CHECK_THROW(v->is_string(),
                    "spec: " + key_path(key) + ": expected a string");
    return v->as_string();
  }

  [[nodiscard]] const json::Value& require(std::string_view key) {
    const json::Value* v = get(key);
    HPV_CHECK_THROW(v != nullptr, "spec: missing key " + key_path(key));
    return *v;
  }

  /// Rejects every member no getter consumed — the unknown-key error,
  /// naming the full key path ("network.nodez").
  void finish() const {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      HPV_CHECK_THROW(used_[i], "spec: unknown key '" +
                                    key_path((*obj_)[i].first) + "'");
    }
  }

 private:
  [[nodiscard]] std::size_t to_size(const json::Value& v,
                                    std::string_view key) const {
    HPV_CHECK_THROW(v.is_int() && v.as_int() >= 0,
                    "spec: " + key_path(key) +
                        ": expected a non-negative integer");
    return static_cast<std::size_t>(v.as_int());
  }

  const json::Value::Object* obj_ = nullptr;
  std::string path_;
  std::vector<bool> used_;
};

ProtocolKind protocol_from_name(const std::string& name,
                                const std::string& key_path) {
  for (const ProtocolKind kind : all_protocol_kinds()) {
    if (name == kind_name(kind)) return kind;
  }
  throw CheckError("spec: " + key_path + ": unknown protocol '" + name +
                   "' (expected HyParView, Cyclon, CyclonAcked, or Scamp)");
}

AttackKind attack_from_name(const std::string& name,
                            const std::string& key_path) {
  for (const AttackKind kind :
       {AttackKind::kNone, AttackKind::kPoison, AttackKind::kDrop,
        AttackKind::kSybil}) {
    if (name == attack_name(kind)) return kind;
  }
  throw CheckError("spec: " + key_path + ": unknown attack '" + name +
                   "' (expected none, poison, drop, or sybil)");
}

void load_hyparview(const json::Value& v, const std::string& path,
                    core::Config& cfg) {
  ObjectReader r(v, path);
  cfg.active_capacity = r.get_size("active_capacity", cfg.active_capacity);
  cfg.passive_capacity = r.get_size("passive_capacity", cfg.passive_capacity);
  cfg.arwl = r.get_u8("arwl", cfg.arwl);
  cfg.prwl = r.get_u8("prwl", cfg.prwl);
  cfg.shuffle_ka = r.get_size("shuffle_ka", cfg.shuffle_ka);
  cfg.shuffle_kp = r.get_size("shuffle_kp", cfg.shuffle_kp);
  cfg.shuffle_ttl = r.get_u8("shuffle_ttl", cfg.shuffle_ttl);
  cfg.promote_on_any_slot =
      r.get_bool("promote_on_any_slot", cfg.promote_on_any_slot);
  cfg.warm_cache_size = r.get_size("warm_cache_size", cfg.warm_cache_size);
  r.finish();
}

void load_cyclon(const json::Value& v, const std::string& path,
                 baselines::CyclonConfig& cfg) {
  ObjectReader r(v, path);
  cfg.view_capacity = r.get_size("view_capacity", cfg.view_capacity);
  cfg.shuffle_length = r.get_size("shuffle_length", cfg.shuffle_length);
  cfg.join_walk_ttl = r.get_u8("join_walk_ttl", cfg.join_walk_ttl);
  cfg.join_walks = r.get_size("join_walks", cfg.join_walks);
  cfg.purge_on_unreachable =
      r.get_bool("purge_on_unreachable", cfg.purge_on_unreachable);
  cfg.shuffle_retry_on_failure =
      r.get_bool("shuffle_retry_on_failure", cfg.shuffle_retry_on_failure);
  r.finish();
}

void load_scamp(const json::Value& v, const std::string& path,
                baselines::ScampConfig& cfg) {
  ObjectReader r(v, path);
  cfg.c = r.get_size("c", cfg.c);
  const std::int64_t ttl = r.get_int("forward_ttl", cfg.forward_ttl);
  HPV_CHECK_THROW(ttl >= 0 && ttl <= std::numeric_limits<std::uint16_t>::max(),
                  "spec: " + path + ".forward_ttl: expected 0..65535");
  cfg.forward_ttl = static_cast<std::uint16_t>(ttl);
  cfg.lease_cycles = r.get_size("lease_cycles", cfg.lease_cycles);
  cfg.heartbeat_period_cycles =
      r.get_size("heartbeat_period_cycles", cfg.heartbeat_period_cycles);
  cfg.isolation_timeout_cycles =
      r.get_size("isolation_timeout_cycles", cfg.isolation_timeout_cycles);
  cfg.purge_on_unreachable =
      r.get_bool("purge_on_unreachable", cfg.purge_on_unreachable);
  r.finish();
}

void load_gossip(const json::Value& v, const std::string& path,
                 gossip::GossipConfig& cfg) {
  ObjectReader r(v, path);
  const std::string engine = r.get_string(
      "engine",
      cfg.engine == gossip::Engine::kPlumtree ? "plumtree" : "eager");
  if (engine == "eager") {
    cfg.engine = gossip::Engine::kEager;
  } else if (engine == "plumtree") {
    cfg.engine = gossip::Engine::kPlumtree;
  } else {
    throw CheckError("spec: " + r.key_path("engine") + ": unknown engine '" +
                     engine + "' (expected eager or plumtree)");
  }
  const std::int64_t payload = r.get_int("payload_size", cfg.payload_size);
  HPV_CHECK_THROW(payload >= 0 &&
                      payload <= std::numeric_limits<std::uint32_t>::max(),
                  "spec: " + path + ".payload_size: out of range");
  cfg.payload_size = static_cast<std::uint32_t>(payload);
  cfg.dedup_window = r.get_size("dedup_window", cfg.dedup_window, 1);
  cfg.cache_window = r.get_size("cache_window", cfg.cache_window, 1);
  cfg.graft_timeout = r.get_duration_ms("graft_timeout_ms", cfg.graft_timeout);
  cfg.reroute_on_failure =
      r.get_bool("reroute_on_failure", cfg.reroute_on_failure);
  cfg.explicit_acks = r.get_bool("explicit_acks", cfg.explicit_acks);
  r.finish();
}

AdversaryConfig load_adversary(const json::Value& v, const std::string& path) {
  ObjectReader r(v, path);
  AdversaryConfig cfg;
  cfg.attack =
      attack_from_name(r.get_string("attack", attack_name(cfg.attack)),
                       r.key_path("attack"));
  cfg.fraction = r.get_fraction("fraction", cfg.fraction);
  cfg.poison_per_cycle = r.get_size("poison_per_cycle", cfg.poison_per_cycle);
  cfg.poison_entries = r.get_size("poison_entries", cfg.poison_entries);
  cfg.fabricated_fraction =
      r.get_fraction("fabricated_fraction", cfg.fabricated_fraction);
  cfg.sybils_per_burst = r.get_size("sybils_per_burst", cfg.sybils_per_burst);
  cfg.sybil_ttl = r.get_u8("sybil_ttl", cfg.sybil_ttl);
  r.finish();
  return cfg;
}

/// Parses protocol/nodes/seed, builds defaults_for (the same factory the
/// C++ drivers call — the root of the bit-identity guarantee), then applies
/// the remaining overrides.
NetworkConfig load_network(const json::Value& v, const std::string& path) {
  ObjectReader r(v, path);
  const ProtocolKind kind =
      protocol_from_name(r.get_string("protocol", "HyParView"),
                         r.key_path("protocol"));
  const std::size_t nodes = r.get_size("nodes", NetworkConfig{}.node_count);
  const std::int64_t seed = r.get_int("seed", 42);
  HPV_CHECK_THROW(seed >= 0, "spec: " + r.key_path("seed") +
                                 ": expected a non-negative integer");

  NetworkConfig cfg = NetworkConfig::defaults_for(
      kind, nodes, static_cast<std::uint64_t>(seed));
  cfg.fanout = r.get_size("fanout", cfg.fanout);
  cfg.gossip.fanout = cfg.fanout;
  if (const json::Value* sub = r.get("hyparview")) {
    load_hyparview(*sub, r.key_path("hyparview"), cfg.hyparview);
  }
  if (const json::Value* sub = r.get("cyclon")) {
    load_cyclon(*sub, r.key_path("cyclon"), cfg.cyclon);
  }
  if (const json::Value* sub = r.get("scamp")) {
    load_scamp(*sub, r.key_path("scamp"), cfg.scamp);
  }
  if (const json::Value* sub = r.get("gossip")) {
    load_gossip(*sub, r.key_path("gossip"), cfg.gossip);
  }
  if (const json::Value* sub = r.get("adversary")) {
    cfg.adversary = load_adversary(*sub, r.key_path("adversary"));
  }
  r.finish();
  return cfg;
}

/// The TCP substrate inherits every protocol-level parameter from the
/// already-loaded network config, then applies its own node count, seed
/// and real-time knobs.
TcpBackendConfig load_tcp(const json::Value* v, const std::string& path,
                          const NetworkConfig& net) {
  TcpBackendConfig cfg;
  static_cast<ClusterConfig&>(cfg) = net;
  if (v == nullptr) return cfg;

  ObjectReader r(*v, path);
  cfg.node_count = r.get_size("nodes", cfg.node_count);
  const std::int64_t seed =
      r.get_int("seed", static_cast<std::int64_t>(cfg.seed));
  HPV_CHECK_THROW(seed >= 0,
                  "spec: " + path + ".seed: expected a non-negative integer");
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.join_settle = r.get_duration_ms("join_settle_ms", cfg.join_settle);
  cfg.cycle_settle = r.get_duration_ms("cycle_settle_ms", cfg.cycle_settle);
  cfg.leave_settle = r.get_duration_ms("leave_settle_ms", cfg.leave_settle);
  cfg.settle_window = r.get_duration_ms("settle_window_ms", cfg.settle_window);
  cfg.broadcast_timeout =
      r.get_duration_ms("broadcast_timeout_ms", cfg.broadcast_timeout);
  cfg.broadcast_quiet_window = r.get_duration_ms(
      "broadcast_quiet_window_ms", cfg.broadcast_quiet_window);
  const std::int64_t port = r.get_int("stats_port", cfg.stats_port);
  HPV_CHECK_THROW(port >= -1 && port <= 65535,
                  "spec: " + path + ".stats_port: expected -1..65535");
  cfg.stats_port = static_cast<int>(port);
  r.finish();
  return cfg;
}

const char* phase_kind_name(Experiment::PhaseKind kind) {
  using PK = Experiment::PhaseKind;
  switch (kind) {
    case PK::kCycles: return "cycles";
    case PK::kSetFanout: return "set_fanout";
    case PK::kCrash: return "crash";
    case PK::kLeave: return "leave";
    case PK::kBroadcast: return "broadcast";
    case PK::kHealUntil: return "heal_until";
    case PK::kChurn: return "churn";
    case PK::kSettle: return "settle";
    case PK::kSybilBurst: return "sybil_burst";
    case PK::kHeavyChurn: return "heavy_churn";
    case PK::kPubSub: return "pubsub";
  }
  return "?";
}

void load_phase(Experiment& spec, const json::Value& v,
                const std::string& path) {
  ObjectReader r(v, path);
  const std::string kind = r.require_string("kind");
  // Phases go through the same builder calls the C++ drivers make, so a
  // loaded spec is *constructed* identically, not merely equal.
  if (kind == "stabilize" || kind == "cycles") {
    spec.cycles(r.require_size("cycles"),
                r.get_string("label", kind == "stabilize" ? "stabilize"
                                                          : "cycles"));
  } else if (kind == "set_fanout") {
    spec.set_fanout(r.require_size("fanout"), r.get_string("label", "fanout"));
  } else if (kind == "crash") {
    spec.crash(r.require_fraction("fraction"), r.get_string("label", "crash"));
  } else if (kind == "leave") {
    spec.leave(r.require_size("count"), r.require_fraction("graceful_fraction"),
               r.get_string("label", "leave"));
  } else if (kind == "broadcast") {
    spec.broadcast(r.require_size("count"), r.get_string("label", "broadcast"));
  } else if (kind == "heal_until") {
    const std::string baseline = r.require_string("baseline");
    const std::size_t max_cycles = r.require_size("max_cycles");
    const std::size_t probes = r.require_size("probes_per_cycle");
    std::string label = r.get_string("label", "heal");
    // Unknown keys first, so a stray key is named even when the baseline
    // is wrong too.
    r.finish();
    HPV_CHECK_THROW(spec.has_broadcast_phase(baseline),
                    "spec: " + r.key_path("baseline") + ": '" + baseline +
                        "' names no earlier broadcast phase");
    spec.heal_until(baseline, max_cycles, probes, std::move(label));
    return;
  } else if (kind == "churn") {
    ChurnConfig cfg;
    cfg.cycles = r.get_size("cycles", cfg.cycles);
    cfg.joins_per_cycle = r.get_size("joins_per_cycle", cfg.joins_per_cycle);
    cfg.leaves_per_cycle = r.get_size("leaves_per_cycle", cfg.leaves_per_cycle);
    cfg.graceful_fraction =
        r.get_fraction("graceful_fraction", cfg.graceful_fraction);
    cfg.probes_per_cycle = r.get_size("probes_per_cycle", cfg.probes_per_cycle);
    spec.churn(cfg, r.get_string("label", "churn"));
  } else if (kind == "heavy_churn") {
    HeavyChurnConfig cfg;
    const std::string dist = r.get_string(
        "dist", cfg.dist == HeavyChurnConfig::Dist::kPareto ? "pareto"
                                                            : "lognormal");
    if (dist == "pareto") {
      cfg.dist = HeavyChurnConfig::Dist::kPareto;
    } else if (dist == "lognormal") {
      cfg.dist = HeavyChurnConfig::Dist::kLognormal;
    } else {
      throw CheckError("spec: " + r.key_path("dist") + ": unknown dist '" +
                       dist + "' (expected pareto or lognormal)");
    }
    cfg.cycles = r.get_size("cycles", cfg.cycles);
    cfg.joins_per_cycle = r.get_size("joins_per_cycle", cfg.joins_per_cycle);
    cfg.pareto_alpha = r.get_double("pareto_alpha", cfg.pareto_alpha);
    cfg.pareto_xm = r.get_double("pareto_xm", cfg.pareto_xm);
    cfg.lognormal_mu = r.get_double("lognormal_mu", cfg.lognormal_mu);
    cfg.lognormal_sigma = r.get_double("lognormal_sigma", cfg.lognormal_sigma);
    cfg.graceful_fraction =
        r.get_fraction("graceful_fraction", cfg.graceful_fraction);
    cfg.probes_per_cycle = r.get_size("probes_per_cycle", cfg.probes_per_cycle);
    spec.heavy_churn(cfg, r.get_string("label", "heavy_churn"));
  } else if (kind == "pubsub") {
    PubSubConfig cfg;
    cfg.sources = r.get_size("sources", cfg.sources);
    cfg.ticks = r.get_size("ticks", cfg.ticks);
    cfg.rate = r.get_size("rate", cfg.rate);
    cfg.churn_fraction = r.get_fraction("churn_fraction", cfg.churn_fraction);
    cfg.cycles_per_tick = r.get_size("cycles_per_tick", cfg.cycles_per_tick);
    spec.pubsub(cfg, r.get_string("label", "pubsub"));
  } else if (kind == "sybil_burst") {
    spec.sybil_burst(r.require_size("per_adversary"),
                     r.get_string("label", "sybil"));
  } else if (kind == "settle") {
    spec.settle(r.get_string("label", "settle"));
  } else {
    throw CheckError("spec: " + r.key_path("kind") + ": unknown phase kind '" +
                     kind + "'");
  }
  r.finish();
}

json::Value phase_to_json(const Experiment::Phase& p) {
  using PK = Experiment::PhaseKind;
  json::Value o = json::Value::object();
  o.set("kind", phase_kind_name(p.kind));
  switch (p.kind) {
    case PK::kCycles:
      o.set("cycles", p.cycles);
      break;
    case PK::kSetFanout:
      o.set("fanout", p.fanout);
      break;
    case PK::kCrash:
      o.set("fraction", p.fraction);
      break;
    case PK::kLeave:
      o.set("count", p.count);
      o.set("graceful_fraction", p.fraction);
      break;
    case PK::kBroadcast:
      o.set("count", p.count);
      break;
    case PK::kHealUntil:
      o.set("baseline", p.baseline_label);
      o.set("max_cycles", p.cycles);
      o.set("probes_per_cycle", p.count);
      break;
    case PK::kChurn:
      o.set("cycles", p.churn.cycles);
      o.set("joins_per_cycle", p.churn.joins_per_cycle);
      o.set("leaves_per_cycle", p.churn.leaves_per_cycle);
      o.set("graceful_fraction", p.churn.graceful_fraction);
      o.set("probes_per_cycle", p.churn.probes_per_cycle);
      break;
    case PK::kHeavyChurn:
      o.set("dist", p.heavy.dist == HeavyChurnConfig::Dist::kPareto
                        ? "pareto"
                        : "lognormal");
      o.set("cycles", p.heavy.cycles);
      o.set("joins_per_cycle", p.heavy.joins_per_cycle);
      o.set("pareto_alpha", p.heavy.pareto_alpha);
      o.set("pareto_xm", p.heavy.pareto_xm);
      o.set("lognormal_mu", p.heavy.lognormal_mu);
      o.set("lognormal_sigma", p.heavy.lognormal_sigma);
      o.set("graceful_fraction", p.heavy.graceful_fraction);
      o.set("probes_per_cycle", p.heavy.probes_per_cycle);
      break;
    case PK::kPubSub:
      o.set("sources", p.pubsub.sources);
      o.set("ticks", p.pubsub.ticks);
      o.set("rate", p.pubsub.rate);
      o.set("churn_fraction", p.pubsub.churn_fraction);
      o.set("cycles_per_tick", p.pubsub.cycles_per_tick);
      break;
    case PK::kSybilBurst:
      o.set("per_adversary", p.count);
      break;
    case PK::kSettle:
      break;
  }
  o.set("label", p.label);
  return o;
}

json::Value network_to_json(const NetworkConfig& cfg) {
  json::Value net = json::Value::object();
  net.set("protocol", kind_name(cfg.kind));
  net.set("nodes", cfg.node_count);
  net.set("seed", cfg.seed);
  net.set("fanout", cfg.fanout);

  json::Value hv = json::Value::object();
  hv.set("active_capacity", cfg.hyparview.active_capacity);
  hv.set("passive_capacity", cfg.hyparview.passive_capacity);
  hv.set("arwl", static_cast<std::int64_t>(cfg.hyparview.arwl));
  hv.set("prwl", static_cast<std::int64_t>(cfg.hyparview.prwl));
  hv.set("shuffle_ka", cfg.hyparview.shuffle_ka);
  hv.set("shuffle_kp", cfg.hyparview.shuffle_kp);
  hv.set("shuffle_ttl", static_cast<std::int64_t>(cfg.hyparview.shuffle_ttl));
  hv.set("promote_on_any_slot", cfg.hyparview.promote_on_any_slot);
  hv.set("warm_cache_size", cfg.hyparview.warm_cache_size);
  net.set("hyparview", std::move(hv));

  json::Value cy = json::Value::object();
  cy.set("view_capacity", cfg.cyclon.view_capacity);
  cy.set("shuffle_length", cfg.cyclon.shuffle_length);
  cy.set("join_walk_ttl", static_cast<std::int64_t>(cfg.cyclon.join_walk_ttl));
  cy.set("join_walks", cfg.cyclon.join_walks);
  cy.set("purge_on_unreachable", cfg.cyclon.purge_on_unreachable);
  cy.set("shuffle_retry_on_failure", cfg.cyclon.shuffle_retry_on_failure);
  net.set("cyclon", std::move(cy));

  json::Value sc = json::Value::object();
  sc.set("c", cfg.scamp.c);
  sc.set("forward_ttl", static_cast<std::int64_t>(cfg.scamp.forward_ttl));
  sc.set("lease_cycles", cfg.scamp.lease_cycles);
  sc.set("heartbeat_period_cycles", cfg.scamp.heartbeat_period_cycles);
  sc.set("isolation_timeout_cycles", cfg.scamp.isolation_timeout_cycles);
  sc.set("purge_on_unreachable", cfg.scamp.purge_on_unreachable);
  net.set("scamp", std::move(sc));

  json::Value go = json::Value::object();
  go.set("engine", cfg.gossip.engine == gossip::Engine::kPlumtree
                       ? "plumtree"
                       : "eager");
  go.set("payload_size", static_cast<std::int64_t>(cfg.gossip.payload_size));
  go.set("dedup_window", cfg.gossip.dedup_window);
  go.set("cache_window", cfg.gossip.cache_window);
  go.set("graft_timeout_ms", cfg.gossip.graft_timeout / 1000);
  go.set("reroute_on_failure", cfg.gossip.reroute_on_failure);
  go.set("explicit_acks", cfg.gossip.explicit_acks);
  net.set("gossip", std::move(go));

  json::Value adv = json::Value::object();
  adv.set("attack", attack_name(cfg.adversary.attack));
  adv.set("fraction", cfg.adversary.fraction);
  adv.set("poison_per_cycle", cfg.adversary.poison_per_cycle);
  adv.set("poison_entries", cfg.adversary.poison_entries);
  adv.set("fabricated_fraction", cfg.adversary.fabricated_fraction);
  adv.set("sybils_per_burst", cfg.adversary.sybils_per_burst);
  adv.set("sybil_ttl", static_cast<std::int64_t>(cfg.adversary.sybil_ttl));
  net.set("adversary", std::move(adv));
  return net;
}

json::Value tcp_to_json(const TcpBackendConfig& cfg) {
  json::Value tcp = json::Value::object();
  tcp.set("nodes", cfg.node_count);
  tcp.set("seed", cfg.seed);
  tcp.set("join_settle_ms", cfg.join_settle / 1000);
  tcp.set("cycle_settle_ms", cfg.cycle_settle / 1000);
  tcp.set("leave_settle_ms", cfg.leave_settle / 1000);
  tcp.set("settle_window_ms", cfg.settle_window / 1000);
  tcp.set("broadcast_timeout_ms", cfg.broadcast_timeout / 1000);
  tcp.set("broadcast_quiet_window_ms", cfg.broadcast_quiet_window / 1000);
  tcp.set("stats_port", static_cast<std::int64_t>(cfg.stats_port));
  return tcp;
}

}  // namespace

Experiment Experiment::from_json(const json::Value& doc) {
  ObjectReader r(doc, "spec");
  Experiment spec(r.require_string("name"));
  const json::Value& phases = r.require("phases");
  HPV_CHECK_THROW(phases.is_array(),
                  "spec: spec.phases: expected an array");
  for (std::size_t i = 0; i < phases.as_array().size(); ++i) {
    load_phase(spec, phases.as_array()[i],
               "phases[" + std::to_string(i) + "]");
  }
  r.finish();
  return spec;
}

json::Value Experiment::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("name", name_);
  json::Value phases = json::Value::array();
  for (const Phase& p : phases_) {
    phases.push_back(phase_to_json(p));
  }
  doc.set("phases", std::move(phases));
  return doc;
}

NetworkConfig network_config_from_json(const json::Value& v,
                                       std::string_view path) {
  return load_network(v, std::string(path));
}

AdversaryConfig adversary_config_from_json(const json::Value& v,
                                           std::string_view path) {
  return load_adversary(v, std::string(path));
}

RunSpec spec_from_json(const json::Value& doc) {
  ObjectReader r(doc, "spec");
  RunSpec spec;
  spec.name = r.require_string("name");
  spec.backend = r.get_string("backend", "sim");
  HPV_CHECK_THROW(spec.backend == "sim" || spec.backend == "tcp",
                  "spec: spec.backend: expected \"sim\" or \"tcp\"");

  if (const json::Value* net = r.get("network")) {
    spec.net = load_network(*net, "network");
  } else {
    spec.net = NetworkConfig::defaults_for(ProtocolKind::kHyParView,
                                           NetworkConfig{}.node_count, 42);
  }
  spec.tcp = load_tcp(r.get("tcp"), "tcp", spec.net);

  Experiment exp(spec.name);
  const json::Value& phases = r.require("phases");
  HPV_CHECK_THROW(phases.is_array(), "spec: spec.phases: expected an array");
  for (std::size_t i = 0; i < phases.as_array().size(); ++i) {
    load_phase(exp, phases.as_array()[i], "phases[" + std::to_string(i) + "]");
  }
  spec.experiment = std::move(exp);
  r.finish();
  return spec;
}

RunSpec load_spec_file(const std::string& path) {
  try {
    return spec_from_json(json::parse_file(path));
  } catch (const CheckError& e) {
    const std::string what = e.what();
    // parse_file already prefixes the path for parse errors.
    if (what.find(path) == 0) throw;
    throw CheckError(path + ": " + what);
  }
}

json::Value spec_to_json(const RunSpec& spec) {
  json::Value doc = json::Value::object();
  doc.set("name", spec.name);
  doc.set("backend", spec.backend);
  doc.set("network", network_to_json(spec.net));
  doc.set("tcp", tcp_to_json(spec.tcp));
  json::Value exp = spec.experiment.to_json();
  const json::Value* phases = exp.find("phases");
  doc.set("phases", phases != nullptr ? *phases : json::Value::array());
  return doc;
}

namespace {

/// Paper scale: the values BenchScale defaults to when no HPV_* override is
/// set — the committed specs describe the full reproduction, and the
/// drivers scale the loaded program down via mutable_phases() for smoke
/// runs, exactly as they scaled their hardcoded programs before.
constexpr std::size_t kPaperNodes = 10'000;
constexpr std::size_t kTcpNodes = 32;  ///< every spec's TCP leg
constexpr std::uint64_t kSeed = 42;

RunSpec adversarial_builtin(AttackKind attack) {
  RunSpec spec;
  spec.name = std::string("adversarial_") + attack_name(attack);
  spec.net =
      NetworkConfig::defaults_for(ProtocolKind::kHyParView, kPaperNodes, kSeed);
  spec.net.adversary.attack = attack;
  spec.net.adversary.fraction = 0.10;

  // Mirrors attack_spec() in bench/adversarial_attacks.cpp before the
  // migration: stabilize, (sybil flood,) attack pressure, measure.
  Experiment exp(spec.name);
  exp.stabilize(20);
  if (attack == AttackKind::kSybil) {
    exp.sybil_burst(spec.net.adversary.sybils_per_burst);
  }
  exp.cycles(10, "pressure");
  exp.broadcast(100, "after");
  spec.experiment = std::move(exp);
  return spec;
}

RunSpec pubsub_builtin(gossip::Engine engine) {
  RunSpec spec;
  spec.name = engine == gossip::Engine::kPlumtree ? "pubsub_plumtree"
                                                  : "pubsub_eager";
  spec.net = NetworkConfig::defaults_for(ProtocolKind::kHyParView,
                                         kPaperNodes, kSeed);
  spec.net.gossip.engine = engine;
  // Sustained streams keep sources × rate messages in flight per tick, with
  // duplicates (and IHave/Graft repair for Plumtree) of earlier ticks still
  // arriving; the discrete-wave 128 default of defaults_for under-remembers
  // that horizon and re-delivers evicted ids (dedup window regression test
  // pins the failure). Size both per-node windows well past the stream.
  spec.net.gossip.dedup_window = 4096;
  spec.net.gossip.cache_window = 4096;

  // Steady-state streams first (the bytes-on-wire comparison window), then
  // the same streams under a 25% midpoint crash (tree repair under churn).
  Experiment exp(spec.name);
  exp.stabilize(50);
  PubSubConfig steady;
  steady.sources = 8;
  steady.ticks = 25;
  steady.rate = 2;
  steady.cycles_per_tick = 1;
  exp.pubsub(steady, "steady");
  PubSubConfig churned = steady;
  churned.ticks = 10;
  churned.churn_fraction = 0.25;
  exp.pubsub(churned, "churn");
  spec.experiment = std::move(exp);
  return spec;
}

}  // namespace

RunSpec builtin_spec(std::string_view name) {
  RunSpec spec;
  spec.name = std::string(name);
  if (name == "fig1") {
    // Fig. 1(a)(b) fanout sweep (bench/fig1_fanout_reliability.cpp): the
    // network section carries Cyclon as the representative sweep subject;
    // the driver swaps the protocol per leg and reuses the phase program.
    spec.net =
        NetworkConfig::defaults_for(ProtocolKind::kCyclon, kPaperNodes, kSeed);
    Experiment exp(spec.name);
    exp.stabilize(50);
    for (std::size_t fanout = 1; fanout <= 8; ++fanout) {
      exp.set_fanout(fanout).broadcast(50, "fanout" + std::to_string(fanout));
    }
    spec.experiment = std::move(exp);
  } else if (name == "fig1_reference") {
    // HyParView's deterministic flood — the reference row of Fig. 1.
    spec.net = NetworkConfig::defaults_for(ProtocolKind::kHyParView,
                                           kPaperNodes, kSeed);
    spec.experiment =
        Experiment(spec.name).stabilize(50).broadcast(50, "flood");
  } else if (name == "fig2") {
    // One Fig. 2 sweep point (bench/fig2_reliability_vs_failures.cpp); the
    // committed fraction is the 50% midpoint — the driver rewrites it per
    // point on the loaded program (see Experiment::mutable_phases).
    spec.net = NetworkConfig::defaults_for(ProtocolKind::kHyParView,
                                           kPaperNodes, kSeed);
    spec.experiment = Experiment(spec.name)
                          .stabilize(50)
                          .crash(0.5)
                          .broadcast(1000, "measure");
  } else if (name == "pubsub_plumtree") {
    spec = pubsub_builtin(gossip::Engine::kPlumtree);
  } else if (name == "pubsub_eager") {
    spec = pubsub_builtin(gossip::Engine::kEager);
  } else if (name == "adversarial_poison") {
    spec = adversarial_builtin(AttackKind::kPoison);
  } else if (name == "adversarial_drop") {
    spec = adversarial_builtin(AttackKind::kDrop);
  } else if (name == "adversarial_sybil") {
    spec = adversarial_builtin(AttackKind::kSybil);
  } else {
    throw CheckError("unknown builtin spec '" + std::string(name) +
                     "' (see builtin_spec_names)");
  }
  // Every TCP leg runs the network's protocol block on kTcpNodes nodes.
  static_cast<ClusterConfig&>(spec.tcp) = spec.net;
  spec.tcp.node_count = kTcpNodes;
  return spec;
}

std::vector<std::string> builtin_spec_names() {
  return {"fig1",           "fig1_reference",     "fig2",
          "pubsub_plumtree", "pubsub_eager",      "adversarial_poison",
          "adversarial_drop", "adversarial_sybil"};
}

std::string spec_dir() {
  if (const auto v = env_string("HPV_SPEC_DIR")) return *v;
#ifdef HPV_SPEC_DIR
  return HPV_SPEC_DIR;
#else
  return "specs";
#endif
}

std::string spec_path(std::string_view name) {
  return spec_dir() + "/" + std::string(name) + ".json";
}

}  // namespace hyparview::harness
