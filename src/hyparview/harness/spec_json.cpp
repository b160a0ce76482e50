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

/// Runs a protocol block's own validate() at load time, so `--validate`
/// rejects what the run would, with the block's key path in the message.
template <typename Config>
void validate_block(const Config& cfg, const std::string& path) {
  try {
    cfg.validate();
  } catch (const CheckError& e) {
    throw CheckError("spec: " + path + ": " + e.what());
  }
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
  validate_block(cfg, path);
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
  validate_block(cfg, path);
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
  validate_block(cfg, path);
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
  const std::size_t nodes =
      r.get_size("nodes", NetworkConfig{}.node_count, /*min=*/2);
  const std::int64_t seed = r.get_int("seed", 42);
  HPV_CHECK_THROW(seed >= 0, "spec: " + r.key_path("seed") +
                                 ": expected a non-negative integer");

  NetworkConfig cfg = NetworkConfig::defaults_for(
      kind, nodes, static_cast<std::uint64_t>(seed));
  cfg.gossip.fanout = r.get_size("fanout", cfg.gossip.fanout);
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
  cfg.node_count = r.get_size("nodes", cfg.node_count, /*min=*/2);
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
    const Experiment::Phase* base = spec.broadcast_phase(baseline);
    HPV_CHECK_THROW(base != nullptr,
                    "spec: " + r.key_path("baseline") + ": '" + baseline +
                        "' names no earlier broadcast phase");
    HPV_CHECK_THROW(base->count > 0,
                    "spec: " + r.key_path("baseline") + ": '" + baseline +
                        "' broadcasts nothing (count 0), so there is no "
                        "reliability to heal back to");
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

/// The document's required "phases" array, built into an Experiment.
Experiment load_phases(ObjectReader& r, std::string name) {
  Experiment spec(std::move(name));
  const json::Value& phases = r.require("phases");
  HPV_CHECK_THROW(phases.is_array(), "spec: spec.phases: expected an array");
  for (std::size_t i = 0; i < phases.as_array().size(); ++i) {
    load_phase(spec, phases.as_array()[i],
               "phases[" + std::to_string(i) + "]");
  }
  return spec;
}

}  // namespace

Experiment Experiment::from_json(const json::Value& doc) {
  ObjectReader r(doc, "spec");
  Experiment spec = load_phases(r, r.require_string("name"));
  r.finish();
  return spec;
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
  spec.experiment = load_phases(r, spec.name);
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
