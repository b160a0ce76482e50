#include "hyparview/harness/spec_json.hpp"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/options.hpp"
#include "hyparview/gossip/dedup_window.hpp"

namespace hyparview::harness {
namespace {

/// network.seed when a spec names none.
constexpr std::int64_t kDefaultSeed = 42;

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

  /// Integer in [min, max] as size_t (counts, capacities, cycles).
  [[nodiscard]] std::size_t get_size(
      std::string_view key, std::size_t fallback, std::size_t min = 0,
      std::size_t max = std::numeric_limits<std::size_t>::max()) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    const std::size_t n = to_size(*v, key);
    HPV_CHECK_THROW(n >= min, "spec: " + key_path(key) +
                                  ": expected an integer >= " +
                                  std::to_string(min));
    HPV_CHECK_THROW(n <= max, "spec: " + key_path(key) +
                                  ": expected an integer <= " +
                                  std::to_string(max));
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

  /// A `*_ms` key: milliseconds in [0, kMaxDurationMs].
  [[nodiscard]] Duration get_duration_ms(std::string_view key,
                                         Duration fallback) {
    const json::Value* v = get(key);
    if (v == nullptr) return fallback;
    HPV_CHECK_THROW(v->is_int() && v->as_int() >= 0 &&
                        v->as_int() <= kMaxDurationMs,
                    "spec: " + key_path(key) +
                        ": expected a millisecond count in [0, " +
                        std::to_string(kMaxDurationMs) + "]");
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
  // The windows' arrival stamps bound both horizons.
  constexpr std::size_t kMaxWindow = gossip::DedupWindow<>::kMaxWindow;
  cfg.dedup_window =
      r.get_size("dedup_window", cfg.dedup_window, 1, kMaxWindow);
  cfg.cache_window =
      r.get_size("cache_window", cfg.cache_window, 1, kMaxWindow);
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
  const std::int64_t seed = r.get_int("seed", kDefaultSeed);
  HPV_CHECK_THROW(seed >= 0, "spec: " + r.key_path("seed") +
                                 ": expected a non-negative integer");

  NetworkConfig cfg = NetworkConfig::defaults_for(
      kind, nodes, static_cast<std::uint64_t>(seed));
  cfg.gossip.fanout = r.get_size("fanout", cfg.gossip.fanout);
  cfg.sim.notify_on_crash =
      r.get_bool("notify_on_crash", cfg.sim.notify_on_crash);
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
/// already-loaded network config, then applies its own node count, seed,
/// drain deadlines and stats port.
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
  cfg.broadcast_timeout =
      r.get_duration_ms("broadcast_timeout_ms", cfg.broadcast_timeout);
  const std::int64_t port = r.get_int("stats_port", cfg.stats_port);
  HPV_CHECK_THROW(port >= -1 && port <= 65535,
                  "spec: " + path + ".stats_port: expected -1..65535");
  cfg.stats_port = static_cast<int>(port);
  r.finish();
  return cfg;
}

/// The label a phase of `kind` carries when it names none.
std::string default_label(const std::string& kind) {
  if (kind == "set_fanout") return "fanout";
  if (kind == "heal_until") return "heal";
  if (kind == "sybil_burst") return "sybil";
  return kind;
}

void load_phase(Experiment& spec, const json::Value& v,
                const std::string& path) {
  ObjectReader r(v, path);
  const std::string kind = r.require_string("kind");
  std::string label = r.get_string("label", default_label(kind));
  // hpv_run keys the k-th phase sharing a label as "<label>#k".
  HPV_CHECK_THROW(label.find('#') == std::string::npos,
                  "spec: " + r.key_path("label") +
                      ": '#' is reserved for hpv_run's repeated-label keys");
  // Phases go through the same builder calls the C++ tests make, so a
  // loaded spec is *constructed* identically, not merely equal.
  if (kind == "stabilize" || kind == "cycles") {
    spec.cycles(r.require_size("cycles"), std::move(label));
  } else if (kind == "set_fanout") {
    spec.set_fanout(r.require_size("fanout"), std::move(label));
  } else if (kind == "crash") {
    spec.crash(r.require_fraction("fraction"), std::move(label));
  } else if (kind == "leave") {
    spec.leave(r.require_size("count"), r.require_fraction("graceful_fraction"),
               std::move(label));
  } else if (kind == "broadcast") {
    spec.broadcast(r.require_size("count"), std::move(label));
  } else if (kind == "heal_until") {
    const std::string baseline = r.require_string("baseline");
    const std::size_t max_cycles = r.require_size("max_cycles");
    const std::size_t probes = r.require_size("probes_per_cycle");
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
    spec.churn(cfg, std::move(label));
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
    spec.heavy_churn(cfg, std::move(label));
  } else if (kind == "pubsub") {
    PubSubConfig cfg;
    cfg.sources = r.get_size("sources", cfg.sources);
    cfg.ticks = r.get_size("ticks", cfg.ticks);
    cfg.rate = r.get_size("rate", cfg.rate);
    cfg.churn_fraction = r.get_fraction("churn_fraction", cfg.churn_fraction);
    cfg.cycles_per_tick = r.get_size("cycles_per_tick", cfg.cycles_per_tick);
    spec.pubsub(cfg, std::move(label));
  } else if (kind == "sybil_burst") {
    spec.sybil_burst(r.require_size("per_adversary"), std::move(label));
  } else if (kind == "settle") {
    spec.settle(std::move(label));
  } else if (kind == "overlay") {
    spec.overlay(std::move(label));
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

/// Every pub/sub phase against the network's dedup window
/// (check_pubsub_window), naming the phase.
void check_dedup_window(const Experiment& spec, std::size_t window) {
  for (std::size_t i = 0; i < spec.phases().size(); ++i) {
    const Experiment::Phase& p = spec.phases()[i];
    if (p.kind != Experiment::PhaseKind::kPubSub) continue;
    check_pubsub_window(p.pubsub, window,
                        "spec: phases[" + std::to_string(i) + "]");
  }
}

/// The sweep block's shape: an array of axes, each a non-empty array of
/// patch objects.
void check_sweep(const json::Value& sweep) {
  HPV_CHECK_THROW(sweep.is_array(),
                  "spec: spec.sweep: expected an array of axes");
  for (std::size_t a = 0; a < sweep.as_array().size(); ++a) {
    const json::Value& axis = sweep.as_array()[a];
    const std::string path = "sweep[" + std::to_string(a) + "]";
    HPV_CHECK_THROW(
        axis.is_array() && !axis.as_array().empty(),
        "spec: " + path + ": expected a non-empty array of patches");
    for (std::size_t i = 0; i < axis.as_array().size(); ++i) {
      HPV_CHECK_THROW(axis.as_array()[i].is_object(),
                      "spec: " + path + "[" + std::to_string(i) +
                          "]: expected a patch object");
    }
  }
}

/// Member `key` of object `obj`, appended as null when absent.
json::Value& member(json::Value& obj, std::string_view key) {
  for (json::Member& m : obj.as_object()) {
    if (m.first == key) return m.second;
  }
  obj.set(std::string(key), nullptr);
  return obj.as_object().back().second;
}

/// Member `key` of `obj` as an object, created empty when absent.
json::Value& object_member(json::Value& obj, std::string_view key) {
  json::Value& v = member(obj, key);
  if (v.is_null()) v = json::Value::object();
  return v;
}

/// JSON merge patch: objects merge member by member, anything else
/// replaces the target.
void merge(json::Value& target, const json::Value& patch) {
  if (!patch.is_object() || !target.is_object()) {
    target = patch;
    return;
  }
  for (const json::Member& m : patch.as_object()) {
    merge(member(target, m.first), m.second);
  }
}

/// A phase object's "kind", or "" when it names none.
std::string phase_kind(const json::Value& phase) {
  const json::Value* kind = phase.is_object() ? phase.find("kind") : nullptr;
  return kind != nullptr && kind->is_string() ? kind->as_string()
                                              : std::string();
}

/// A phase object's label: its "label", else its kind's default.
std::string phase_label(const json::Value& phase) {
  const json::Value* label = phase.is_object() ? phase.find("label") : nullptr;
  if (label == nullptr) return default_label(phase_kind(phase));
  return label->is_string() ? label->as_string() : std::string();
}

/// Applies one sweep patch to a point's document. Its "phases" member maps
/// phase labels to patches, each merged into every phase carrying that
/// label; every other member merges into the document.
void apply_patch(json::Value& doc, const json::Value& patch,
                 const std::string& path) {
  for (const json::Member& m : patch.as_object()) {
    HPV_CHECK_THROW(m.first != "sweep",
                    "spec: " + path + ": a sweep patch cannot hold a sweep");
    if (m.first != "phases") {
      merge(member(doc, m.first), m.second);
      continue;
    }
    HPV_CHECK_THROW(m.second.is_object(),
                    "spec: " + path +
                        ".phases: expected an object keyed by phase label");
    for (const json::Member& target : m.second.as_object()) {
      bool found = false;
      for (json::Value& phase : member(doc, "phases").as_array()) {
        if (phase_label(phase) != target.first) continue;
        merge(phase, target.second);
        found = true;
      }
      HPV_CHECK_THROW(found, "spec: " + path + ".phases." + target.first +
                                 ": names no phase");
    }
  }
}

/// The scale patch, applied after the axis patches.
void apply_scale(json::Value& doc, const ScalePatch& scale) {
  json::Value& network = object_member(doc, "network");
  if (scale.nodes) member(network, "nodes") = *scale.nodes;
  if (scale.seed) member(network, "seed") = *scale.seed;
  if (!scale.messages) return;
  for (json::Value& phase : member(doc, "phases").as_array()) {
    const std::string kind = phase_kind(phase);
    if (kind == "broadcast") member(phase, "count") = *scale.messages;
    if (kind == "heal_until") {
      member(phase, "probes_per_cycle") = *scale.messages;
    }
  }
}

/// One sweep point: `doc` with its network.seed moved `run` past its own,
/// loaded through spec_from_json. Errors name the point's patches.
SweepPoint load_point(json::Value doc, json::Value patches, std::size_t run) {
  SweepPoint p;
  p.patches = std::move(patches);
  try {
    json::Value& seed = member(object_member(doc, "network"), "seed");
    if (seed.is_null()) seed = kDefaultSeed;
    if (seed.is_int()) seed = static_cast<std::uint64_t>(seed.as_int()) + run;
    p.spec = spec_from_json(doc);
  } catch (const CheckError& e) {
    throw CheckError("sweep point " + p.patches.dump() + ": " + e.what());
  }
  return p;
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
                                           NetworkConfig{}.node_count,
                                           kDefaultSeed);
  }
  spec.tcp = load_tcp(r.get("tcp"), "tcp", spec.net);
  spec.experiment = load_phases(r, spec.name);
  check_dedup_window(spec.experiment, spec.net.gossip.dedup_window);
  if (const json::Value* sweep = r.get("sweep")) check_sweep(*sweep);
  r.finish();
  return spec;
}

std::vector<SweepPoint> expand_sweep(const json::Value& doc, std::size_t runs,
                                     const ScalePatch& scale) {
  HPV_CHECK_THROW(runs >= 1, "spec: a sweep needs at least one run");
  // The base document is a valid spec itself, sweep block included.
  (void)spec_from_json(doc);
  json::Value base = doc;
  json::Value::Array axes;
  json::Value::Object& members = base.as_object();
  for (auto it = members.begin(); it != members.end(); ++it) {
    if (it->first == "sweep") {
      axes = it->second.as_array();
      members.erase(it);
      break;
    }
  }

  std::vector<SweepPoint> points;
  // Odometer over the axes: the last axis turns fastest.
  std::vector<std::size_t> pick(axes.size(), 0);
  while (true) {
    json::Value point = base;
    json::Value patches = json::Value::array();
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const json::Value& patch = axes[a].as_array()[pick[a]];
      apply_patch(point, patch,
                  "sweep[" + std::to_string(a) + "][" +
                      std::to_string(pick[a]) + "]");
      patches.push_back(patch);
    }
    apply_scale(point, scale);
    for (std::size_t run = 0; run < runs; ++run) {
      points.push_back(load_point(point, patches, run));
    }

    std::size_t a = axes.size();
    while (a > 0 && ++pick[a - 1] == axes[a - 1].as_array().size()) {
      pick[--a] = 0;
    }
    if (a == 0) break;
  }
  return points;
}

namespace {

/// Runs `load` on the parsed file; errors name the path.
template <typename Load>
auto load_file(const std::string& path, Load&& load) {
  try {
    return load(json::parse_file(path));
  } catch (const CheckError& e) {
    const std::string what = e.what();
    // parse_file already prefixes the path for parse errors.
    if (what.find(path) == 0) throw;
    throw CheckError(path + ": " + what);
  }
}

}  // namespace

RunSpec load_spec_file(const std::string& path) {
  return load_file(path,
                   [](const json::Value& doc) { return spec_from_json(doc); });
}

std::vector<SweepPoint> load_sweep_file(const std::string& path,
                                        std::size_t runs,
                                        const ScalePatch& scale) {
  return load_file(path, [&](const json::Value& doc) {
    return expand_sweep(doc, runs, scale);
  });
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
