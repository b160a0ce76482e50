// JSON experiment specs: the data-driven layer over harness::Experiment.
//
// A spec file describes one experiment end to end — which protocol, how many
// nodes, which seed, which attack, and the phase list — so CI and sweep
// scripts define new scenarios (adversarial matrix, pub/sub workloads,
// hundred-node TCP soaks) without recompiling. Loading is strict: every key
// is checked against the schema, unknown keys are errors naming the full key
// path ("network.nodez"), wrong types and out-of-range fractions likewise.
// A typo must fail the run, not silently fall back to a default. Each
// protocol block also runs its own validate() at load time, so anything the
// run would reject fails `hpv_run --validate` too, naming the block.
//
// Schema (all keys optional unless noted):
//
//   {
//     "name": "fig2_point",              // required
//     "backend": "sim" | "tcp",          // default backend for hpv_run
//     "network": {                       // sim substrate + protocol params
//       "protocol": "HyParView" | "Cyclon" | "CyclonAcked" | "Scamp",
//       "nodes": 10000 (>= 2), "seed": 42, "fanout": 4,
//       "notify_on_crash": true,         // sim only; default: HyParView's
//                                        // open links report a crash, the
//                                        // others detect it on send
//       "hyparview":  { active_capacity, passive_capacity, arwl, prwl,
//                       shuffle_ka, shuffle_kp, shuffle_ttl,
//                       promote_on_any_slot, warm_cache_size },
//       "cyclon":     { view_capacity, shuffle_length, join_walk_ttl,
//                       join_walks, purge_on_unreachable,
//                       shuffle_retry_on_failure },
//       "scamp":      { c, forward_ttl, lease_cycles,
//                       heartbeat_period_cycles, isolation_timeout_cycles,
//                       purge_on_unreachable },
//       "gossip":     { engine, payload_size, dedup_window (1..2^24),
//                       cache_window (1..2^24), graft_timeout_ms,
//                       reroute_on_failure, explicit_acks },
//       "adversary":  { "attack": "none"|"poison"|"drop"|"sybil",
//                       fraction, poison_per_cycle, poison_entries,
//                       fabricated_fraction, sybils_per_burst, sybil_ttl }
//     },
//     "tcp": {                           // real-socket substrate overrides
//       "nodes": 32 (>= 2), "seed": 42,  // default: the network values
//       "join_settle_ms": 15,            // drain deadlines: a drain ends at
//       "cycle_settle_ms": 50,           // quiescence, at the latest here
//       "broadcast_timeout_ms": 5000,    // (join, round, everything else)
//       "stats_port": -1                 // -1 off, 0 ephemeral, else fixed
//     },                                 // every *_ms key: 0..10^9
//     "phases": [                        // required; Experiment::from_json
//       {"kind": "stabilize"|"cycles", "cycles": 50, "label": ...},
//       {"kind": "set_fanout", "fanout": 4, ...},
//       {"kind": "crash", "fraction": 0.5, ...},
//       {"kind": "leave", "count": 10, "graceful_fraction": 0.5, ...},
//       {"kind": "broadcast", "count": 1000, ...},
//       {"kind": "heal_until", "baseline": "measure", "max_cycles": 60,
//        "probes_per_cycle": 10, ...},
//       {"kind": "churn", "cycles": 50, "joins_per_cycle": 10,
//        "leaves_per_cycle": 10, "graceful_fraction": 0.5,
//        "probes_per_cycle": 2, ...},
//       {"kind": "heavy_churn", "dist": "pareto"|"lognormal", "cycles": 30,
//        "joins_per_cycle": 4, "pareto_alpha": 1.5, "pareto_xm": 2.0,
//        "lognormal_mu": 1.5, "lognormal_sigma": 1.0,
//        "graceful_fraction": 0.5, "probes_per_cycle": 2, ...},
//       {"kind": "pubsub", "sources": 4, "ticks": 25, "rate": 1,
//        "churn_fraction": 0.0, "cycles_per_tick": 0, ...},
//                           // sources x rate <= network.gossip.dedup_window
//       {"kind": "sybil_burst", "per_adversary": 8, ...},
//       {"kind": "settle", ...},
//       {"kind": "overlay", ...}         // graph metrics, sends nothing
//     ],
//     "sweep": [                         // optional; see below
//       [{"network": {"protocol": "Cyclon"}},
//        {"network": {"protocol": "Scamp"}}],
//       [{"phases": {"crash": {"fraction": 0.1}}},
//        {"phases": {"crash": {"fraction": 0.5}}}]
//     ]
//   }
//
// Every phase accepts a "label"; without one it is labeled by its kind
// (set_fanout: "fanout", heal_until: "heal", sybil_burst: "sybil"). Labels
// may repeat but may not contain '#': hpv_run reports the k-th phase
// carrying a label (k >= 2) as "<label>#k".
//
// Sweeps. "sweep" is a list of axes; an axis is a list of JSON patches. A
// spec runs one point per combination of one patch from each axis (the
// first axis outermost), and each point runs HPV_RUNS times (innermost)
// with network.seed = seed + run. A patch merges into the document before
// it loads: objects merge member by member, any other value replaces. Its
// "phases" member is keyed by phase label instead, and merges into every
// phase carrying that label (naming no phase is an error). Every point
// loads through spec_from_json, so each is validated like a committed
// file; the document without its sweep must be a valid spec too.
//
// Scale patch. expand_sweep applies one more patch after the axes when its
// caller passes one; hpv_run builds it from the environment: HPV_NODES sets
// network.nodes, HPV_MSGS every broadcast "count" and heal_until
// "probes_per_cycle", HPV_SEED network.seed. spec_from_json, and so
// hpv_bench, never applies it.
//
// Committed specs live in specs/ at the repo root; spec_path() resolves
// them (HPV_SPEC_DIR overrides the compiled-in location, so installed
// binaries and test sandboxes can relocate them). The committed files are
// the only definition of those experiments: each lists just what differs
// from defaults_for, and spec_json_test pins what every file loads to by
// its event count on a scaled-down sim run, summed over its points.
//
// Determinism note: loaders construct configs via the same defaults_for
// factories and Experiment builder calls the C++ tests use, so a spec that
// mirrors a hand-built setup produces bit-identical event counts at the
// same seed (pinned by spec_json_test and the bench_compare events gate).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hyparview/common/json.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace hyparview::harness {

/// Largest value of any `*_ms` key (10^9 ms, about 11.6 days). No clock
/// reaches it, so `now + delay` cannot overflow in the simulator, the
/// Plumtree graft timer or the event loop, whatever a spec asks for.
inline constexpr std::int64_t kMaxDurationMs = 1'000'000'000;

/// One fully-loaded spec: both substrate configs (the sim one always, the
/// TCP one derived from it plus the "tcp" overrides) and the phase list.
struct RunSpec {
  std::string name;
  /// "sim" or "tcp" — the spec's default substrate (hpv_run --backend
  /// overrides it).
  std::string backend = "sim";
  NetworkConfig net;
  TcpBackendConfig tcp;
  Experiment experiment{"unnamed"};
};

/// Decodes a whole spec document; a "sweep" block is shape-checked, not
/// applied. Throws CheckError naming the offending key on schema
/// violations.
[[nodiscard]] RunSpec spec_from_json(const json::Value& doc);

/// parse_file + spec_from_json; errors name the path.
[[nodiscard]] RunSpec load_spec_file(const std::string& path);

/// hpv_run's scale patch (file comment): an empty member keeps the
/// document's value.
struct ScalePatch {
  std::optional<std::size_t> nodes;     ///< network.nodes
  std::optional<std::size_t> messages;  ///< broadcast counts, heal probes
  std::optional<std::uint64_t> seed;    ///< network.seed
};

/// One point of a sweep: the axis patches that made it (a JSON array, one
/// per axis) and the spec they loaded to.
struct SweepPoint {
  json::Value patches;
  RunSpec spec;
};

/// Expands `doc`'s sweep (file comment) into its points, axis-major with
/// `runs` seeds innermost; `scale` applies after the axis patches. A spec
/// without a sweep is one point per run. Errors name the point's patches.
[[nodiscard]] std::vector<SweepPoint> expand_sweep(
    const json::Value& doc, std::size_t runs = 1, const ScalePatch& scale = {});

/// parse_file + expand_sweep; errors name the path.
[[nodiscard]] std::vector<SweepPoint> load_sweep_file(
    const std::string& path, std::size_t runs = 1,
    const ScalePatch& scale = {});

/// Directory holding the committed spec files: $HPV_SPEC_DIR when set, else
/// the compiled-in source-tree specs/ directory.
[[nodiscard]] std::string spec_dir();

/// spec_dir() + "/<name>.json".
[[nodiscard]] std::string spec_path(std::string_view name);

}  // namespace hyparview::harness
