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
//       "hyparview":  { active_capacity, passive_capacity, arwl, prwl,
//                       shuffle_ka, shuffle_kp, shuffle_ttl,
//                       promote_on_any_slot, warm_cache_size },
//       "cyclon":     { view_capacity, shuffle_length, join_walk_ttl,
//                       join_walks, purge_on_unreachable,
//                       shuffle_retry_on_failure },
//       "scamp":      { c, forward_ttl, lease_cycles,
//                       heartbeat_period_cycles, isolation_timeout_cycles,
//                       purge_on_unreachable },
//       "gossip":     { engine, payload_size, dedup_window (>= 1),
//                       cache_window (>= 1), graft_timeout_ms,
//                       reroute_on_failure, explicit_acks },
//       "adversary":  { "attack": "none"|"poison"|"drop"|"sybil",
//                       fraction, poison_per_cycle, poison_entries,
//                       fabricated_fraction, sybils_per_burst, sybil_ttl }
//     },
//     "tcp": {                           // real-socket substrate overrides
//       "nodes": 32 (>= 2), "seed": 42,  // default: the network values
//       "join_settle_ms": 15, "cycle_settle_ms": 50, "leave_settle_ms": 40,
//       "settle_window_ms": 30, "broadcast_timeout_ms": 5000,
//       "broadcast_quiet_window_ms": 150,
//       "stats_port": -1                 // -1 off, 0 ephemeral, else fixed
//     },                                 // every *_ms key: >= 0
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
//       {"kind": "sybil_burst", "per_adversary": 8, ...},
//       {"kind": "settle", ...}
//     ]
//   }
//
// Every phase accepts a "label". Committed specs live in specs/ at the repo
// root; spec_path() resolves them (HPV_SPEC_DIR overrides the compiled-in
// location, so installed binaries and test sandboxes can relocate them).
// The committed files are the only definition of those experiments: each
// lists just what differs from defaults_for, and spec_json_test pins what
// every file loads to by its event count on a scaled-down sim run.
//
// Determinism note: loaders construct configs via the same defaults_for
// factories and Experiment builder calls the C++ drivers use, so a spec that
// mirrors a driver's hardcoded setup produces bit-identical event counts at
// the same seed (pinned by spec_json_test and the bench_compare events
// gate).
#pragma once

#include <string>
#include <string_view>

#include "hyparview/common/json.hpp"
#include "hyparview/harness/experiment.hpp"
#include "hyparview/harness/sim_backend.hpp"
#include "hyparview/harness/tcp_backend.hpp"

namespace hyparview::harness {

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

/// Decodes a whole spec document. Throws CheckError naming the offending
/// key on schema violations.
[[nodiscard]] RunSpec spec_from_json(const json::Value& doc);

/// parse_file + spec_from_json; errors name the path.
[[nodiscard]] RunSpec load_spec_file(const std::string& path);

/// Directory holding the committed spec files: $HPV_SPEC_DIR when set, else
/// the compiled-in source-tree specs/ directory.
[[nodiscard]] std::string spec_dir();

/// spec_dir() + "/<name>.json".
[[nodiscard]] std::string spec_path(std::string_view name);

}  // namespace hyparview::harness
