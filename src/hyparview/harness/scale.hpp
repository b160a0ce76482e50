// Bench scaling knobs.
//
// Every bench binary reads its scale from the environment so the same
// executables serve CI smoke runs and paper-scale reproductions:
//   HPV_NODES  — network size           (default: paper's 10000)
//   HPV_MSGS   — broadcasts per scenario (default: per-figure paper value)
//   HPV_RUNS   — independent repetitions to aggregate (default 1)
//   HPV_SEED   — master seed (default 42)
//   HPV_QUICK  — =1 shrinks to a 1000-node / 100-message smoke setup
#pragma once

#include <cstdint>
#include <optional>

namespace hyparview::harness {

/// An HPV_* count or seed: nullopt when unset or malformed (env_int falls
/// back on both), CheckError naming the variable when negative — a negative
/// value would wrap to a huge size_t/uint64_t (a 2^64-message run, a
/// reserve() that throws).
[[nodiscard]] std::optional<std::uint64_t> env_count(const char* name);

struct BenchScale {
  std::size_t nodes = 10'000;
  std::size_t messages = 1'000;
  std::size_t runs = 1;
  std::uint64_t seed = 42;
  bool quick = false;

  /// Reads the environment; `default_messages` is the paper's per-figure
  /// message count. A negative HPV_NODES, HPV_MSGS, HPV_RUNS or HPV_SEED
  /// throws CheckError naming the variable.
  [[nodiscard]] static BenchScale from_env(std::size_t default_messages);
};

}  // namespace hyparview::harness
