#include "hyparview/harness/scale.hpp"

#include <algorithm>
#include <string>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/options.hpp"

namespace hyparview::harness {

namespace {

/// env_int for a count or seed: a negative value would wrap to a huge
/// size_t/uint64_t (a 2^64-message run, a reserve() that throws), so it is
/// rejected by name instead.
std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  const std::int64_t v = env_int(name, static_cast<std::int64_t>(fallback));
  HPV_CHECK_THROW(v >= 0, std::string("env var ") + name +
                              ": expected a non-negative integer, got " +
                              std::to_string(v));
  return static_cast<std::uint64_t>(v);
}

}  // namespace

BenchScale BenchScale::from_env(std::size_t default_messages) {
  BenchScale s;
  s.messages = default_messages;
  s.quick = env_flag("HPV_QUICK", false);
  if (s.quick) {
    s.nodes = 1'000;
    s.messages = std::min<std::size_t>(default_messages, 100);
  }
  s.nodes = env_count("HPV_NODES", s.nodes);
  s.messages = env_count("HPV_MSGS", s.messages);
  s.runs = env_count("HPV_RUNS", 1);
  s.seed = env_count("HPV_SEED", 42);
  s.nodes = std::max<std::size_t>(s.nodes, 16);
  s.runs = std::max<std::size_t>(s.runs, 1);
  return s;
}

}  // namespace hyparview::harness
