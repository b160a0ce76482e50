#include "hyparview/harness/scale.hpp"

#include <algorithm>
#include <string>

#include "hyparview/common/assert.hpp"
#include "hyparview/common/options.hpp"

namespace hyparview::harness {

std::optional<std::uint64_t> env_count(const char* name) {
  const std::int64_t v = env_int(name, 0);
  if (v != env_int(name, 1)) return std::nullopt;
  HPV_CHECK_THROW(v >= 0, std::string("env var ") + name +
                              ": expected a non-negative integer, got " +
                              std::to_string(v));
  return static_cast<std::uint64_t>(v);
}

BenchScale BenchScale::from_env(std::size_t default_messages) {
  BenchScale s;
  s.messages = default_messages;
  s.quick = env_flag("HPV_QUICK", false);
  if (s.quick) {
    s.nodes = 1'000;
    s.messages = std::min<std::size_t>(default_messages, 100);
  }
  s.nodes = env_count("HPV_NODES").value_or(s.nodes);
  s.messages = env_count("HPV_MSGS").value_or(s.messages);
  s.runs = env_count("HPV_RUNS").value_or(1);
  s.seed = env_count("HPV_SEED").value_or(42);
  s.nodes = std::max<std::size_t>(s.nodes, 16);
  s.runs = std::max<std::size_t>(s.runs, 1);
  return s;
}

}  // namespace hyparview::harness
