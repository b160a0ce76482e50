// Env-var parsing for the bench scale knobs (HPV_NODES, HPV_MSGS, HPV_RUNS,
// HPV_SEED, HPV_QUICK). These drive every figure binary and the CI smoke
// tier, so the precedence rules are load-bearing.
#include "hyparview/harness/scale.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hyparview/common/assert.hpp"

namespace hyparview::harness {
namespace {

const char* const kVars[] = {"HPV_NODES", "HPV_MSGS", "HPV_RUNS", "HPV_SEED",
                             "HPV_QUICK"};

/// Clears all scale variables before each test and restores the originals
/// afterwards, so these tests compose with an HPV_QUICK=1 CI invocation.
class BenchScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* v : kVars) {
      const char* cur = std::getenv(v);
      saved_.emplace_back(v, cur ? std::optional<std::string>(cur)
                                 : std::nullopt);
      ::unsetenv(v);
    }
  }

  void TearDown() override {
    for (const auto& [name, value] : saved_) {
      if (value) {
        ::setenv(name, value->c_str(), 1);
      } else {
        ::unsetenv(name);
      }
    }
  }

  static void set(const char* name, const char* value) {
    ::setenv(name, value, 1);
  }

 private:
  std::vector<std::pair<const char*, std::optional<std::string>>> saved_;
};

TEST_F(BenchScaleTest, DefaultsMatchPaperScale) {
  const auto s = BenchScale::from_env(500);
  EXPECT_EQ(s.nodes, 10'000u);
  EXPECT_EQ(s.messages, 500u);  // the per-figure paper value passed in
  EXPECT_EQ(s.runs, 1u);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_FALSE(s.quick);
}

TEST_F(BenchScaleTest, ExplicitOverridesWin) {
  set("HPV_NODES", "2500");
  set("HPV_MSGS", "77");
  set("HPV_RUNS", "3");
  set("HPV_SEED", "1234");
  const auto s = BenchScale::from_env(500);
  EXPECT_EQ(s.nodes, 2500u);
  EXPECT_EQ(s.messages, 77u);
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.seed, 1234u);
  EXPECT_FALSE(s.quick);
}

TEST_F(BenchScaleTest, QuickShrinksNodesAndCapsMessages) {
  set("HPV_QUICK", "1");
  const auto s = BenchScale::from_env(500);
  EXPECT_TRUE(s.quick);
  EXPECT_EQ(s.nodes, 1'000u);
  EXPECT_EQ(s.messages, 100u);  // min(default, 100)
}

TEST_F(BenchScaleTest, QuickKeepsSmallDefaultMessageCount) {
  set("HPV_QUICK", "1");
  const auto s = BenchScale::from_env(30);
  EXPECT_EQ(s.messages, 30u);  // already below the quick cap
}

TEST_F(BenchScaleTest, ExplicitNodesOverridesQuickShrink) {
  set("HPV_QUICK", "1");
  set("HPV_NODES", "250");
  set("HPV_MSGS", "12");
  const auto s = BenchScale::from_env(500);
  EXPECT_TRUE(s.quick);
  EXPECT_EQ(s.nodes, 250u);
  EXPECT_EQ(s.messages, 12u);
}

TEST_F(BenchScaleTest, QuickFlagFalseValuesAreOff) {
  set("HPV_QUICK", "0");
  EXPECT_FALSE(BenchScale::from_env(500).quick);
  set("HPV_QUICK", "false");
  EXPECT_FALSE(BenchScale::from_env(500).quick);
}

TEST_F(BenchScaleTest, NegativeValuesAreRejectedByName) {
  // A negative count would wrap to a huge size_t/uint64_t: HPV_NODES=-1
  // used to abort in vector::reserve, HPV_MSGS=-3 asked for ~2^64
  // broadcasts.
  for (const char* var : {"HPV_NODES", "HPV_MSGS", "HPV_RUNS", "HPV_SEED"}) {
    SCOPED_TRACE(var);
    set(var, "-1");
    try {
      (void)BenchScale::from_env(500);
      ADD_FAILURE() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << e.what();
    }
    ::unsetenv(var);
  }
  set("HPV_QUICK", "1");
  set("HPV_MSGS", "-3");
  EXPECT_THROW((void)BenchScale::from_env(500), CheckError);
}

TEST_F(BenchScaleTest, FloorsProtectDegenerateValues) {
  set("HPV_NODES", "1");
  set("HPV_RUNS", "0");
  const auto s = BenchScale::from_env(500);
  EXPECT_EQ(s.nodes, 16u);  // minimum viable overlay
  EXPECT_EQ(s.runs, 1u);
}

}  // namespace
}  // namespace hyparview::harness
