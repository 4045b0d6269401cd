// Tests for the fault-injection registry: disabled-by-default gating,
// deterministic fail-from-k-th-hit semantics, re-arm/disarm, the
// COBRA_FAULT environment arming path benches use, the full plan grammar
// (@after %prob #limit), seeded probabilistic schedules, and the
// --fault-plan file format. The {"fault": ...} trace lines a firing emits
// are checked in tests/obs/test_trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/fault.hpp"

namespace {

using namespace cobra;
namespace fault = util::fault;

/// Every test leaves the registry clean — a leaked armed site would make
/// unrelated suites fail their "real" I/O.
struct FaultTest : ::testing::Test {
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override {
    fault::disarm_all();
    ::unsetenv("COBRA_FAULT");
  }
};

TEST_F(FaultTest, DisabledByDefault) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fail("trace.write"));
  EXPECT_FALSE(fault::should_fail("no.such.site"));
  EXPECT_EQ(fault::hits("trace.write"), 0u);
}

TEST_F(FaultTest, ArmedSiteFailsImmediatelyOthersDoNot) {
  fault::arm("trace.write");
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::should_fail("trace.write"));
  EXPECT_FALSE(fault::should_fail("gen.alloc"));
  EXPECT_EQ(fault::hits("trace.write"), 1u);
}

TEST_F(FaultTest, AfterKFailsFromKthHitOnward) {
  fault::arm("frontier.dense_alloc", 2);
  EXPECT_FALSE(fault::should_fail("frontier.dense_alloc"));  // hit 0
  EXPECT_FALSE(fault::should_fail("frontier.dense_alloc"));  // hit 1
  EXPECT_TRUE(fault::should_fail("frontier.dense_alloc"));   // hit 2: fails
  EXPECT_TRUE(fault::should_fail("frontier.dense_alloc"));   // and forever on
  EXPECT_EQ(fault::hits("frontier.dense_alloc"), 4u);
}

TEST_F(FaultTest, RearmResetsTheHitCounter) {
  fault::arm("s", 1);
  EXPECT_FALSE(fault::should_fail("s"));
  EXPECT_TRUE(fault::should_fail("s"));
  fault::arm("s", 1);  // re-arm: counter back to zero
  EXPECT_EQ(fault::hits("s"), 0u);
  EXPECT_FALSE(fault::should_fail("s"));
  EXPECT_TRUE(fault::should_fail("s"));
}

TEST_F(FaultTest, DisarmAllRestoresTheCheapPath) {
  fault::arm("a");
  fault::arm("b", 5);
  EXPECT_TRUE(fault::enabled());
  fault::disarm_all();
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::should_fail("a"));
  EXPECT_EQ(fault::hits("b"), 0u);
}

TEST_F(FaultTest, ArmFromEnvParsesSitesAndAfterCounts) {
  ::setenv("COBRA_FAULT", "gen.alloc@3,frontier.dense_alloc", 1);
  EXPECT_EQ(fault::arm_from_env(), 2u);
  // @3 semantics survive the env round trip.
  EXPECT_FALSE(fault::should_fail("gen.alloc"));
  EXPECT_FALSE(fault::should_fail("gen.alloc"));
  EXPECT_FALSE(fault::should_fail("gen.alloc"));
  EXPECT_TRUE(fault::should_fail("gen.alloc"));
  EXPECT_TRUE(fault::should_fail("frontier.dense_alloc"));
}

TEST_F(FaultTest, ArmFromEnvSkipsMalformedEntries) {
  ::setenv("COBRA_FAULT", "good.site@1,bad@not_a_number,@5,,tail.site", 1);
  EXPECT_EQ(fault::arm_from_env(), 2u);  // good.site and tail.site only
  EXPECT_FALSE(fault::should_fail("bad"));
  EXPECT_TRUE(fault::should_fail("tail.site"));
}

TEST_F(FaultTest, ArmFromEnvUnsetArmsNothing) {
  ::unsetenv("COBRA_FAULT");
  EXPECT_EQ(fault::arm_from_env(), 0u);
  EXPECT_FALSE(fault::enabled());
}

// ------------------------------------------------------- plan grammar --

TEST_F(FaultTest, PlanParsesAllSuffixesInAnyOrder) {
  const auto plan = fault::FaultPlan::parse("a@3%0.5#2,b#1%0.25,c");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].site, "a");
  EXPECT_EQ(plan.specs[0].after, 3u);
  EXPECT_DOUBLE_EQ(plan.specs[0].prob, 0.5);
  EXPECT_EQ(plan.specs[0].limit, 2u);
  EXPECT_EQ(plan.specs[1].site, "b");
  EXPECT_DOUBLE_EQ(plan.specs[1].prob, 0.25);
  EXPECT_EQ(plan.specs[1].limit, 1u);
  EXPECT_EQ(plan.specs[2].site, "c");
  EXPECT_DOUBLE_EQ(plan.specs[2].prob, 1.0);
}

TEST_F(FaultTest, PlanRejectsMalformedEntries) {
  EXPECT_THROW((void)fault::FaultPlan::parse("@3"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("a@x"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("a%2.0"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("a%-0.5"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("a@1@2"), std::invalid_argument);
  EXPECT_THROW((void)fault::FaultPlan::parse("a#"), std::invalid_argument);
}

TEST_F(FaultTest, PlanRenderRoundTrips) {
  const char* text = "a@3%0.5#2,b#1,c@1,d";
  const auto plan = fault::FaultPlan::parse(text);
  const auto again = fault::FaultPlan::parse(plan.render());
  ASSERT_EQ(again.specs.size(), plan.specs.size());
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    EXPECT_EQ(again.specs[i].site, plan.specs[i].site);
    EXPECT_EQ(again.specs[i].after, plan.specs[i].after);
    EXPECT_DOUBLE_EQ(again.specs[i].prob, plan.specs[i].prob);
    EXPECT_EQ(again.specs[i].limit, plan.specs[i].limit);
  }
}

TEST_F(FaultTest, LimitCapsTheFiringCount) {
  fault::arm_spec(fault::FaultPlan::parse("s#2").specs[0]);
  EXPECT_TRUE(fault::should_fail("s"));
  EXPECT_TRUE(fault::should_fail("s"));
  EXPECT_FALSE(fault::should_fail("s"));  // dormant after 2 firings
  EXPECT_FALSE(fault::should_fail("s"));
  EXPECT_EQ(fault::fired("s"), 2u);
  EXPECT_EQ(fault::hits("s"), 4u);
}

TEST_F(FaultTest, ProbabilisticScheduleIsAFunctionOfPlanAndSeed) {
  const auto schedule_of = [](std::uint64_t seed) {
    fault::disarm_all();
    fault::FaultPlan plan = fault::FaultPlan::parse("p%0.5");
    plan.seed = seed;
    fault::arm_plan(plan);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(fault::should_fail("p"));
    fault::disarm_all();
    return fires;
  };
  const auto a = schedule_of(41);
  const auto b = schedule_of(41);
  EXPECT_EQ(a, b);  // same (plan, seed) -> bit-identical schedule
  const auto c = schedule_of(42);
  EXPECT_NE(a, c);  // a different seed gives a different schedule
  const auto fired_count = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired_count, 10u);  // ~32 expected; bound loose on purpose
  EXPECT_LT(fired_count, 54u);
}

TEST_F(FaultTest, ArmPlanFileParsesEntriesSeedAndComments) {
  const std::string path = ::testing::TempDir() + "fault_plan.txt";
  {
    std::ofstream out(path);
    out << "# a reproducer written by cobra_chaos\n";
    out << "seed=99\n";
    out << "file.a@2%0.5#3\n";
    out << "\n";
    out << "file.b,file.c@1\n";
  }
  EXPECT_EQ(fault::arm_plan_file(path), 3u);
  // The entries keep their suffixes and the seed line seeds file.a's
  // stream: its firings match the same plan armed from text.
  std::vector<bool> from_file;
  for (int i = 0; i < 32; ++i) from_file.push_back(fault::should_fail("file.a"));
  EXPECT_TRUE(fault::should_fail("file.b"));
  EXPECT_FALSE(fault::should_fail("file.c"));
  EXPECT_TRUE(fault::should_fail("file.c"));
  fault::disarm_all();
  fault::FaultPlan plan = fault::FaultPlan::parse("file.a@2%0.5#3");
  plan.seed = 99;
  fault::arm_plan(plan);
  std::vector<bool> from_text;
  for (int i = 0; i < 32; ++i) from_text.push_back(fault::should_fail("file.a"));
  EXPECT_EQ(from_file, from_text);
  EXPECT_FALSE(from_file[0]);
  EXPECT_FALSE(from_file[1]);
  EXPECT_EQ(std::count(from_file.begin(), from_file.end(), true), 3);
  std::remove(path.c_str());
}

TEST_F(FaultTest, ArmPlanFileThrowsOnMissingOrMalformedFile) {
  EXPECT_THROW((void)fault::arm_plan_file("/no/such/fault_plan.txt"),
               std::invalid_argument);
  const std::string path = ::testing::TempDir() + "bad_plan.txt";
  {
    std::ofstream out(path);
    out << "site@not_a_number\n";
  }
  EXPECT_THROW((void)fault::arm_plan_file(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST_F(FaultTest, CobraFaultSeedEnvSeedsTheStreams) {
  ::setenv("COBRA_FAULT", "env.p%0.5", 1);
  ::setenv("COBRA_FAULT_SEED", "7", 1);
  EXPECT_EQ(fault::arm_from_env(), 1u);
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i) first.push_back(fault::should_fail("env.p"));
  fault::disarm_all();
  EXPECT_EQ(fault::arm_from_env(), 1u);  // same env -> same schedule
  std::vector<bool> second;
  for (int i = 0; i < 32; ++i) second.push_back(fault::should_fail("env.p"));
  EXPECT_EQ(first, second);
  ::unsetenv("COBRA_FAULT_SEED");
}

// Queries of a DISARMED registry race-free against disarm_all: the
// fast-path gate is one relaxed atomic load, so a should_fail() spinning
// thread and a disarm_all() thread must be clean under TSan (the
// COBRA_SANITIZE=thread lane runs this suite).
TEST_F(FaultTest, DisarmAllRacesCleanlyWithDisarmedQueries) {
  std::atomic<bool> stop{false};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)fault::should_fail("race.site");
    }
  });
  for (int i = 0; i < 200; ++i) {
    fault::arm("race.other");  // never the queried site
    fault::disarm_all();
  }
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  EXPECT_FALSE(fault::enabled());
}

}  // namespace
