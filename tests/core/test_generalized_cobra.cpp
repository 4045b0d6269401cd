// Schedule walks: CobraWalk constructed from a BranchingSchedule, and the
// canned schedules of core::schedules.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/cobra_walk.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;

TEST(GeneralizedCobra, FixedScheduleMatchesCobraWalkInDistribution) {
  // With the same engine stream and k = 2, the schedule walk and the
  // fixed-k walk consume randomness identically, so their active sets
  // coincide step for step.
  const Graph g = make_grid(2, 5);
  Engine g1(9), g2(9);
  CobraWalk specialized(g, 0, 2);
  CobraWalk generalized(g, 0, schedules::fixed(2));
  for (int t = 0; t < 100; ++t) {
    specialized.step(g1);
    generalized.step(g2);
    ASSERT_EQ(std::vector<Vertex>(specialized.active().begin(),
                                  specialized.active().end()),
              std::vector<Vertex>(generalized.active().begin(),
                                  generalized.active().end()))
        << "diverged at round " << t;
  }
}

TEST(GeneralizedCobra, ActiveSetsValid) {
  const Graph g = make_cycle(20);
  Engine gen(1);
  CobraWalk walk(g, 0, schedules::shifted_geometric(0.5));
  for (int t = 0; t < 500; ++t) {
    walk.step(gen);
    const auto active = walk.active();
    const std::set<Vertex> unique(active.begin(), active.end());
    ASSERT_EQ(unique.size(), active.size());
    for (const Vertex v : active) ASSERT_LT(v, g.num_vertices());
    ASSERT_FALSE(walk.extinct());  // k >= 1 always
  }
}

TEST(GeneralizedCobra, BernoulliMixtureMeanBetweenKs) {
  // Mean branching k + p: sample draw counts via samples_drawn.
  const Graph g = make_complete(16);
  Engine gen(2);
  CobraWalk walk(g, 0, schedules::bernoulli_mixture(2, 0.5));
  std::uint64_t active_total = 0;
  for (int t = 0; t < 4000; ++t) {
    active_total += walk.active().size();
    walk.step(gen);
  }
  const double mean_k = static_cast<double>(walk.samples_drawn()) /
                        static_cast<double>(active_total);
  EXPECT_NEAR(mean_k, 2.5, 0.05);
}

TEST(GeneralizedCobra, DegreeProportionalUsesDegrees) {
  // On a star with alpha = 1, the hub emits n-1 samples, leaves emit 1.
  const Graph g = graph::make_star(10);
  Engine gen(3);
  CobraWalk walk(g, 0, schedules::degree_proportional(g, 1.0));
  walk.step(gen);  // hub emits degree(hub) = 9 samples
  EXPECT_EQ(walk.samples_drawn(), 9u);
  const std::size_t leaves_active = walk.active().size();
  walk.step(gen);  // each active leaf has degree 1 and emits 1 sample
  EXPECT_EQ(walk.samples_drawn(), 9u + leaves_active);
}

TEST(GeneralizedCobra, FaultySheduleCanGoExtinct) {
  // fail_p = 1: every vertex drops; the walk dies after one step.
  const Graph g = make_cycle(8);
  Engine gen(4);
  CobraWalk walk(g, 0, schedules::faulty(2, 1.0));
  walk.step(gen);
  EXPECT_TRUE(walk.extinct());
  EXPECT_EQ(walk.active().size(), 0u);
}

TEST(GeneralizedCobra, FaultyScheduleSurvivesLowFailureOnExpander) {
  // With fail_p = 0.2 and k = 2 the effective branching is 1.6 > 1, so on
  // a complete graph the walk survives long horizons in most runs.
  const Graph g = make_complete(64);
  Engine gen(5);
  int survived = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    CobraWalk walk(g, 0, schedules::faulty(2, 0.2));
    for (int s = 0; s < 200 && !walk.extinct(); ++s) walk.step(gen);
    if (!walk.extinct()) ++survived;
  }
  EXPECT_GT(survived, 70);
}

TEST(GeneralizedCobra, PhasedScheduleSwitches) {
  const Graph g = make_complete(32);
  Engine gen(6);
  CobraWalk walk(g, 0, schedules::phased(1, 4, 10));
  // Rounds 0..9: k = 1, single walker.
  for (int t = 0; t < 10; ++t) {
    walk.step(gen);
    EXPECT_EQ(walk.active().size(), 1u);
  }
  // After the switch, branching kicks in.
  walk.step(gen);
  EXPECT_GT(walk.active().size(), 1u);
}

TEST(GeneralizedCobra, WorksWithCoverEngine) {
  const Graph g = make_grid(2, 5);
  Engine gen(7);
  CobraWalk walk(g, 0, schedules::bernoulli_mixture(2, 0.3));
  EXPECT_TRUE(sim::run_cover(walk, gen, 1u << 22).stopped);
}

TEST(GeneralizedCobra, ScheduleValidation) {
  const Graph g = make_cycle(5);
  EXPECT_THROW(schedules::fixed(0), std::invalid_argument);
  EXPECT_THROW(schedules::bernoulli_mixture(0, 0.5), std::invalid_argument);
  EXPECT_THROW(schedules::bernoulli_mixture(2, 1.5), std::invalid_argument);
  EXPECT_THROW(schedules::shifted_geometric(0.0), std::invalid_argument);
  EXPECT_THROW(schedules::degree_proportional(g, 0.0), std::invalid_argument);
  EXPECT_THROW(schedules::faulty(2, -0.1), std::invalid_argument);
  EXPECT_THROW(schedules::phased(0, 2, 5), std::invalid_argument);
  // NaN fails every range check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(schedules::bernoulli_mixture(2, nan), std::invalid_argument);
  EXPECT_THROW(schedules::shifted_geometric(nan), std::invalid_argument);
  EXPECT_THROW(schedules::degree_proportional(g, nan), std::invalid_argument);
  EXPECT_THROW(schedules::faulty(2, nan), std::invalid_argument);
  EXPECT_THROW(CobraWalk(g, 0, nullptr), std::invalid_argument);
  // So does an infinite alpha, which would round to no count at all.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(schedules::degree_proportional(g, inf), std::invalid_argument);
}

TEST(GeneralizedCobra, SchedulesSaturateInsteadOfWrapping) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const Graph g = make_cycle(5);  // degree 2 everywhere
  Engine gen(10);
  // A count past UINT32_MAX saturates; one below it is exact.
  EXPECT_EQ(schedules::degree_proportional(g, 1e300)(0, 0, gen), kMax);
  EXPECT_EQ(schedules::degree_proportional(g, 1e9)(0, 0, gen), 2000000000u);
  // 1 + Geometric(1e-12) is ~1e12: each draw saturates at UINT32_MAX
  // rather than wrapping mod 2^32.
  const BranchingSchedule geo = schedules::shifted_geometric(1e-12);
  Engine twin(11), draws(11);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t failures = rng::geometric(twin, 1e-12);
    const std::uint64_t expected = failures < kMax ? 1 + failures : kMax;
    EXPECT_EQ(geo(0, 0, draws), expected);
  }
}

TEST(GeneralizedCobra, HigherMeanBranchingCoversFaster) {
  const Graph g = make_grid(2, 8);
  Engine gen(8);
  double slow_total = 0, fast_total = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    CobraWalk slow(g, 0, schedules::bernoulli_mixture(1, 0.2));
    slow_total +=
        static_cast<double>(sim::run_cover(slow, gen, 1u << 24).rounds);
    CobraWalk fast(g, 0, schedules::bernoulli_mixture(3, 0.2));
    fast_total +=
        static_cast<double>(sim::run_cover(fast, gen, 1u << 24).rounds);
  }
  EXPECT_LT(fast_total, slow_total);
}

}  // namespace
}  // namespace cobra::core
