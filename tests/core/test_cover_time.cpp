// Cover-time measurement: sim::CoverStop driven by hand and through the
// Runner, budget truncation, small-graph cover times, and the default
// step budget.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/parallel_walks.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace {

using namespace cobra;

/// A process whose active set the test writes directly, for driving
/// CoverStop's start/observe by hand the way standalone callers do.
struct ScriptedProcess {
  std::uint32_t vertices = 0;
  std::vector<core::Vertex> current;

  void step(core::Engine&) {}
  [[nodiscard]] std::span<const core::Vertex> active() const { return current; }
  [[nodiscard]] std::uint64_t round() const { return 0; }
  [[nodiscard]] std::uint32_t n() const { return vertices; }
};

TEST(CoverStop, CountsEachVertexOnce) {
  ScriptedProcess p{5, {0, 1, 1, 2}};
  sim::CoverStop cover;
  cover.start(p);
  EXPECT_EQ(cover.covered_count(), 3u);
  p.current = {2, 3};
  cover.observe(p);
  EXPECT_EQ(cover.covered_count(), 4u);
  EXPECT_FALSE(cover.done(p));
  p.current = {4};
  cover.observe(p);
  EXPECT_TRUE(cover.done(p));
}

TEST(CoverStop, StartResetsCoverage) {
  ScriptedProcess p{3, {0, 1, 2}};
  sim::CoverStop cover;
  cover.start(p);
  EXPECT_TRUE(cover.complete());
  p.current = {1};
  cover.start(p);
  EXPECT_EQ(cover.covered_count(), 1u);
  EXPECT_FALSE(cover.complete());
}

TEST(CoverStop, EmptyProcessIsTriviallyComplete) {
  const ScriptedProcess p;
  sim::CoverStop cover;
  EXPECT_FALSE(cover.complete());  // not started yet
  cover.start(p);
  EXPECT_TRUE(cover.complete());
}

TEST(CoverStop, InitialActiveSetCountsAsCovered) {
  const graph::Graph g = graph::make_star(5);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  cover.start(walk);
  EXPECT_EQ(cover.covered_count(), 1u);
  EXPECT_FALSE(cover.complete());
}

TEST(CoverTime, SingleVertexGraphIsRejected) {
  // A lone vertex has no edge to step along, so walks refuse it; the
  // 2-vertex path is the smallest walkable graph and covers in 1 step.
  const graph::Graph single = graph::make_path(1);
  EXPECT_THROW(core::CobraWalk(single, 0, 2), std::invalid_argument);
  const graph::Graph g = graph::make_path(2);
  core::Engine gen(1);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const auto r = sim::Runner(100).run(walk, gen, cover);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 1u);
}

TEST(CoverTime, RespectsBudget) {
  const graph::Graph g = graph::make_cycle(1000);
  core::Engine gen(2);
  core::RandomWalk walk(g, 0);
  sim::CoverStop cover;
  const auto r = sim::Runner(50).run(walk, gen, cover);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.rounds, 50u);
  EXPECT_LT(cover.covered_count(), 1000u);
  EXPECT_GE(cover.covered_count(), 1u);
}

TEST(CoverTime, CobraCoversSmallGrid) {
  const graph::Graph g = graph::make_grid(2, 4);
  core::Engine gen(3);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const auto r = sim::Runner().run(walk, gen, cover);
  EXPECT_TRUE(r.stopped);
  EXPECT_GT(r.rounds, 0u);
  EXPECT_EQ(cover.covered_count(), 16u);
}

TEST(CoverTime, RandomWalkCoversCycle) {
  const graph::Graph g = graph::make_cycle(12);
  core::Engine gen(4);
  core::RandomWalk walk(g, 0);
  const auto r = sim::run_cover(walk, gen);
  EXPECT_TRUE(r.stopped);
  // Cycle cover time is n(n-1)/2 = 66 in expectation; sanity range.
  EXPECT_GT(r.rounds, 10u);
}

TEST(CoverTime, CompleteGraphCoverIsCouponCollector) {
  // Mean near n H_{n-1} ~ 12 * 3.02 ~ 36 for K12's random walk (no
  // self-moves, so slightly less); check the scale.
  const graph::Graph g = graph::make_complete(12);
  core::Engine gen(5);
  double total = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    core::RandomWalk walk(g, 0);
    const auto r = sim::run_cover(walk, gen);
    ASSERT_TRUE(r.stopped);
    total += static_cast<double>(r.rounds);
  }
  EXPECT_GT(total / kTrials, 20.0);
  EXPECT_LT(total / kTrials, 50.0);
}

TEST(CoverTime, HigherBranchingCoversFaster) {
  const graph::Graph g = graph::make_grid(2, 8);
  core::Engine gen(6);
  double k2_total = 0, k4_total = 0;
  for (int t = 0; t < 50; ++t) {
    k2_total += sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
    k4_total += sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 4u);
  }
  EXPECT_LT(k4_total, k2_total);
}

TEST(CoverTime, WaltCoversWithManyPebbles) {
  const graph::Graph g = graph::make_complete(20);
  core::Engine gen(7);
  core::Walt walt(g, 0, 10, true);
  EXPECT_TRUE(sim::run_cover(walt, gen).stopped);
}

TEST(CoverTime, ParallelWalksCover) {
  const graph::Graph g = graph::make_cycle(30);
  core::Engine gen(8);
  core::ParallelWalks one(g, 0, 1);
  EXPECT_TRUE(sim::run_cover(one, gen).stopped);
  core::ParallelWalks many(g, 0, 8);
  EXPECT_TRUE(sim::run_cover(many, gen).stopped);
}

TEST(DefaultStepBudget, GenerousAndMonotone) {
  EXPECT_GE(sim::default_step_budget(1), 1u << 20);
  EXPECT_GE(sim::default_step_budget(100), 32ull * 100 * 100 * 100);
  EXPECT_GT(sim::default_step_budget(1000), sim::default_step_budget(100));
  // 32 n^3 leaves uint64 near n = 8.3e5: the budget must saturate there,
  // not wrap back down to the 2^20 floor.
  for (std::uint32_t k = 1; k <= 31; ++k) {
    EXPECT_GE(sim::default_step_budget(1u << k),
              sim::default_step_budget(1u << (k - 1)))
        << "n = 2^" << k;
  }
  EXPECT_GT(sim::default_step_budget(1u << 20),
            sim::default_step_budget(1u << 19));
  EXPECT_EQ(sim::default_step_budget(std::numeric_limits<std::uint32_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
