// Hitting-time measurement through sim::run_hit / hit_rounds: budget
// truncation, small-graph hitting times, and sim::estimate_cobra_hmax.

#include <gtest/gtest.h>

#include "core/biased_walk.hpp"
#include "core/cobra_walk.hpp"
#include "core/random_walk.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

TEST(HittingTime, TargetAlreadyActiveIsZero) {
  const graph::Graph g = graph::make_cycle(8);
  core::Engine gen(1);
  core::CobraWalk walk(g, 3, 2);
  const auto r = sim::run_hit(walk, 3, gen, 100);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 0u);
}

TEST(HittingTime, RespectsBudget) {
  // 20 steps cannot cross half of a 10^5-cycle.
  const graph::Graph g = graph::make_cycle(100000);
  core::Engine gen(2);
  core::RandomWalk walk(g, 0);
  const auto r = sim::run_hit(walk, 50000, gen, 20);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.rounds, 20u);
}

TEST(HittingTime, AdjacentVertexOnPathOfTwo) {
  const graph::Graph g = graph::make_path(2);
  core::Engine gen(3);
  core::RandomWalk walk(g, 0);
  const auto r = sim::run_hit(walk, 1, gen);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 1u);  // only one possible move
}

TEST(HittingTime, CobraMeanMatchesKnownCycleScale) {
  // On a cycle, 2-cobra hitting time of the antipode is Θ(n) (grid d=1).
  const graph::Graph g = graph::make_cycle(32);
  core::Engine gen(4);
  double total = 0;
  constexpr int kTrials = 100;
  for (int t = 0; t < kTrials; ++t) {
    core::CobraWalk walk(g, 0, 2);
    const auto r = sim::run_hit(walk, 16, gen);
    ASSERT_TRUE(r.stopped);
    total += static_cast<double>(r.rounds);
  }
  const double mean = total / kTrials;
  EXPECT_GT(mean, 16.0);   // at least the distance
  EXPECT_LT(mean, 500.0);  // far below RW's Θ(n^2) ~ 256+
}

TEST(HittingTime, CobraFasterThanRandomWalkOnCycle) {
  const graph::Graph g = graph::make_cycle(64);
  core::Engine gen(5);
  double cobra_total = 0, rw_total = 0;
  for (int t = 0; t < 60; ++t) {
    cobra_total += sim::hit_rounds<core::CobraWalk>(gen, 32, g, 0u, 2u);
    rw_total += sim::hit_rounds<core::RandomWalk>(gen, 32, g, 0u);
  }
  EXPECT_LT(cobra_total * 2, rw_total);
}

TEST(HittingTime, InverseDegreeWalkReachesTarget) {
  const graph::Graph g = graph::make_complete(10);
  core::Engine gen(8);
  core::BiasedWalk walk(g, 0, 5, core::BiasSchedule::InverseDegreeBias);
  const auto r = sim::run_hit(walk, 5, gen);
  EXPECT_TRUE(r.stopped);
  EXPECT_GE(r.rounds, 1u);
}

TEST(EstimateCobraHmax, ExhaustiveOnTinyGraph) {
  const graph::Graph g = graph::make_path(4);
  core::Engine gen(6);
  const sim::HmaxEstimate est = sim::estimate_cobra_hmax(g, 2, gen, 0, 20);
  EXPECT_TRUE(est.all_hit);
  EXPECT_EQ(est.pairs, 12u);  // 4*3 ordered pairs
  EXPECT_GT(est.hmax, 2.0);   // end-to-end needs >= 3 steps
  // The extremal pair should be an endpoint pair.
  EXPECT_TRUE((est.argmax_from == 0 && est.argmax_to == 3) ||
              (est.argmax_from == 3 && est.argmax_to == 0));
}

TEST(EstimateCobraHmax, SampledPairs) {
  const graph::Graph g = graph::make_cycle(20);
  core::Engine gen(7);
  const sim::HmaxEstimate est = sim::estimate_cobra_hmax(g, 2, gen, 30, 5);
  EXPECT_TRUE(est.all_hit);
  EXPECT_EQ(est.pairs, 30u);  // sampled pairs are distinct by construction
  EXPECT_GT(est.hmax, 0.0);
}

}  // namespace
