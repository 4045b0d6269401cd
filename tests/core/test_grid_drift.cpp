#include "core/grid_drift.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace cobra::core {
namespace {

TEST(GridDrift, ConstructionAndAccessors) {
  GridDriftWalk walk(3, 10, 20);
  EXPECT_EQ(walk.dimensions(), 3u);
  EXPECT_EQ(walk.distance(0), 10u);
  EXPECT_EQ(walk.total_distance(), 30u);
  EXPECT_FALSE(walk.at_origin());
  EXPECT_EQ(walk.round(), 0u);
}

TEST(GridDrift, InvalidConstruction) {
  EXPECT_THROW(GridDriftWalk(std::vector<std::uint32_t>{}, 5),
               std::invalid_argument);
  EXPECT_THROW(GridDriftWalk(2, 3, 0), std::invalid_argument);
  EXPECT_THROW(GridDriftWalk(2, 9, 5), std::invalid_argument);
}

TEST(GridDrift, StepChangesAtMostOneDimensionByOne) {
  Engine gen(1);
  GridDriftWalk walk(4, 8, 16);
  for (int t = 0; t < 2000; ++t) {
    const auto before =
        std::vector<std::uint32_t>(walk.distances().begin(),
                                   walk.distances().end());
    const auto event = walk.step(gen);
    int changed = 0;
    for (std::uint32_t d = 0; d < 4; ++d) {
      const std::int64_t diff = static_cast<std::int64_t>(walk.distance(d)) -
                                static_cast<std::int64_t>(before[d]);
      EXPECT_LE(std::abs(diff), 1);
      if (diff != 0) {
        ++changed;
        EXPECT_EQ(event.dimension, static_cast<std::int32_t>(d));
        EXPECT_EQ(event.delta, static_cast<std::int32_t>(diff));
      }
    }
    EXPECT_LE(changed, 1);
    if (changed == 0) {
      EXPECT_EQ(event.dimension, -1);
    }
  }
}

TEST(GridDrift, Lemma4DecreaseBiasWhenNonzero) {
  // Lemma 4(b): conditioned on dimension i changing while z_i != 0, it
  // decreases with probability >= 1/2 + 1/(8d-4). Measure in the worst
  // configuration the lemma analyzes: one nonzero dimension among d.
  for (const std::uint32_t d : {2u, 3u, 4u}) {
    Engine gen(100 + d);
    std::uint64_t decreases = 0, changes = 0;
    for (int t = 0; t < 400000; ++t) {
      std::vector<std::uint32_t> z(d, 5);  // all nonzero
      GridDriftWalk walk(z, 1000);
      const auto event = walk.step(gen);
      if (event.dimension >= 0) {
        ++changes;
        if (event.delta < 0) ++decreases;
      }
    }
    const double conditional =
        static_cast<double>(decreases) / static_cast<double>(changes);
    const double lemma_bound = 0.5 + 1.0 / (8.0 * d - 4.0);
    EXPECT_GE(conditional, lemma_bound - 0.01)
        << "d = " << d << " measured " << conditional;
  }
}

TEST(GridDrift, Lemma4ChangeProbabilityWhenNonzero) {
  // Lemma 4(a): a nonzero dimension changes with probability >= 1/(2d-1).
  // With all dimensions nonzero and interior, each dimension changes with
  // probability ~1/d >= 1/(2d-1).
  const std::uint32_t d = 3;
  Engine gen(7);
  std::uint64_t dim0_changes = 0;
  constexpr int kTrials = 300000;
  for (int t = 0; t < kTrials; ++t) {
    GridDriftWalk walk(d, 4, 100);
    const auto event = walk.step(gen);
    if (event.dimension == 0) ++dim0_changes;
  }
  const double p = static_cast<double>(dim0_changes) / kTrials;
  EXPECT_GE(p, 1.0 / (2.0 * d - 1.0) - 0.01);
}

TEST(GridDrift, Lemma4ZeroIncreaseProbability) {
  // Lemma 4(c): a dimension at 0 increases with probability <= 2/(d+1).
  for (const std::uint32_t d : {2u, 3u, 5u}) {
    Engine gen(200 + d);
    std::uint64_t increases = 0;
    constexpr int kTrials = 300000;
    for (int t = 0; t < kTrials; ++t) {
      std::vector<std::uint32_t> z(d, 5);
      z[0] = 0;  // the dimension under test
      GridDriftWalk walk(z, 1000);
      const auto event = walk.step(gen);
      if (event.dimension == 0 && event.delta > 0) ++increases;
    }
    const double p = static_cast<double>(increases) / kTrials;
    EXPECT_LE(p, 2.0 / (d + 1.0) + 0.01) << "d = " << d;
  }
}

TEST(GridDrift, ReachesOriginAndStaysNear) {
  // Lemma 5 flavor: starting from distance n in each of d dimensions, the
  // origin is reached well within the O(d^2 n) budget.
  Engine gen(3);
  GridDriftWalk walk(2, 50, 100);
  const std::uint64_t steps = walk.run_to_origin(gen, 64ull * 4 * 50 * 100);
  EXPECT_TRUE(walk.at_origin());
  EXPECT_GT(steps, 50u);  // needs at least the initial distance in moves
}

TEST(GridDrift, OriginIsSticky) {
  // Lemma 6 flavor: once at the origin, excursions stay small. Track the
  // max total distance over a long horizon.
  Engine gen(4);
  GridDriftWalk walk(3, 0, 1000);
  std::uint64_t max_dist = 0;
  for (int t = 0; t < 200000; ++t) {
    walk.step(gen);
    max_dist = std::max(max_dist, walk.total_distance());
  }
  // c_d ln n with n = 1000: generous cap of 40.
  EXPECT_LT(max_dist, 40u);
}

TEST(GridDrift, OneDimensionIsBiasedWalk) {
  // d = 1: both clones move in the same dimension; the selection rule keeps
  // a decreasing clone when one exists: P(decrease) = 3/4 interior.
  Engine gen(6);
  std::uint64_t decreases = 0;
  constexpr int kTrials = 200000;
  for (int t = 0; t < kTrials; ++t) {
    GridDriftWalk walk(1, 5, 100);
    const auto event = walk.step(gen);
    if (event.delta < 0) ++decreases;
  }
  EXPECT_NEAR(static_cast<double>(decreases) / kTrials, 0.75, 0.01);
}

}  // namespace
}  // namespace cobra::core
