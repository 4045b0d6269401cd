#include "core/cobra_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "graph/generators.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_path;
using graph::make_star;

TEST(CobraWalk, StartsWithSingleActiveVertex) {
  const Graph g = make_cycle(10);
  const CobraWalk walk(g, 3, 2);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], 3u);
  EXPECT_EQ(walk.round(), 0u);
  EXPECT_EQ(walk.branching(), 2u);
}

TEST(CobraWalk, InvalidConstruction) {
  const Graph g = make_cycle(5);
  EXPECT_THROW(CobraWalk(g, 0, 0), std::invalid_argument);   // k = 0
  EXPECT_THROW(CobraWalk(g, 5, 2), std::out_of_range);       // start
  EXPECT_THROW(CobraWalk(Graph{}, 0, 2), std::invalid_argument);
}

TEST(CobraWalk, ActiveSetIsAlwaysDuplicateFreeAndValid) {
  const Graph g = make_grid(2, 6);
  Engine gen(1);
  CobraWalk walk(g, 0, 2);
  for (int t = 0; t < 200; ++t) {
    walk.step(gen);
    const auto active = walk.active();
    std::set<Vertex> unique(active.begin(), active.end());
    EXPECT_EQ(unique.size(), active.size()) << "round " << t;
    for (const Vertex v : active) EXPECT_LT(v, g.num_vertices());
    EXPECT_GE(active.size(), 1u);
  }
}

TEST(CobraWalk, ActiveSetGrowthBoundedByBranching) {
  const Graph g = make_complete(64);
  Engine gen(2);
  CobraWalk walk(g, 0, 2);
  std::size_t prev = 1;
  for (int t = 0; t < 20; ++t) {
    walk.step(gen);
    EXPECT_LE(walk.active().size(), prev * 2);
    prev = walk.active().size();
  }
}

TEST(CobraWalk, NextActiveVerticesAreNeighborsOfCurrent) {
  const Graph g = make_cycle(12);
  Engine gen(3);
  CobraWalk walk(g, 5, 2);
  std::vector<Vertex> current(walk.active().begin(), walk.active().end());
  for (int t = 0; t < 50; ++t) {
    walk.step(gen);
    for (const Vertex v : walk.active()) {
      const bool adjacent =
          std::any_of(current.begin(), current.end(),
                      [&](Vertex u) { return g.has_edge(u, v); });
      EXPECT_TRUE(adjacent) << "vertex " << v << " round " << t;
    }
    current.assign(walk.active().begin(), walk.active().end());
  }
}

TEST(CobraWalk, BranchingOneIsSingleWalker) {
  const Graph g = make_grid(2, 5);
  Engine gen(4);
  CobraWalk walk(g, 0, 1);
  for (int t = 0; t < 100; ++t) {
    walk.step(gen);
    EXPECT_EQ(walk.active().size(), 1u);
  }
}

TEST(CobraWalk, DeterministicGivenSeed) {
  const Graph g = make_grid(2, 5);
  Engine g1(7), g2(7);
  CobraWalk a(g, 0, 2), b(g, 0, 2);
  for (int t = 0; t < 50; ++t) {
    a.step(g1);
    b.step(g2);
    ASSERT_EQ(std::vector<Vertex>(a.active().begin(), a.active().end()),
              std::vector<Vertex>(b.active().begin(), b.active().end()));
  }
}

TEST(CobraWalk, ResetRestoresInitialState) {
  const Graph g = make_cycle(9);
  Engine gen(5);
  CobraWalk walk(g, 2, 2);
  for (int t = 0; t < 30; ++t) walk.step(gen);
  walk.reset(7);
  EXPECT_EQ(walk.round(), 0u);
  EXPECT_EQ(walk.samples_drawn(), 0u);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], 7u);
}

TEST(CobraWalk, ResetFromSetCoalescesDuplicates) {
  const Graph g = make_cycle(9);
  CobraWalk walk(g, 0, 2);
  const std::vector<Vertex> starts{1, 2, 2, 3, 1};
  walk.reset(starts);
  EXPECT_EQ(walk.active().size(), 3u);
  EXPECT_THROW(walk.reset(std::vector<Vertex>{}), std::invalid_argument);
}

TEST(CobraWalk, SamplesDrawnAccounting) {
  const Graph g = make_complete(8);
  Engine gen(6);
  CobraWalk walk(g, 0, 3);
  walk.step(gen);  // 1 active * 3
  const std::uint64_t after_one = walk.samples_drawn();
  EXPECT_EQ(after_one, 3u);
  const std::uint64_t active_now = walk.active().size();
  walk.step(gen);
  EXPECT_EQ(walk.samples_drawn(), after_one + active_now * 3);
}

TEST(CobraWalk, SamplesDrawnAfterAMultiStartWalkIsTheSummedActiveSizes) {
  // Coalescing walks: a 1-cobra walk from a start set with a duplicate
  // draws one sample per walker per round, so the tally is the sum of the
  // walker counts over the rounds taken, merges included.
  const Graph g = make_complete(32);
  Engine gen(77);
  CobraWalk walk(g, 0, 1);
  const std::vector<Vertex> starts = {3, 17, 17, 20, 24, 29, 30};
  walk.reset(starts);
  ASSERT_EQ(walk.active().size(), 6u);
  std::uint64_t summed = 0;
  for (int t = 0; t < 20; ++t) {
    summed += walk.active().size();
    walk.step(gen);
    EXPECT_EQ(walk.samples_drawn(), summed) << "after round " << t + 1;
  }
  EXPECT_EQ(walk.round(), 20u);
  EXPECT_LT(walk.active().size(), 6u);  // some walkers merged
}

TEST(CobraWalk, StarAlternatesHubAndLeaves) {
  // From the hub, all samples land on leaves; from leaves, all land on hub.
  const Graph g = make_star(20);
  Engine gen(8);
  CobraWalk walk(g, 0, 2);
  walk.step(gen);
  for (const Vertex v : walk.active()) EXPECT_NE(v, 0u);
  EXPECT_LE(walk.active().size(), 2u);
  walk.step(gen);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], 0u);
}

TEST(CobraWalk, TwoCobraOnEdgeGraphStaysPinned) {
  // K2: both samples always land on the single neighbor.
  const Graph g = make_path(2);
  Engine gen(9);
  CobraWalk walk(g, 0, 2);
  walk.step(gen);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], 1u);
  walk.step(gen);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], 0u);
}

TEST(CobraWalk, HighBranchingSaturatesCompleteGraph) {
  // k = 16 on K9: after one step from the start vertex, expect many of the
  // 8 neighbors active (coupon-collector-ish, not all, but > 4 w.h.p.).
  const Graph g = make_complete(9);
  Engine gen(10);
  CobraWalk walk(g, 0, 16);
  walk.step(gen);
  EXPECT_GE(walk.active().size(), 5u);
}

TEST(CobraWalk, ManyStepsNoStateCorruption) {
  // Long-run smoke: reused round storage must never corrupt the active set.
  const Graph g = make_grid(2, 4);
  Engine gen(11);
  CobraWalk walk(g, 0, 2);
  for (int t = 0; t < 20000; ++t) {
    walk.step(gen);
    ASSERT_LE(walk.active().size(), g.num_vertices());
    ASSERT_GE(walk.active().size(), 1u);
  }
  EXPECT_EQ(walk.round(), 20000u);
}

}  // namespace
}  // namespace cobra::core
