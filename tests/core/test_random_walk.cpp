#include "core/random_walk.hpp"

#include <gtest/gtest.h>

#include <array>

#include "graph/generators.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_path;

TEST(RandomWalk, MovesToNeighborsOnly) {
  const Graph g = make_cycle(10);
  Engine gen(1);
  RandomWalk walk(g, 0);
  Vertex prev = walk.position();
  for (int t = 0; t < 500; ++t) {
    walk.step(gen);
    EXPECT_TRUE(g.has_edge(prev, walk.position()));
    prev = walk.position();
  }
  EXPECT_EQ(walk.round(), 500u);
}

TEST(RandomWalk, ActiveIsPosition) {
  const Graph g = make_path(5);
  RandomWalk walk(g, 2);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], 2u);
}

TEST(RandomWalk, InvalidConstruction) {
  const Graph g = make_path(3);
  EXPECT_THROW(RandomWalk(g, 3), std::out_of_range);
  EXPECT_THROW(RandomWalk(g, 0, -0.1), std::invalid_argument);
  EXPECT_THROW(RandomWalk(g, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(RandomWalk(Graph{}, 0), std::invalid_argument);
}

TEST(RandomWalk, LazinessKeepsPosition) {
  const Graph g = make_cycle(8);
  Engine gen(2);
  RandomWalk walk(g, 0, 0.5);
  int stays = 0;
  Vertex prev = walk.position();
  constexpr int kSteps = 10000;
  for (int t = 0; t < kSteps; ++t) {
    walk.step(gen);
    if (walk.position() == prev) ++stays;
    prev = walk.position();
  }
  EXPECT_NEAR(static_cast<double>(stays) / kSteps, 0.5, 0.02);
}

TEST(RandomWalk, UniformNeighborChoice) {
  // On K5 from vertex 0, each of the 4 neighbors equally likely.
  const Graph g = make_complete(5);
  Engine gen(3);
  std::array<int, 5> counts{};
  constexpr int kTrials = 40000;
  for (int t = 0; t < kTrials; ++t) {
    RandomWalk walk(g, 0);
    walk.step(gen);
    ++counts[walk.position()];
  }
  EXPECT_EQ(counts[0], 0);
  for (std::size_t v = 1; v < 5; ++v) EXPECT_NEAR(counts[v], kTrials / 4, 500);
}

TEST(RandomWalk, ParityOnBipartiteGraph) {
  // A non-lazy walk on a path alternates vertex parity every step.
  const Graph g = make_path(10);
  Engine gen(5);
  RandomWalk walk(g, 4);
  for (unsigned t = 1; t <= 100; ++t) {
    walk.step(gen);
    EXPECT_EQ((walk.position() + t + 4) % 2, 0u) << "t = " << t;
  }
}

}  // namespace
}  // namespace cobra::core
