// k parallel random walks (Alon et al.) as one RandomWalk built from a
// start list: walker count, per-walker moves, validation, independence,
// reset, and the one-walker fold onto the single-start walk.

#include <gtest/gtest.h>

#include <vector>

#include "core/random_walk.hpp"
#include "graph/generators.hpp"

namespace cobra::core {
namespace {

using graph::make_cycle;
using graph::make_grid;
using graph::make_path;

TEST(ParallelWalks, FixedWalkerCount) {
  const Graph g = make_grid(2, 5);
  Engine gen(1);
  RandomWalk walks(g, std::vector<Vertex>(8, 0));
  EXPECT_EQ(walks.active().size(), 8u);
  for (int t = 0; t < 100; ++t) {
    walks.step(gen);
    EXPECT_EQ(walks.active().size(), 8u);  // never coalesce, never branch
  }
}

TEST(ParallelWalks, EachWalkerMovesAlongEdges) {
  const Graph g = make_cycle(7);
  Engine gen(2);
  RandomWalk walks(g, std::vector<Vertex>(4, 3));
  std::vector<Vertex> prev(walks.active().begin(), walks.active().end());
  for (int t = 0; t < 100; ++t) {
    walks.step(gen);
    const auto current = walks.active();
    for (std::size_t i = 0; i < current.size(); ++i) {
      EXPECT_TRUE(g.has_edge(prev[i], current[i]));
    }
    prev.assign(current.begin(), current.end());
  }
}

TEST(ParallelWalks, ExplicitStartPositions) {
  const Graph g = make_path(6);
  const std::vector<Vertex> starts{0, 5, 2};
  RandomWalk walks(g, starts);
  ASSERT_EQ(walks.active().size(), 3u);
  EXPECT_EQ(walks.active()[0], 0u);
  EXPECT_EQ(walks.active()[1], 5u);
  EXPECT_EQ(walks.active()[2], 2u);
  EXPECT_EQ(walks.position(), 0u);  // walker 0
}

TEST(ParallelWalks, InvalidConstruction) {
  const Graph g = make_path(3);
  EXPECT_THROW(RandomWalk(g, std::vector<Vertex>{}), std::invalid_argument);
  EXPECT_THROW(RandomWalk(g, std::vector<Vertex>(2, 5)), std::out_of_range);
  EXPECT_THROW(RandomWalk(g, std::vector<Vertex>{0, 9}), std::out_of_range);
  EXPECT_THROW(RandomWalk(g, std::vector<Vertex>{0, 1}, 1.0),
               std::invalid_argument);
}

TEST(ParallelWalks, WalkersAreIndependent) {
  // Two walkers on a long cycle should decorrelate: they end up at different
  // positions in most runs.
  const Graph g = make_cycle(100);
  Engine gen(3);
  int distinct = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    RandomWalk walks(g, std::vector<Vertex>(2, 0));
    for (int s = 0; s < 50; ++s) walks.step(gen);
    if (walks.active()[0] != walks.active()[1]) ++distinct;
  }
  EXPECT_GT(distinct, kTrials / 2);
}

TEST(ParallelWalks, OneWalkerListIsTheSingleStartWalk) {
  // The start-list constructor with one entry must draw exactly what the
  // single-start walk draws, laziness coin included, round for round.
  const Graph g = make_grid(2, 6);
  Engine gen_list(5);
  Engine gen_single(5);
  const std::vector<Vertex> start{14};
  RandomWalk listed(g, start, 0.5);
  RandomWalk single(g, 14, 0.5);
  for (int t = 0; t < 1000; ++t) {
    listed.step(gen_list);
    single.step(gen_single);
    ASSERT_EQ(listed.position(), single.position()) << "round " << t + 1;
  }
  EXPECT_EQ(listed.round(), single.round());
  EXPECT_EQ(gen_list.state(), gen_single.state());
}

}  // namespace
}  // namespace cobra::core
