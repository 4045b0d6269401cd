// Coalescing random walks: a 1-cobra walk reset to a start set. Walkers that
// land on one vertex merge, so the merge count is the start count minus the
// walker count (`frontier().size()`).
#include "core/cobra_walk.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <set>
#include <vector>

#include "graph/generators.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;

CobraWalk coalescing(const Graph& g, const std::vector<Vertex>& starts) {
  CobraWalk walks(g, 0, 1);
  walks.reset(starts);
  return walks;
}

TEST(Coalescing, DuplicatesMergeOnConstruction) {
  const Graph g = make_cycle(10);
  const std::vector<Vertex> starts{1, 1, 2, 3, 3, 3};
  const CobraWalk walks = coalescing(g, starts);
  EXPECT_EQ(walks.frontier().size(), 3u);
  EXPECT_EQ(starts.size() - walks.frontier().size(), 3u);  // merges
}

TEST(Coalescing, WalkerCountNeverIncreases) {
  const Graph g = make_grid(2, 5);
  std::vector<Vertex> starts(10);
  std::iota(starts.begin(), starts.end(), 0);
  Engine gen(1);
  CobraWalk walks = coalescing(g, starts);
  std::size_t prev = walks.frontier().size();
  for (int t = 0; t < 500; ++t) {
    walks.step(gen);
    EXPECT_LE(walks.frontier().size(), prev);
    EXPECT_GE(walks.frontier().size(), 1u);
    prev = walks.frontier().size();
  }
}

TEST(Coalescing, PositionsAlwaysDistinct) {
  const Graph g = make_complete(20);
  const std::vector<Vertex> starts{0, 1, 2, 3, 4, 5, 6, 7};
  Engine gen(2);
  CobraWalk walks = coalescing(g, starts);
  for (int t = 0; t < 200; ++t) {
    walks.step(gen);
    const auto active = walks.active();
    const std::set<Vertex> unique(active.begin(), active.end());
    ASSERT_EQ(unique.size(), active.size());
  }
}

TEST(Coalescing, EventuallySingleOnCompleteGraph) {
  // On K_n coalescence is fast (meeting probability per step is high).
  const Graph g = make_complete(16);
  std::vector<Vertex> starts(16);
  std::iota(starts.begin(), starts.end(), 0);
  Engine gen(3);
  CobraWalk walks = coalescing(g, starts);
  while (walks.frontier().size() > 1 && walks.round() < 100000) {
    walks.step(gen);
  }
  EXPECT_EQ(walks.frontier().size(), 1u);
  EXPECT_LT(walks.round(), 100000u);
  EXPECT_EQ(starts.size() - walks.frontier().size(), 15u);  // merges
}

TEST(Coalescing, MergeCountAccountsForAllLosses) {
  // Per-round losses add up to the merges: no walker is ever created.
  const Graph g = make_grid(2, 4);
  const std::vector<Vertex> starts{0, 3, 12, 15, 5, 10};
  Engine gen(4);
  CobraWalk walks = coalescing(g, starts);
  std::size_t prev = walks.frontier().size();
  std::size_t losses = starts.size() - prev;
  for (int t = 0; t < 1000; ++t) {
    walks.step(gen);
    ASSERT_LE(walks.frontier().size(), prev);
    losses += prev - walks.frontier().size();
    prev = walks.frontier().size();
  }
  EXPECT_EQ(walks.frontier().size() + losses, starts.size());
}

TEST(Coalescing, SingleWalkerIsStable) {
  const Graph g = make_cycle(8);
  Engine gen(5);
  CobraWalk walks = coalescing(g, {4});
  for (int t = 0; t < 100; ++t) {
    walks.step(gen);
    EXPECT_EQ(walks.frontier().size(), 1u);
  }
}

TEST(Coalescing, RunToSingleRespectsBudget) {
  // Two walkers 500 apart on C_1000 cannot meet within a 10-round budget.
  const Graph g = make_cycle(1000);
  Engine gen(6);
  CobraWalk walks = coalescing(g, {0, 500});
  while (walks.frontier().size() > 1 && walks.round() < 10) walks.step(gen);
  EXPECT_EQ(walks.round(), 10u);
  EXPECT_EQ(walks.frontier().size(), 2u);
}

TEST(Coalescing, InvalidInput) {
  const Graph g = make_cycle(5);
  CobraWalk walks(g, 0, 1);
  EXPECT_THROW(walks.reset(std::vector<Vertex>{}), std::invalid_argument);
  EXPECT_THROW(walks.reset(std::vector<Vertex>{7}), std::out_of_range);
  EXPECT_THROW(walks.reset(std::vector<Vertex>{0, 7}), std::out_of_range);
}

}  // namespace
}  // namespace cobra::core
