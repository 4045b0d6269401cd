#include "core/walt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "graph/generators.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_path;

TEST(Walt, PebbleCountIsInvariant) {
  const Graph g = make_grid(2, 5);
  Engine gen(1);
  Walt walt(g, 0, 10, /*lazy=*/false);
  EXPECT_EQ(walt.pebble_count(), 10u);
  for (int t = 0; t < 200; ++t) {
    walt.step(gen);
    EXPECT_EQ(walt.pebbles().size(), 10u);
  }
}

TEST(Walt, OccupiedIsDistinctSetOfPebblePositions) {
  const Graph g = make_cycle(12);
  Engine gen(2);
  Walt walt(g, 0, 6, false);
  for (int t = 0; t < 100; ++t) {
    walt.step(gen);
    std::set<Vertex> expected(walt.pebbles().begin(), walt.pebbles().end());
    std::set<Vertex> actual(walt.active().begin(), walt.active().end());
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(walt.active().size(), expected.size());
  }
}

TEST(Walt, PebblesMoveAlongEdges) {
  const Graph g = make_grid(2, 4);
  Engine gen(3);
  Walt walt(g, 5, 4, false);
  std::vector<Vertex> prev(walt.pebbles().begin(), walt.pebbles().end());
  for (int t = 0; t < 100; ++t) {
    walt.step(gen);
    for (std::size_t i = 0; i < prev.size(); ++i) {
      EXPECT_TRUE(g.has_edge(prev[i], walt.pebbles()[i]))
          << "pebble " << i << " round " << t;
    }
    prev.assign(walt.pebbles().begin(), walt.pebbles().end());
  }
}

TEST(Walt, RuleTwoThirdPebbleFollowsALeader) {
  // All pebbles co-located: after one (non-lazy) step every pebble must sit
  // on one of the first two pebbles' destinations.
  const Graph g = make_complete(30);
  Engine gen(4);
  for (int rep = 0; rep < 200; ++rep) {
    Walt walt(g, 0, 7, false);
    walt.step(gen);
    const auto pebbles = walt.pebbles();
    const Vertex u = pebbles[0];
    const Vertex w = pebbles[1];
    for (std::size_t i = 2; i < pebbles.size(); ++i) {
      EXPECT_TRUE(pebbles[i] == u || pebbles[i] == w)
          << "pebble " << i << " escaped to " << pebbles[i];
    }
    EXPECT_LE(walt.active().size(), 2u);
  }
}

TEST(Walt, RuleTwoCoinIsFair) {
  // With many followers and distinct leader destinations, followers split
  // roughly evenly between u and w.
  const Graph g = make_complete(50);
  Engine gen(5);
  double followers_to_u = 0, followers_total = 0;
  for (int rep = 0; rep < 500; ++rep) {
    Walt walt(g, 0, 22, false);
    walt.step(gen);
    const auto pebbles = walt.pebbles();
    const Vertex u = pebbles[0];
    const Vertex w = pebbles[1];
    if (u == w) continue;
    for (std::size_t i = 2; i < pebbles.size(); ++i) {
      followers_total += 1;
      if (pebbles[i] == u) followers_to_u += 1;
    }
  }
  EXPECT_NEAR(followers_to_u / followers_total, 0.5, 0.02);
}

TEST(Walt, SingleAndPairMoveIndependently) {
  // Two pebbles at the same vertex (rule 1): both move u.a.r.; over many
  // trials on a cycle their joint distribution covers all 4 combinations.
  const Graph g = make_cycle(10);
  Engine gen(6);
  std::map<std::pair<Vertex, Vertex>, int> joint;
  for (int rep = 0; rep < 4000; ++rep) {
    Walt walt(g, 5, 2, false);
    walt.step(gen);
    joint[{walt.pebbles()[0], walt.pebbles()[1]}]++;
  }
  // Destinations 4 and 6, each combination ~1000.
  EXPECT_EQ(joint.size(), 4u);
  for (const auto& [combo, count] : joint) {
    EXPECT_NEAR(count, 1000, 150) << combo.first << "," << combo.second;
  }
}

TEST(Walt, LazyFreezesWholeConfiguration) {
  const Graph g = make_grid(2, 4);
  Engine gen(7);
  Walt walt(g, 0, 5, /*lazy=*/true);
  int frozen = 0;
  std::vector<Vertex> prev(walt.pebbles().begin(), walt.pebbles().end());
  constexpr int kSteps = 4000;
  for (int t = 0; t < kSteps; ++t) {
    walt.step(gen);
    const bool same =
        std::equal(prev.begin(), prev.end(), walt.pebbles().begin());
    if (same) ++frozen;
    prev.assign(walt.pebbles().begin(), walt.pebbles().end());
  }
  EXPECT_EQ(walt.lazy_skips(), static_cast<std::uint64_t>(frozen));
  EXPECT_NEAR(static_cast<double>(frozen) / kSteps, 0.5, 0.03);
}

TEST(Walt, NonLazyNeverSkips) {
  const Graph g = make_cycle(6);
  Engine gen(8);
  Walt walt(g, 0, 3, false);
  for (int t = 0; t < 100; ++t) walt.step(gen);
  EXPECT_EQ(walt.lazy_skips(), 0u);
}

TEST(Walt, ExplicitStartPositions) {
  const Graph g = make_path(6);
  const std::vector<Vertex> starts{0, 3, 3, 5};
  Walt walt(g, starts, false);
  EXPECT_EQ(walt.pebble_count(), 4u);
  EXPECT_EQ(walt.active().size(), 3u);  // {0, 3, 5}
}

TEST(Walt, InvalidConstruction) {
  const Graph g = make_path(4);
  EXPECT_THROW(Walt(g, 0, 0, false), std::invalid_argument);
  EXPECT_THROW(Walt(g, 9, 2, false), std::out_of_range);
  EXPECT_THROW(Walt(Graph{}, 0, 2, false), std::invalid_argument);
}

TEST(Walt, ActiveSetNeverExceedsPebbles) {
  const Graph g = make_complete(40);
  Engine gen(9);
  Walt walt(g, 0, 15, true);
  for (int t = 0; t < 300; ++t) {
    walt.step(gen);
    EXPECT_LE(walt.active().size(), 15u);
    EXPECT_GE(walt.active().size(), 1u);
  }
}

}  // namespace
}  // namespace cobra::core
