/// Parameterized property sweeps: invariants every process must satisfy on
/// every graph family. These are the library's property-based tests — each
/// (process, family) cell checks validity of active sets, eventual
/// coverage, and determinism.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "gen/families.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace cobra {
namespace {

using core::Engine;
using graph::Graph;
using graph::Vertex;

struct SweepCase {
  std::string name;
  std::function<Graph()> make_graph;
};

std::vector<SweepCase> families() {
  return {
      {"cycle", [] { return graph::make_cycle(24); }},
      {"grid2", [] { return graph::make_grid(2, 5); }},
      {"grid3", [] { return graph::make_grid(3, 3); }},
      {"torus", [] { return graph::make_grid(2, 5, true); }},
      {"hypercube", [] { return graph::make_hypercube(5); }},
      {"complete", [] { return graph::make_complete(16); }},
      {"star", [] { return graph::make_star(16); }},
      {"tree", [] { return graph::make_kary_tree(2, 5); }},
      {"lollipop", [] { return graph::make_lollipop(10, 6); }},
      {"regular",
       [] {
         Engine eng(42);
         return gen::random_regular(48, 4, eng());
       }},
  };
}

class ProcessProperties : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ProcessProperties, CobraActiveSetsValidAndCoverHappens) {
  const Graph g = GetParam().make_graph();
  Engine gen(1);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  cover.start(walk);
  for (int t = 0; t < 100000 && !cover.complete(); ++t) {
    walk.step(gen);
    for (const Vertex v : walk.active()) ASSERT_LT(v, g.num_vertices());
    const std::set<Vertex> unique(walk.active().begin(), walk.active().end());
    ASSERT_EQ(unique.size(), walk.active().size());
    cover.observe(walk);
  }
  EXPECT_TRUE(cover.complete()) << GetParam().name;
}

TEST_P(ProcessProperties, RandomWalkEventuallyCovers) {
  const Graph g = GetParam().make_graph();
  Engine gen(2);
  core::RandomWalk walk(g, 0);
  EXPECT_TRUE(sim::run_cover(walk, gen).stopped) << GetParam().name;
}

TEST_P(ProcessProperties, GossipCompletesAndIsMonotone) {
  const Graph g = GetParam().make_graph();
  Engine gen(3);
  core::Gossip gossip(g, 0);
  std::uint32_t prev = gossip.informed_count();
  for (int t = 0; t < 1000000 && !gossip.complete(); ++t) {
    gossip.step(gen);
    ASSERT_GE(gossip.informed_count(), prev);
    prev = gossip.informed_count();
  }
  EXPECT_TRUE(gossip.complete()) << GetParam().name;
}

TEST_P(ProcessProperties, WaltConservesPebblesAndCovers) {
  const Graph g = GetParam().make_graph();
  Engine gen(4);
  const std::uint32_t pebbles = std::max(2u, g.num_vertices() / 2);
  core::Walt walt(g, 0, pebbles, true);
  sim::CoverStop cover;
  cover.start(walt);
  for (int t = 0; t < 200000 && !cover.complete(); ++t) {
    walt.step(gen);
    ASSERT_EQ(walt.pebbles().size(), pebbles);
    cover.observe(walt);
  }
  EXPECT_TRUE(cover.complete()) << GetParam().name;
}

TEST_P(ProcessProperties, CobraDeterministicAcrossRuns) {
  const Graph g = GetParam().make_graph();
  Engine g1(55), g2(55);
  core::CobraWalk a(g, 0, 2), b(g, 0, 2);
  for (int t = 0; t < 64; ++t) {
    a.step(g1);
    b.step(g2);
    ASSERT_EQ(std::vector<Vertex>(a.active().begin(), a.active().end()),
              std::vector<Vertex>(b.active().begin(), b.active().end()));
  }
}

TEST_P(ProcessProperties, BranchingMonotonicityOfCoverTime) {
  // Averaged over trials, k=3 covers no slower than k=2 (more samples per
  // round can only help coverage in distribution).
  const Graph g = GetParam().make_graph();
  Engine gen(6);
  double k2 = 0, k3 = 0;
  constexpr int kTrials = 25;
  for (int t = 0; t < kTrials; ++t) {
    k2 += sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
    k3 += sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 3u);
  }
  EXPECT_LT(k3, 1.5 * k2) << GetParam().name;  // slack for sampling noise
}

TEST_P(ProcessProperties, ParallelWalksMoreWalkersNoSlower) {
  const Graph g = GetParam().make_graph();
  Engine gen(7);
  double w1 = 0, w8 = 0;
  constexpr int kTrials = 15;
  for (int t = 0; t < kTrials; ++t) {
    w1 += sim::cover_rounds<core::RandomWalk>(gen, g,
                                              std::vector<Vertex>(1, 0));
    w8 += sim::cover_rounds<core::RandomWalk>(gen, g,
                                              std::vector<Vertex>(8, 0));
  }
  EXPECT_LT(w8, 1.2 * w1) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ProcessProperties,
                         ::testing::ValuesIn(families()),
                         [](const ::testing::TestParamInfo<SweepCase>& tpi) {
                           return tpi.param.name;
                         });

}  // namespace
}  // namespace cobra
