#include "core/exact_cobra.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/cobra_walk.hpp"
#include "graph/exact_hitting.hpp"
#include "graph/generators.hpp"
#include "parallel/monte_carlo.hpp"
#include "sim/runner.hpp"
#include "stats/summary.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_path;
using graph::make_star;

TEST(ExactCobra, SingleEdgeGraphIsDeterministic) {
  // K2: from {0} the only next set is {1}. Hitting time 1, cover time 1.
  const Graph g = make_path(2);
  const ExactCobra exact(g, 2);
  EXPECT_NEAR(exact.expected_hitting_time(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(exact.expected_cover_time(0), 1.0, 1e-12);
}

TEST(ExactCobra, BranchingOneMatchesExactRandomWalkHitting) {
  // k = 1 is the simple random walk: the subset chain collapses to
  // singletons and must agree with the dense RW solver exactly.
  for (const Graph& g :
       {make_cycle(7), make_path(6), make_star(6), make_grid(2, 3)}) {
    const ExactCobra exact(g, 1);
    const auto rw = graph::exact_rw_hitting_times(g, 0);
    for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
      EXPECT_NEAR(exact.expected_hitting_time(u, 0), rw[u], 1e-7)
          << "n=" << g.num_vertices() << " u=" << u;
    }
  }
}

TEST(ExactCobra, BranchingOneCycleCoverClosedForm) {
  // RW cover time of C_n is n(n-1)/2 from any start.
  const Graph g = make_cycle(7);
  const ExactCobra exact(g, 1);
  EXPECT_NEAR(exact.expected_cover_time(0), 21.0, 1e-7);
}

TEST(ExactCobra, BranchingOnePathCoverClosedForm) {
  // RW cover of the path from an endpoint = H(0, n-1) = (n-1)^2.
  const Graph g = make_path(6);
  const ExactCobra exact(g, 1);
  EXPECT_NEAR(exact.expected_cover_time(0), 25.0, 1e-7);
}

TEST(ExactCobra, CobraHittingDominatedByRandomWalk) {
  // Exact statement of the speedup: for every pair, the 2-cobra hitting
  // time is <= the RW hitting time.
  for (const Graph& g : {make_cycle(7), make_grid(2, 3), make_star(7)}) {
    const ExactCobra cobra2(g, 2);
    const auto rw = graph::exact_rw_hitting_times(g, 0);
    for (graph::Vertex u = 1; u < g.num_vertices(); ++u) {
      EXPECT_LE(cobra2.expected_hitting_time(u, 0), rw[u] + 1e-9)
          << "n=" << g.num_vertices() << " u=" << u;
    }
  }
}

TEST(ExactCobra, CoverDominatedByRandomWalkCover) {
  for (const Graph& g : {make_cycle(6), make_path(5), make_grid(2, 2)}) {
    const ExactCobra cobra2(g, 2);
    const ExactCobra cobra1(g, 1);
    EXPECT_LE(cobra2.expected_cover_time(0),
              cobra1.expected_cover_time(0) + 1e-9);
  }
}

TEST(ExactCobra, MonteCarloMatchesExactHitting) {
  const Graph g = make_cycle(8);
  const ExactCobra exact(g, 2);
  const double truth = exact.expected_hitting_time(0, 4);
  par::MonteCarloOptions opts;
  opts.trials = 20000;
  opts.base_seed = 5;
  const auto samples = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::hit_rounds<CobraWalk>(gen, 4u, g, 0u, 2u);
      });
  const auto s = stats::summarize(samples);
  EXPECT_NEAR(s.mean, truth, 4.0 * s.sem) << "truth " << truth;
}

TEST(ExactCobra, MonteCarloMatchesExactCover) {
  const Graph g = make_grid(2, 2);  // 4 vertices
  const ExactCobra exact(g, 2);
  const double truth = exact.expected_cover_time(0);
  par::MonteCarloOptions opts;
  opts.trials = 20000;
  opts.base_seed = 6;
  const auto samples = par::run_trials(
      par::global_pool(), opts, [&](Engine& gen, std::uint32_t) {
        return sim::cover_rounds<CobraWalk>(gen, g, 0u, 2u);
      });
  const auto s = stats::summarize(samples);
  EXPECT_NEAR(s.mean, truth, 4.0 * s.sem) << "truth " << truth;
}

TEST(ExactCobra, MatthewsBoundHoldsExactly) {
  // cover <= h_max * H_{n-1}, both sides exact (Theorem 1 with the
  // explicit harmonic constant).
  for (const Graph& g : {make_cycle(7), make_star(7), make_grid(2, 2)}) {
    const ExactCobra exact(g, 2);
    double hmax = 0.0;
    for (graph::Vertex u = 0; u < g.num_vertices(); ++u) {
      for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
        if (u != v) {
          hmax = std::max(hmax, exact.expected_hitting_time(u, v));
        }
      }
    }
    double harmonic = 0.0;
    for (std::uint32_t j = 1; j < g.num_vertices(); ++j) harmonic += 1.0 / j;
    const double worst_cover = [&] {
      double w = 0.0;
      for (graph::Vertex s = 0; s < g.num_vertices(); ++s) {
        w = std::max(w, exact.expected_cover_time(s));
      }
      return w;
    }();
    EXPECT_LE(worst_cover, hmax * harmonic + 1e-9)
        << "n=" << g.num_vertices();
  }
}

TEST(ExactCobra, SymmetryOnVertexTransitiveGraphs) {
  // On the cycle, hitting times depend only on the distance.
  const Graph g = make_cycle(8);
  const ExactCobra exact(g, 2);
  const double h13 = exact.expected_hitting_time(1, 3);
  const double h57 = exact.expected_hitting_time(5, 7);
  const double h02 = exact.expected_hitting_time(0, 2);
  EXPECT_NEAR(h13, h57, 1e-9);
  EXPECT_NEAR(h13, h02, 1e-9);
  // And symmetry of direction.
  EXPECT_NEAR(exact.expected_hitting_time(0, 3),
              exact.expected_hitting_time(3, 0), 1e-9);
}

TEST(ExactCobra, InputValidation) {
  const Graph g = make_cycle(5);
  EXPECT_THROW(ExactCobra(g, 0), std::invalid_argument);
  EXPECT_THROW(ExactCobra(g, 3), std::invalid_argument);
  EXPECT_THROW(ExactCobra(make_cycle(12), 2), std::invalid_argument);  // n > 10
  const ExactCobra exact(g, 2);
  EXPECT_THROW((void)exact.expected_hitting_time(9, 0), std::out_of_range);
  // Cover limited to n <= 8.
  const Graph g10 = make_cycle(10);
  const ExactCobra exact10(g10, 2);
  EXPECT_THROW((void)exact10.expected_cover_time(0), std::invalid_argument);
  EXPECT_GT(exact10.expected_hitting_time(0, 5), 0.0);  // hitting still fine
}

}  // namespace
}  // namespace cobra::core
