#include "graph/mixing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "graph/spectral.hpp"

namespace cobra::graph {
namespace {

TEST(Mixing, StationaryOfIsNormalizedAndDegreeProportional) {
  const Graph g = make_star(6);
  const auto pi = stationary_of(g);
  EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-12);
  EXPECT_NEAR(pi[0], 0.5, 1e-12);        // hub: 5/10
  EXPECT_NEAR(pi[1], 0.1, 1e-12);        // leaf: 1/10
}

TEST(Mixing, StepConservesMass) {
  const Graph g = make_grid(2, 4);
  std::vector<double> in(g.num_vertices(), 0.0), out(g.num_vertices());
  in[3] = 1.0;
  lazy_walk_step(g, in, out);
  EXPECT_NEAR(std::accumulate(out.begin(), out.end(), 0.0), 1.0, 1e-12);
  EXPECT_NEAR(out[3], 0.5, 1e-12);  // laziness mass
}

TEST(Mixing, DistributionConvergesToStationary) {
  const Graph g = make_cycle(16);
  const double tv0 = tv_to_stationarity(g, 0, 0);
  const double tv_late = tv_to_stationarity(g, 0, 2000);
  EXPECT_NEAR(tv0, 1.0 - 1.0 / 16.0, 1e-12);  // point mass vs uniform
  EXPECT_LT(tv_late, 1e-6);
}

TEST(Mixing, TVIsMonotoneDecreasing) {
  const Graph g = make_grid(2, 5);
  double prev = 2.0;
  for (const std::uint64_t t : {0ull, 5ull, 20ull, 80ull, 320ull}) {
    const double tv = tv_to_stationarity(g, 0, t);
    EXPECT_LE(tv, prev + 1e-12);
    prev = tv;
  }
}

TEST(Mixing, MixingTimeOrdersFamiliesCorrectly) {
  // Complete mixes fastest, cycle slowest, at equal n.
  const std::uint64_t cap = 1u << 20;
  const auto t_complete = lazy_mixing_time(make_complete(32), 0, 0.25, cap);
  const auto t_hypercube = lazy_mixing_time(make_hypercube(5), 0, 0.25, cap);
  const auto t_cycle = lazy_mixing_time(make_cycle(32), 0, 0.25, cap);
  EXPECT_LT(t_complete, t_hypercube);
  EXPECT_LT(t_hypercube, t_cycle);
  EXPECT_LT(t_cycle, cap);
}

TEST(Mixing, SpectralUpperBoundOnDeviation) {
  // The paper's §4 bound: max_v |p_t(v) - pi(v)| <= e^{-t Phi^2 / 2}
  // (stated for regular graphs via the normalized-Laplacian gap; we use
  // the spectral gap form with the measured lazy gap, which is the tight
  // version: deviation <= (1 - gap)^t / min_pi... check the conservative
  // e^{-t * gap} envelope instead).
  const Graph g = make_hypercube(5);
  const double gap = lazy_walk_spectrum(g).spectral_gap;
  for (const std::uint64_t t : {16ull, 32ull, 64ull, 128ull}) {
    const double deviation = max_coordinate_deviation(g, 0, t);
    const double envelope =
        std::exp(-static_cast<double>(t) * gap) * g.num_vertices();
    EXPECT_LE(deviation, envelope) << "t=" << t;
  }
}

TEST(Mixing, CycleMixingIsQuadratic) {
  // t_mix(C_n) ~ n^2: quadrupling n should take ~16x longer (allow slack).
  const auto t16 = lazy_mixing_time(make_cycle(16), 0, 0.25, 1u << 22);
  const auto t64 = lazy_mixing_time(make_cycle(64), 0, 0.25, 1u << 22);
  const double ratio = static_cast<double>(t64) / static_cast<double>(t16);
  EXPECT_GT(ratio, 8.0);
  EXPECT_LT(ratio, 32.0);
}

TEST(Mixing, InputValidation) {
  const Graph g = make_path(4);
  EXPECT_THROW(lazy_walk_distribution(g, 9, 1), std::out_of_range);
  EXPECT_THROW((void)lazy_mixing_time(g, 9, 0.1, 10), std::out_of_range);
  EXPECT_THROW(lazy_walk_distribution(from_edges(2, {}, false), 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace cobra::graph
