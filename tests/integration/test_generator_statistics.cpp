/// Statistical certification of the randomized generators: each family's
/// headline statistic matches its theory within tolerance. These go beyond
/// the structural invariants in graph/test_generators.cpp and the
/// bit-identity contract in gen/test_parallel_gen.cpp — they check the
/// DISTRIBUTIONS the experiments rely on, for both the legacy engine-based
/// generators and the spec-built chunk-parallel families.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "gen/families.hpp"
#include "gen/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/reference.hpp"
#include "graph/spectral.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra {
namespace {

using graph::Graph;

TEST(GeneratorStats, ErdosRenyiEdgeCountConcentrates) {
  // E[m] = C(n,2) p; repeat and compare the sample mean within 3 sigma.
  rng::Xoshiro256 eng(1);
  const std::uint32_t n = 400;
  const double p = 0.03;
  const double expected = n * (n - 1) / 2.0 * p;
  const double sigma = std::sqrt(n * (n - 1) / 2.0 * p * (1 - p));
  double total = 0.0;
  constexpr int kReps = 50;
  for (int rep = 0; rep < kReps; ++rep) {
    total += static_cast<double>(gen::gnp(n, p, eng()).num_edges());
  }
  EXPECT_NEAR(total / kReps, expected, 3.0 * sigma / std::sqrt(kReps));
}

TEST(GeneratorStats, ErdosRenyiAboveThresholdIsConnected) {
  // p = 3 ln n / n is safely above the connectivity threshold.
  rng::Xoshiro256 eng(2);
  const std::uint32_t n = 300;
  const double p = 3.0 * std::log(n) / n;
  int connected = 0;
  for (int rep = 0; rep < 20; ++rep) {
    if (graph::is_connected(gen::gnp(n, p, eng()))) ++connected;
  }
  EXPECT_GE(connected, 19);
}

TEST(GeneratorStats, RandomRegularIsExpanderWhp) {
  // Random 4-regular graphs have lazy spectral gap bounded away from 0.
  rng::Xoshiro256 eng(3);
  for (int rep = 0; rep < 10; ++rep) {
    const Graph g = gen::random_regular(200, 4, eng());
    ASSERT_TRUE(graph::is_connected(g));
    EXPECT_GT(graph::lazy_walk_spectrum(g).spectral_gap, 0.05) << rep;
  }
}

TEST(GeneratorStats, RandomRegularEdgeMarginalsUniformish) {
  // Each particular edge {0, 1} appears with probability ~ d/(n-1).
  rng::Xoshiro256 eng(4);
  const std::uint32_t n = 60, d = 4;
  int present = 0;
  constexpr int kReps = 3000;
  for (int rep = 0; rep < kReps; ++rep) {
    if (gen::random_regular(n, d, eng()).has_edge(0, 1)) ++present;
  }
  const double expected = static_cast<double>(d) / (n - 1);
  EXPECT_NEAR(static_cast<double>(present) / kReps, expected, 0.015);
}

TEST(GeneratorStats, BarabasiAlbertDegreeTailIsPowerLaw) {
  // BA degree distribution has tail exponent ~3.
  rng::Xoshiro256 eng(5);
  const Graph g = gen::barabasi_albert(20000, 3, eng());
  const double gamma = graph::hill_tail_exponent(g, 12);
  EXPECT_GT(gamma, 2.3);
  EXPECT_LT(gamma, 3.7);
}

TEST(GeneratorStats, ChungLuAverageDegreeMatchesWeights) {
  // Expected average degree for gamma = 2.5, min_deg = 3 is roughly
  // min_deg * (gamma-1)/(gamma-2) = 9 (weight-sequence mean); allow wide
  // tolerance for the cap and discreteness.
  const Graph g = gen::chung_lu(5000, 2.5, 3.0, 6);
  EXPECT_GT(g.average_degree(), 4.0);
  EXPECT_LT(g.average_degree(), 14.0);
}

TEST(GeneratorStats, GeometricGraphDegreeMatchesDensity) {
  // E[deg] ~ n pi r^2 away from the border; measure the interior mean.
  rng::Xoshiro256 eng(7);
  const std::uint32_t n = 3000;
  const double r = 0.05;
  const Graph g = gen::random_geometric(n, r, eng());
  const double expected = n * 3.14159265 * r * r;
  // Border effects bias downward; accept [0.75, 1.05] * expected.
  EXPECT_GT(g.average_degree(), 0.75 * expected);
  EXPECT_LT(g.average_degree(), 1.05 * expected);
}

TEST(GeneratorStats, GridDiametersScaleLinearly) {
  for (const std::uint32_t side : {4u, 8u, 16u}) {
    EXPECT_EQ(graph::exact_diameter(graph::make_grid(2, side)),
              2 * (side - 1));
    EXPECT_EQ(graph::exact_diameter(graph::make_grid(2, side, true)),
              2 * (side / 2));
  }
}

// --- spec-built chunk-parallel families (src/gen) -------------------------

TEST(GeneratorStats, SpecGnpEdgeCountConcentrates) {
  // E[m] = C(n,2) p under the chunked skip-sampler; sample mean over
  // independent seeds within 3 sigma.
  const std::uint32_t n = 400;
  const double p = 0.03;
  const double expected = n * (n - 1) / 2.0 * p;
  const double sigma = std::sqrt(n * (n - 1) / 2.0 * p * (1 - p));
  double total = 0.0;
  constexpr int kReps = 50;
  for (int rep = 0; rep < kReps; ++rep) {
    total += static_cast<double>(
        gen::build_graph("gnp:n=400,p=0.03,seed=" + std::to_string(100 + rep))
            .num_edges());
  }
  EXPECT_NEAR(total / kReps, expected, 3.0 * sigma / std::sqrt(kReps));
}

TEST(GeneratorStats, SpecGnmDegreesMatchGnpAtTheSameDensity) {
  // G(n, m) at m = C(n,2) p is G(n, p) conditioned on the edge count: per
  // vertex, E[deg] = 2m/n exactly and Var[deg] ~ (n-1) q (1-q) with
  // q = m / C(n,2). Check the exact count, the per-seed mean degree, and
  // that the empirical degree variance is in the hypergeometric ballpark
  // (a permutation that clumped pairs would blow it up).
  const std::uint32_t n = 400;
  const std::uint64_t m = 2400;  // avg degree 12
  const double q = static_cast<double>(m) / (n * (n - 1) / 2.0);
  const double expected_var = (n - 1) * q * (1 - q);
  double var_total = 0.0;
  constexpr int kReps = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    const graph::Graph g =
        gen::build_graph("gnm:n=400,m=2400,seed=" + std::to_string(500 + rep));
    ASSERT_EQ(g.num_edges(), m);
    ASSERT_DOUBLE_EQ(g.average_degree(), 2.0 * m / n);
    double ss = 0.0;
    for (graph::Vertex v = 0; v < n; ++v) {
      const double d = g.degree(v) - 2.0 * m / n;
      ss += d * d;
    }
    var_total += ss / n;
  }
  EXPECT_NEAR(var_total / kReps, expected_var, 0.25 * expected_var);
}

TEST(GeneratorStats, SpecGnmAboveThresholdIsConnected) {
  // m = 2 n ln n edges is twice the connectivity threshold.
  const std::uint32_t n = 2000;
  const auto m = static_cast<std::uint64_t>(2.0 * n * std::log(n));
  const graph::Graph g =
      gen::build_graph("gnm:n=2000,m=" + std::to_string(m) + ",seed=9");
  EXPECT_EQ(g.num_edges(), m);
  EXPECT_TRUE(graph::is_connected(g));
}

TEST(GeneratorStats, SpecWattsStrogatzMeanDegreeAndSmallWorld) {
  // Rewiring preserves the edge count up to duplicate collisions, so mean
  // degree stays ~k; a small rewiring fraction already collapses the
  // diameter far below the beta = 0 lattice's n/(2*k/2) = n/k scaling.
  const graph::Graph lattice = gen::build_graph("ws:n=2000,k=6,beta=0,seed=1");
  const graph::Graph small_world =
      gen::build_graph("ws:n=2000,k=6,beta=0.1,seed=1");
  EXPECT_DOUBLE_EQ(lattice.average_degree(), 6.0);
  EXPECT_NEAR(small_world.average_degree(), 6.0, 0.1);
  ASSERT_TRUE(graph::is_connected(small_world));
  const auto lattice_diam = graph::double_sweep_diameter_lb(lattice);
  const auto sw_diam = graph::eccentricity(small_world, 0);
  EXPECT_GE(lattice_diam, 300u);  // ~ n/k = 333
  EXPECT_LT(sw_diam, lattice_diam / 5);
}

TEST(GeneratorStats, SpecBarabasiAlbertDegreeTailIsPowerLaw) {
  // The copy-model reproduces degree-proportional attachment, so the tail
  // exponent lands near the BA value of 3.
  const graph::Graph g = gen::build_graph("ba:n=20000,d=3,seed=5");
  const double gamma = graph::hill_tail_exponent(g, 12);
  EXPECT_GT(gamma, 2.2);
  EXPECT_LT(gamma, 4.0);
}

TEST(GeneratorStats, SpecRmatDegreesAreSkewed) {
  // With Graph500 parameters (a=.57) the expected degree of vertex 0 is
  // (2a)^levels / 2^levels * 2m / ... — we only certify the shape: the top
  // vertex holds a large multiple of the mean degree, and the degree
  // sequence is heavy-tailed enough that the Hill exponent is small.
  const graph::Graph g = gen::build_graph("rmat:n=2^13,deg=16,seed=9");
  EXPECT_GT(g.max_degree(), 10 * g.average_degree());
  const double gamma = graph::hill_tail_exponent(g, 64);
  EXPECT_LT(gamma, 3.0);
}

TEST(GeneratorStats, SpecRandomRegularIsExpanderWhp) {
  // The hashed-permutation configuration model must match the engine-based
  // one: connected, simple, spectral gap bounded away from 0.
  for (int rep = 0; rep < 10; ++rep) {
    const graph::Graph g =
        gen::build_graph("rreg:n=200,d=4,seed=" + std::to_string(200 + rep));
    ASSERT_TRUE(graph::is_connected(g)) << rep;
    EXPECT_GT(graph::lazy_walk_spectrum(g).spectral_gap, 0.05) << rep;
  }
}

TEST(GeneratorStats, SpecGeometricDegreeMatchesDensity) {
  // E[deg] ~ n pi r^2 away from the border — the avg_deg sugar solves for
  // exactly that radius, so the realized mean must land just below it.
  const graph::Graph g = gen::build_graph("geo:n=3000,avg_deg=12,seed=7");
  EXPECT_GT(g.average_degree(), 0.75 * 12.0);
  EXPECT_LT(g.average_degree(), 1.05 * 12.0);
}

TEST(GeneratorStats, HypercubeConductanceIsOneOverD) {
  // The dimension cut realizes Phi = 1/d; the sweep estimate must land in
  // [1/d, sqrt(2 * 2/d)] (Cheeger band, degenerate eigenspace).
  for (const std::uint32_t d : {4u, 6u}) {
    const auto est = graph::estimate_conductance(graph::make_hypercube(d));
    EXPECT_GE(est.sweep_cut_upper, 1.0 / d - 1e-9);
    EXPECT_LE(est.sweep_cut_upper, std::sqrt(4.0 / d) + 1e-9);
  }
}

}  // namespace
}  // namespace cobra
