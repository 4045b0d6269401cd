#include "graph/tensor_product.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/families.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::graph {
namespace {

TEST(TensorId, RoundTrip) {
  constexpr std::uint32_t n = 7;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex up = 0; up < n; ++up) {
      const Vertex id = tensor_id(u, up, n);
      const auto [a, b] = tensor_pair(id, n);
      EXPECT_EQ(a, u);
      EXPECT_EQ(b, up);
      EXPECT_EQ(is_diagonal(id, n), u == up);
    }
  }
}

TEST(TensorProduct, SizesAndDegrees) {
  const Graph g = make_cycle(5);
  const Graph product = tensor_product(g);
  EXPECT_EQ(product.num_vertices(), 25u);
  // Tensor product of d-regular graphs is d^2-regular.
  EXPECT_TRUE(product.is_regular());
  EXPECT_EQ(product.degree(0), 4u);
  EXPECT_EQ(product.num_edges(), 25u * 4u / 2u);
}

TEST(TensorProduct, EdgesAreCoordinatewiseAdjacent) {
  const Graph g = make_complete(4);
  const Graph product = tensor_product(g);
  const std::uint32_t n = g.num_vertices();
  for (Vertex pv = 0; pv < product.num_vertices(); ++pv) {
    const auto [u, up] = tensor_pair(pv, n);
    for (const Vertex pw : product.neighbors(pv)) {
      const auto [v, vp] = tensor_pair(pw, n);
      EXPECT_TRUE(g.has_edge(u, v));
      EXPECT_TRUE(g.has_edge(up, vp));
    }
  }
}

TEST(TensorProduct, BipartiteFactorGivesDisconnectedProduct) {
  // The tensor product of a connected bipartite graph with itself is
  // disconnected (parity classes) — classic fact; C4 x C4 splits.
  const Graph g = make_cycle(4);
  const Graph product = tensor_product(g);
  EXPECT_GT(num_components(product), 1u);
}

TEST(WaltPairDigraph, SizesAndOutWeights) {
  const Graph g = make_cycle(5);  // 2-regular, n = 5
  const Digraph d = walt_pair_digraph(g);
  EXPECT_EQ(d.num_vertices(), 25u);
  const std::uint32_t n = 5;
  const double deg = 2.0;
  for (Vertex pv = 0; pv < d.num_vertices(); ++pv) {
    const double expected =
        is_diagonal(pv, n) ? 2.0 * deg * deg : deg * deg;
    EXPECT_NEAR(d.out_weight_total(pv), expected, 1e-12) << "pv=" << pv;
  }
}

TEST(WaltPairDigraph, IsEulerian) {
  // The paper's construction must be weight-balanced for every regular G.
  rng::Xoshiro256 eng(1);
  for (const Graph& g : {make_cycle(6), make_complete(5), make_hypercube(3),
                         gen::random_regular(12, 4, eng())}) {
    EXPECT_TRUE(walt_pair_digraph(g).is_weight_balanced())
        << "n=" << g.num_vertices() << " d=" << g.degree(0);
  }
}

TEST(WaltPairDigraph, StationaryMatchesClosedForm) {
  // pi(S1) = 2/(n^2+n), pi(S2) = 1/(n^2+n) — Lemma 11's key numbers. The
  // chain is periodic on bipartite-ish structures; average two consecutive
  // iterates... simpler: K4 is aperiodic enough via the S1 copy structure.
  const Graph g = make_complete(4);
  const Digraph d = walt_pair_digraph(g);
  ASSERT_TRUE(d.is_weight_balanced());
  // For an Eulerian chain the stationary distribution is exactly
  // out-weight proportional regardless of periodicity; verify against the
  // closed form directly (no iteration needed).
  const auto closed = walt_pair_stationary(4);
  double total = 0.0;
  for (Vertex pv = 0; pv < d.num_vertices(); ++pv) {
    total += d.out_weight_total(pv);
  }
  for (Vertex pv = 0; pv < d.num_vertices(); ++pv) {
    const double pi_v = d.out_weight_total(pv) / total;
    EXPECT_NEAR(pi_v,
                is_diagonal(pv, 4) ? closed.diagonal : closed.off_diagonal,
                1e-12);
  }
  // And the closed form itself sums to 1: n diagonal + n^2-n off.
  EXPECT_NEAR(4 * closed.diagonal + 12 * closed.off_diagonal, 1.0, 1e-12);
}

TEST(WaltPairDigraph, PowerIterationAgreesOnAperiodicGraph) {
  // K5 (odd cliques are aperiodic): the iterated distribution should reach
  // the Eulerian closed form.
  const Graph g = make_complete(5);
  const Digraph d = walt_pair_digraph(g);
  const auto pi = stationary_distribution(d, 200000, 1e-13);
  const auto closed = walt_pair_stationary(5);
  for (Vertex pv = 0; pv < d.num_vertices(); ++pv) {
    EXPECT_NEAR(pi[pv],
                is_diagonal(pv, 5) ? closed.diagonal : closed.off_diagonal,
                1e-6)
        << "pv=" << pv;
  }
}

TEST(WaltPairDigraph, RejectsIrregularOrMulti) {
  EXPECT_THROW(walt_pair_digraph(make_star(5)), std::invalid_argument);
  EXPECT_THROW(walt_pair_digraph(make_path(4)), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::graph
