#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "graph/reference.hpp"

namespace cobra::graph {
namespace {

Digraph two_cycle() {
  // 0 -> 1 -> 0 with equal weights: stationary is uniform.
  return Digraph(2, {{0, 1, 1.0}, {1, 0, 1.0}});
}

TEST(Digraph, CsrLayout) {
  const Digraph d(3, {{0, 1, 2.0}, {0, 2, 1.0}, {2, 0, 3.0}});
  EXPECT_EQ(d.num_vertices(), 3u);
  EXPECT_EQ(d.num_arcs(), 3u);
  EXPECT_EQ(d.out_degree(0), 2u);
  EXPECT_EQ(d.out_degree(1), 0u);
  EXPECT_EQ(d.out_degree(2), 1u);
  EXPECT_DOUBLE_EQ(d.out_weight_total(0), 3.0);
  EXPECT_DOUBLE_EQ(d.out_weight_total(2), 3.0);
}

TEST(Digraph, RejectsBadArcs) {
  EXPECT_THROW(Digraph(2, {{0, 5, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Digraph(2, {{5, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Digraph(2, {{0, 1, 0.0}}), std::invalid_argument);
  EXPECT_THROW(Digraph(2, {{0, 1, -2.0}}), std::invalid_argument);
}

TEST(Digraph, InWeightTotals) {
  const Digraph d(3, {{0, 1, 2.0}, {2, 1, 3.0}, {1, 0, 5.0}});
  const auto in = d.in_weight_totals();
  EXPECT_DOUBLE_EQ(in[0], 5.0);
  EXPECT_DOUBLE_EQ(in[1], 5.0);
  EXPECT_DOUBLE_EQ(in[2], 0.0);
}

TEST(Digraph, WeightBalance) {
  EXPECT_TRUE(two_cycle().is_weight_balanced());
  const Digraph unbalanced(2, {{0, 1, 2.0}, {1, 0, 1.0}});
  EXPECT_FALSE(unbalanced.is_weight_balanced());
  // Balanced 3-cycle with equal weights.
  const Digraph cyc(3, {{0, 1, 2.0}, {1, 2, 2.0}, {2, 0, 2.0}});
  EXPECT_TRUE(cyc.is_weight_balanced());
}

TEST(Digraph, PushDistributionConservesMass) {
  const Digraph d(3, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}});
  std::vector<double> in{0.5, 0.3, 0.2}, out(3);
  d.push_distribution(in, out);
  EXPECT_NEAR(out[0] + out[1] + out[2], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(out[1], 0.5);
  EXPECT_DOUBLE_EQ(out[2], 0.3);
  EXPECT_DOUBLE_EQ(out[0], 0.2);
}

TEST(Digraph, StationaryOfSymmetricCycleIsUniform) {
  // Directed 4-cycle is periodic; add laziness via self-loops to converge.
  const Digraph d(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, 1.0},
                      {0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, 1.0}});
  const auto pi = stationary_distribution(d);
  for (const double p : pi) EXPECT_NEAR(p, 0.25, 1e-9);
}

TEST(Digraph, StationaryOfEulerianIsOutWeightProportional) {
  // Weight-balanced digraph: pi(v) = out_weight(v) / total. Build one with
  // unequal out weights: 0 <-> 1 with weight 3 each way plus a 3-cycle of
  // weight 1 through all vertices; add self loops for aperiodicity.
  std::vector<Digraph::Arc> arcs = {
      {0, 1, 3.0}, {1, 0, 3.0},
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0},
      {0, 0, 2.0}, {1, 1, 2.0}, {2, 2, 2.0}};
  const Digraph d(3, arcs);
  ASSERT_TRUE(d.is_weight_balanced());
  const auto pi = stationary_distribution(d);
  const double total = d.out_weight_total(0) + d.out_weight_total(1) +
                       d.out_weight_total(2);
  for (Vertex v = 0; v < 3; ++v) {
    EXPECT_NEAR(pi[v], d.out_weight_total(v) / total, 1e-9) << "v=" << v;
  }
}

TEST(TotalVariation, Basics) {
  const std::vector<double> a{0.5, 0.5}, b{1.0, 0.0};
  EXPECT_DOUBLE_EQ(total_variation(a, b), 0.5);
  EXPECT_DOUBLE_EQ(total_variation(a, a), 0.0);
  const std::vector<double> c{0.2};
  EXPECT_THROW((void)total_variation(a, c), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::graph
