#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/builder.hpp"

namespace cobra::graph {
namespace {

Graph triangle() {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}};
  return from_edges(3, {&edges, 1}, false);
}

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.volume(), 0u);
  EXPECT_TRUE(g.is_regular());
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_TRUE(g.is_simple());
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, NeighborsSortedAndSymmetric) {
  const Graph g = triangle();
  for (Vertex v = 0; v < 3; ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(nbrs.size(), 2u);
    EXPECT_LT(nbrs[0], nbrs[1]);
    for (const Vertex u : nbrs) EXPECT_TRUE(g.has_edge(u, v));
  }
}

TEST(Graph, NeighborIndexAccessor) {
  const Graph g = triangle();
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
}

TEST(Graph, HasEdge) {
  std::vector<Edge> edges = {{0, 1}, {2, 3}};
  const Graph g = from_edges(4, {&edges, 1}, false);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 99));  // out of range is just "no"
}

TEST(Graph, DirectCsrConstruction) {
  // Path 0-1-2 in CSR form.
  const Graph g(3, {0, 1, 3, 4}, {1, 0, 2, 1});
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, CsrValidationRejectsBadOffsets) {
  EXPECT_THROW(Graph(2, {0, 1}, {1, 0}), std::invalid_argument);      // size
  EXPECT_THROW(Graph(2, {1, 1, 2}, {1, 0}), std::invalid_argument);   // start
  EXPECT_THROW(Graph(2, {0, 1, 3}, {1, 0}), std::invalid_argument);   // end
  EXPECT_THROW(Graph(2, {0, 2, 1}, {1}), std::invalid_argument);      // order
}

TEST(Graph, CsrValidationRejectsBadTargets) {
  EXPECT_THROW(Graph(2, {0, 1, 2}, {1, 5}), std::invalid_argument);
}

TEST(Graph, SelfLoopDetectedByIsSimple) {
  std::vector<Edge> edges = {{0, 0}, {0, 1}};
  const Graph g = from_edges(2, {&edges, 1}, false);
  EXPECT_FALSE(g.is_simple());
  // A self-loop contributes 2 to degree.
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(Graph, ParallelEdgeDetectedByIsSimple) {
  std::vector<Edge> edges = {{0, 1}, {0, 1}};
  const Graph g = from_edges(2, {&edges, 1}, false);
  EXPECT_FALSE(g.is_simple());
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Graph, IrregularDegrees) {
  std::vector<Edge> edges = {{0, 1}};
  const Graph g = from_edges(3, {&edges, 1}, false);
  EXPECT_FALSE(g.is_regular());
  EXPECT_EQ(g.min_degree(), 0u);
  EXPECT_EQ(g.max_degree(), 1u);
}

TEST(Graph, ValidateAcceptsBuilderOutput) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {3, 4}};
  std::string why = "sentinel";
  EXPECT_TRUE(from_edges(5, {&edges, 1}, false).validate(&why));
  EXPECT_TRUE(why.empty());  // success clears the error
  EXPECT_TRUE(Graph(0, {0}, {}).validate(nullptr));
}

TEST(Graph, ValidateAcceptsSelfLoopsAndParallelEdges) {
  // Non-simple but structurally sound: a loop stores two arcs, a parallel
  // edge stores two in each direction.
  std::vector<Edge> edges = {{0, 0}, {0, 1}, {0, 1}};
  std::string why;
  EXPECT_TRUE(from_edges(2, {&edges, 1}, false).validate(&why)) << why;
}

TEST(Graph, ValidateCatchesAsymmetricArcs) {
  // The constructor trusts its caller on arc symmetry (the documented
  // contract); validate() is the audit that catches a generator emitting
  // the arc 0->1 without its mate.
  const Graph g(2, {0, 1, 1}, {1});
  std::string why;
  EXPECT_FALSE(g.validate(&why));
  EXPECT_NE(why.find("asymmetric"), std::string::npos) << why;
}

TEST(Graph, ValidateCatchesArcMultiplicityMismatch) {
  // 0->1 twice but 1->0 once: each direction exists, multiplicities differ.
  const Graph g(2, {0, 2, 3}, {1, 1, 0});
  std::string why;
  EXPECT_FALSE(g.validate(&why));
  EXPECT_NE(why.find("asymmetric"), std::string::npos) << why;
}

TEST(Graph, ValidateCatchesOddSelfLoopArcs) {
  // A single (0, 0) arc is half a self-loop — degree bookkeeping breaks.
  const Graph g(2, {0, 1, 1}, {0});
  std::string why;
  EXPECT_FALSE(g.validate(&why));
  EXPECT_NE(why.find("self-loop"), std::string::npos) << why;
}

}  // namespace
}  // namespace cobra::graph
