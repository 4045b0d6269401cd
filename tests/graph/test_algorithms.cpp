#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "gen/families.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::graph {
namespace {

TEST(Bfs, DistancesOnPath) {
  const Graph g = make_path(6);
  const auto dist = bfs_distances(g, 0);
  for (Vertex v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
  const auto dist2 = bfs_distances(g, 3);
  EXPECT_EQ(dist2[0], 3u);
  EXPECT_EQ(dist2[5], 2u);
}

TEST(Bfs, DistancesOnHypercube) {
  const Graph g = make_hypercube(5);
  const auto dist = bfs_distances(g, 0);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(dist[v], static_cast<std::uint32_t>(__builtin_popcount(v)));
  }
}

TEST(Bfs, UnreachableMarked) {
  std::vector<Edge> edges = {{0, 1}, {2, 3}};
  const Graph g = from_edges(4, {&edges, 1}, false);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, SourceOutOfRangeThrows) {
  const Graph g = make_path(3);
  EXPECT_THROW(bfs_distances(g, 3), std::out_of_range);
}

TEST(Bfs, ParentsFormTree) {
  const Graph g = make_grid(2, 5);
  const auto parents = bfs_parents(g, 0);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(parents[0], 0u);
  for (Vertex v = 1; v < g.num_vertices(); ++v) {
    ASSERT_NE(parents[v], kUnreachable);
    EXPECT_TRUE(g.has_edge(v, parents[v]));
    EXPECT_EQ(dist[parents[v]] + 1, dist[v]);
  }
}

TEST(ShortestPath, OnCycle) {
  const Graph g = make_cycle(8);
  const auto path = shortest_path(g, 0, 3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

TEST(ShortestPath, SelfIsSingleton) {
  const Graph g = make_path(3);
  const auto path = shortest_path(g, 1, 1);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1u);
}

TEST(ShortestPath, UnreachableIsEmpty) {
  std::vector<Edge> edges = {{0, 1}};
  const Graph g = from_edges(3, {&edges, 1}, false);
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(Connectivity, Basics) {
  EXPECT_TRUE(is_connected(make_cycle(5)));
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_FALSE(is_connected(from_edges(2, {}, false)));
}

TEST(Components, TwoIslands) {
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {3, 4}};
  const Graph g = from_edges(6, {&edges, 1}, false);  // {0,1,2}, {3,4}, {5}
  const auto comp = connected_components(g);
  EXPECT_EQ(num_components(g), 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[3], comp[5]);
}

TEST(LargestComponent, ExtractsAndRemaps) {
  // Small comp {0,1}; big comp the cycle {2,3,4,5}; vertex 6 isolated.
  std::vector<Edge> edges = {{0, 1}, {2, 3}, {3, 4}, {4, 5}, {5, 2}};
  const Graph g = from_edges(7, {&edges, 1}, false);
  const auto ext = largest_component(g);
  EXPECT_EQ(ext.graph.num_vertices(), 4u);
  EXPECT_EQ(ext.graph.num_edges(), 4u);
  EXPECT_TRUE(is_connected(ext.graph));
  EXPECT_EQ(ext.new_to_old.size(), 4u);
  EXPECT_EQ(ext.old_to_new[0], kUnreachable);
  EXPECT_EQ(ext.old_to_new[6], kUnreachable);
  // Round trip mapping.
  for (Vertex nv = 0; nv < 4; ++nv) {
    EXPECT_EQ(ext.old_to_new[ext.new_to_old[nv]], nv);
  }
}

TEST(LargestComponent, WholeGraphWhenConnected) {
  const Graph g = make_grid(2, 3);
  const auto ext = largest_component(g);
  EXPECT_EQ(ext.graph.num_vertices(), g.num_vertices());
  EXPECT_EQ(ext.graph.num_edges(), g.num_edges());
}

TEST(LargestComponent, TieGoesToSmallerMinimumVertex) {
  // {0}, {1,5,6}, {2,3,4}: two components of size 3
  std::vector<Edge> edges = {{2, 3}, {3, 4}, {6, 5}, {5, 1}};
  const auto ext = largest_component(from_edges(7, {&edges, 1}, false));
  EXPECT_EQ(ext.new_to_old, (std::vector<Vertex>{1, 5, 6}));
  EXPECT_EQ(ext.graph.offsets(), (std::vector<EdgeIndex>{0, 1, 3, 4}));
  EXPECT_EQ(ext.graph.targets(), (std::vector<Vertex>{1, 0, 2, 1}));
}

TEST(LargestComponent, KeepsSelfLoopsAndParallelEdges) {
  // {0,1,2} with a double edge and a loop; {3,4}
  std::vector<Edge> edges = {{1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 4}};
  const auto ext = largest_component(from_edges(5, {&edges, 1}, false));
  EXPECT_EQ(ext.graph.num_edges(), 4u);
  EXPECT_EQ(ext.graph.offsets(), (std::vector<EdgeIndex>{0, 2, 7, 8}));
  EXPECT_EQ(ext.graph.targets(),
            (std::vector<Vertex>{1, 1, 0, 0, 1, 1, 2, 1}));
  EXPECT_FALSE(ext.graph.is_simple());
}

TEST(LargestComponent, UnsortedCsrRowsExtractSorted) {
  // {0,2,3,5} as a 4-cycle plus chord 0-3, and {1,4}; vertex 6 isolated.
  std::vector<Edge> edges = {{0, 2}, {2, 3}, {3, 5}, {5, 0}, {0, 3}, {1, 4}};
  const Graph built = from_edges(7, {&edges, 1}, false);
  std::vector<Vertex> reversed = built.targets();
  for (Vertex v = 0; v < built.num_vertices(); ++v) {
    std::reverse(reversed.begin() +
                     static_cast<std::ptrdiff_t>(built.offsets()[v]),
                 reversed.begin() +
                     static_cast<std::ptrdiff_t>(built.offsets()[v + 1]));
  }
  const Graph raw(7, built.offsets(), reversed);
  const auto from_raw = largest_component(raw);
  const auto from_built = largest_component(built);
  EXPECT_EQ(from_raw.graph.offsets(), from_built.graph.offsets());
  EXPECT_EQ(from_raw.graph.targets(), from_built.graph.targets());
  EXPECT_EQ(from_raw.new_to_old, (std::vector<Vertex>{0, 2, 3, 5}));
  EXPECT_EQ(from_raw.graph.targets(),
            (std::vector<Vertex>{1, 2, 3, 0, 2, 0, 1, 3, 0, 2}));
}

TEST(LargestComponent, EmptyGraphGivesEmptyGraph) {
  const auto ext = largest_component(Graph{});
  EXPECT_EQ(ext.graph.num_vertices(), 0u);
  EXPECT_EQ(ext.graph.num_arcs(), 0u);
  EXPECT_EQ(ext.graph.offsets(), (std::vector<EdgeIndex>{0}));
  EXPECT_TRUE(ext.old_to_new.empty());
  EXPECT_TRUE(ext.new_to_old.empty());
}

TEST(Components, IdsAreDenseInOrderOfMinimumVertex) {
  // {0,5}, {1,2,6}, {3,7}, {4}
  std::vector<Edge> edges = {{5, 0}, {6, 2}, {2, 1}, {7, 3}};
  const Graph g = from_edges(8, {&edges, 1}, false);
  EXPECT_EQ(connected_components(g),
            (std::vector<std::uint32_t>{0, 1, 1, 2, 3, 0, 1, 2}));
  EXPECT_EQ(num_components(g), 4u);
  EXPECT_EQ(num_components(Graph{}), 0u);

  // A sparse random graph with many components: a vertex either joins a
  // component seen earlier or opens the next id.
  rng::Xoshiro256 eng(11);
  const Graph sparse = gen::gnp(3000, 0.4 / 3000.0, eng());
  const auto comp = connected_components(sparse);
  std::uint32_t next = 0;
  for (const std::uint32_t c : comp) {
    ASSERT_LE(c, next);
    if (c == next) ++next;
  }
  EXPECT_EQ(next, num_components(sparse));
  EXPECT_GT(next, 1000u);
}

TEST(Eccentricity, PathEndpoints) {
  const Graph g = make_path(7);
  EXPECT_EQ(eccentricity(g, 0), 6u);
  EXPECT_EQ(eccentricity(g, 3), 3u);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(exact_diameter(make_path(10)), 9u);
  EXPECT_EQ(exact_diameter(make_cycle(10)), 5u);
  EXPECT_EQ(exact_diameter(make_complete(5)), 1u);
  EXPECT_EQ(exact_diameter(make_star(20)), 2u);
  EXPECT_EQ(exact_diameter(make_hypercube(6)), 6u);
}

TEST(Diameter, DisconnectedIsUnreachable) {
  std::vector<Edge> edges = {{0, 1}};
  EXPECT_EQ(exact_diameter(from_edges(3, {&edges, 1}, false)), kUnreachable);
}

TEST(DoubleSweep, ExactOnTreesAndPaths) {
  EXPECT_EQ(double_sweep_diameter_lb(make_path(12)), 11u);
  EXPECT_EQ(double_sweep_diameter_lb(make_kary_tree(2, 5)), 8u);
  EXPECT_EQ(double_sweep_diameter_lb(make_star(9)), 2u);
}

TEST(DoubleSweep, IsLowerBound) {
  const Graph g = make_grid(2, 6);
  EXPECT_LE(double_sweep_diameter_lb(g), exact_diameter(g));
  EXPECT_GE(double_sweep_diameter_lb(g), exact_diameter(g) / 2);
}

TEST(PathDegreeSum, LemmaNineteenBound) {
  // Sum of degrees along any shortest path is at most 3n (Lemma 19 cites
  // this classical fact); verify on several families.
  for (const Graph& g : {make_grid(2, 8), make_lollipop(12, 12),
                         make_kary_tree(3, 4), make_cycle(30)}) {
    const std::uint32_t n = g.num_vertices();
    for (const Vertex target : {static_cast<Vertex>(n - 1)}) {
      const auto path = shortest_path(g, 0, target);
      ASSERT_FALSE(path.empty());
      EXPECT_LE(path_degree_sum(g, path), 3ull * n);
    }
  }
}

}  // namespace
}  // namespace cobra::graph
