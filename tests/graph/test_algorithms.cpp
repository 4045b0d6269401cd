#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

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
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
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
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(Connectivity, Basics) {
  EXPECT_TRUE(is_connected(make_cycle(5)));
  EXPECT_TRUE(is_connected(Graph{}));
  GraphBuilder b(2);
  EXPECT_FALSE(is_connected(b.build()));
}

TEST(Components, TwoIslands) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();  // {0,1,2}, {3,4}, {5}
  const auto comp = connected_components(g);
  EXPECT_EQ(num_components(g), 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[3], comp[5]);
}

TEST(LargestComponent, ExtractsAndRemaps) {
  GraphBuilder b(7);
  b.add_edge(0, 1);  // small comp
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 2);  // big comp: cycle {2,3,4,5}; vertex 6 isolated
  const Graph g = b.build();
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
  GraphBuilder b(7);  // {0}, {1,5,6}, {2,3,4}: two components of size 3
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(6, 5);
  b.add_edge(5, 1);
  const auto ext = largest_component(b.build());
  EXPECT_EQ(ext.new_to_old, (std::vector<Vertex>{1, 5, 6}));
  EXPECT_EQ(ext.graph.offsets(), (std::vector<EdgeIndex>{0, 1, 3, 4}));
  EXPECT_EQ(ext.graph.targets(), (std::vector<Vertex>{1, 0, 2, 1}));
}

TEST(LargestComponent, KeepsSelfLoopsAndParallelEdges) {
  GraphBuilder b(5);  // {0,1,2} with a double edge and a loop; {3,4}
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 1);
  b.add_edge(2, 1);
  b.add_edge(3, 4);
  const auto ext = largest_component(b.build());
  EXPECT_EQ(ext.graph.num_edges(), 4u);
  EXPECT_EQ(ext.graph.offsets(), (std::vector<EdgeIndex>{0, 2, 7, 8}));
  EXPECT_EQ(ext.graph.targets(),
            (std::vector<Vertex>{1, 1, 0, 0, 1, 1, 2, 1}));
  EXPECT_FALSE(ext.graph.is_simple());
}

TEST(LargestComponent, UnsortedCsrRowsExtractSorted) {
  // {0,2,3,5} as a 4-cycle plus chord 0-3, and {1,4}; vertex 6 isolated.
  GraphBuilder b(7);
  for (const auto& [u, v] : {std::pair{0u, 2u}, {2u, 3u}, {3u, 5u}, {5u, 0u},
                             {0u, 3u}, {1u, 4u}}) {
    b.add_edge(u, v);
  }
  const Graph built = b.build();
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
  GraphBuilder b(8);  // {0,5}, {1,2,6}, {3,7}, {4}
  b.add_edge(5, 0);
  b.add_edge(6, 2);
  b.add_edge(2, 1);
  b.add_edge(7, 3);
  const Graph g = b.build();
  EXPECT_EQ(connected_components(g),
            (std::vector<std::uint32_t>{0, 1, 1, 2, 3, 0, 1, 2}));
  EXPECT_EQ(num_components(g), 4u);
  EXPECT_EQ(num_components(Graph{}), 0u);

  // A sparse random graph with many components: a vertex either joins a
  // component seen earlier or opens the next id.
  rng::Xoshiro256 gen(11);
  const Graph sparse = make_erdos_renyi(gen, 3000, 0.4 / 3000.0);
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
  GraphBuilder b(3);
  b.add_edge(0, 1);
  EXPECT_EQ(exact_diameter(b.build()), kUnreachable);
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
