#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "parallel/bucket_sort.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::graph {
namespace {

Graph compile(std::uint32_t n, std::vector<Edge> edges, bool simplify = false) {
  return from_edges(n, {&edges, 1}, simplify);
}

void expect_same_csr(const Graph& a, const Graph& b, const char* what) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices()) << what;
  EXPECT_EQ(a.offsets(), b.offsets()) << what;
  EXPECT_EQ(a.targets(), b.targets()) << what;
}

TEST(Builder, OutOfRangeEndpointThrows) {
  for (const bool simplify : {false, true}) {
    EXPECT_THROW(compile(3, {{0, 3}}, simplify), std::invalid_argument);
    EXPECT_THROW(compile(3, {{3, 0}}, simplify), std::invalid_argument);
    EXPECT_THROW(compile(3, {{0, 1}, {2, 7}}, simplify), std::invalid_argument);
    EXPECT_THROW(compile(0, {{0, 0}}, simplify), std::invalid_argument);
    // Both endpoints out of range, a loop among them.
    EXPECT_THROW(compile(3, {{3, 4}}, simplify), std::invalid_argument);
    EXPECT_THROW(compile(3, {{0, 1}, {5, 5}}, simplify),
                 std::invalid_argument);
    EXPECT_THROW(compile(3, {{0xFFFFFFFFu, 0xFFFFFFFEu}}, simplify),
                 std::invalid_argument);
  }
}

TEST(Builder, ArcSymmetry) {
  const Graph g = compile(5, {{0, 4}, {1, 3}, {0, 2}});
  // Every arc u->v must have a partner v->u.
  std::map<std::pair<Vertex, Vertex>, int> arcs;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Vertex u : g.neighbors(v)) ++arcs[{v, u}];
  }
  for (const auto& [arc, count] : arcs) {
    const auto partner = arcs.find({arc.second, arc.first});
    ASSERT_NE(partner, arcs.end());
    EXPECT_EQ(partner->second, count);
  }
}

TEST(Builder, SimplifyRemovesLoopsAndDuplicates) {
  const std::vector<Edge> edges = {
      {0, 1}, {1, 0},  // duplicate (reversed)
      {2, 2},          // loop
      {2, 3}, {2, 3},  // duplicate
      {3, 2},          // duplicate (reversed)
  };
  EXPECT_EQ(compile(4, edges).num_edges(), 6u);
  const Graph g = compile(4, edges, true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.is_simple());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(Builder, SimplifyOnCleanGraphIsNoop) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}};
  expect_same_csr(compile(3, edges), compile(3, edges, true), "clean");
}

TEST(Builder, SelfLoopBecomesTwoArcs) {
  const Graph g = compile(1, {{0, 0}});
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.volume(), 2u);
}

TEST(Builder, EmptyBuild) {
  for (const bool simplify : {false, true}) {
    const Graph g = compile(4, {}, simplify);
    EXPECT_EQ(g.num_vertices(), 4u);
    EXPECT_EQ(g.num_edges(), 0u);
    for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(g.degree(v), 0u);
    EXPECT_EQ(from_edges(0, {}, simplify).num_vertices(), 0u);
  }
}

TEST(Builder, AdjacencyListsSorted) {
  const Graph g = compile(5, {{0, 4}, {0, 1}, {0, 3}, {0, 2}});
  const auto nbrs = g.neighbors(0);
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i], nbrs[i + 1]);
  }
}

/// A multigraph of over 3 * kSortChunk edges with self-loops and edges
/// repeated in both orientations, split into chunks of uneven size: chunk 0
/// takes about half of them and chunk 6 none.
std::vector<std::vector<Edge>> multigraph_chunks(std::uint32_t n) {
  rng::Xoshiro256 eng(42);
  std::vector<std::vector<Edge>> chunks(7);
  for (std::size_t i = 0; i < 3 * par::kSortChunk; ++i) {
    const auto u = static_cast<Vertex>(rng::uniform_below(eng, n));
    const auto v = static_cast<Vertex>(rng::uniform_below(eng, n));
    const std::size_t c =
        rng::coin_flip(eng) ? 0 : 1 + rng::uniform_below(eng, 5);
    chunks[c].emplace_back(u, v);
    if (i % 5 == 0) chunks[5 - c].emplace_back(v, u);
    if (i % 11 == 0) chunks[c].emplace_back(u, u);
  }
  return chunks;
}

TEST(Builder, PooledCompileMatchesSerial) {
  constexpr std::uint32_t n = 3000;
  par::ThreadPool pool2(2), pool4(4);
  for (const bool simplify : {false, true}) {
    auto serial_chunks = multigraph_chunks(n);
    const Graph serial = from_edges(n, serial_chunks, simplify);
    EXPECT_EQ(serial.is_simple(), simplify);
    for (par::ThreadPool* pool : {&pool2, &pool4}) {
      auto chunks = multigraph_chunks(n);
      const Graph pooled = from_edges(n, chunks, simplify, pool);
      expect_same_csr(serial, pooled, simplify ? "simplify" : "plain");
      for (const auto& chunk : chunks) EXPECT_TRUE(chunk.empty());
    }
  }
}

TEST(Builder, PooledCompileRejectsOutOfRangeEndpoints) {
  constexpr std::uint32_t n = 3000;
  par::ThreadPool pool4(4);
  for (const bool simplify : {false, true}) {
    // Far enough out of range that its sort key would land past the last
    // bucket of the simplify sort.
    auto chunks = multigraph_chunks(n);
    chunks[3].emplace_back(0xFFFFFFFFu, 0xFFFFFFFEu);
    EXPECT_THROW(from_edges(n, chunks, simplify, &pool4),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace cobra::graph
