#include "io/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace cobra::io {
namespace {

TEST(GraphIo, ReadsBasicFormat) {
  std::istringstream in(
      "# a triangle\n"
      "3\n"
      "0 1\n"
      "\n"
      "1 2\n"
      "# middle comment\n"
      "2 0\n");
  const graph::Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(GraphIo, ReadsEdgesInAnyOrderIntoTheCanonicalCsr) {
  // A 4-cycle listed out of order, endpoints either way round.
  std::istringstream in("4\n3 0\n1 0\n2 1\n2 3\n");
  const graph::Graph back = read_edge_list(in);
  const graph::Graph cycle = graph::make_cycle(4);
  EXPECT_EQ(back.num_vertices(), cycle.num_vertices());
  EXPECT_EQ(back.num_edges(), cycle.num_edges());
  EXPECT_EQ(back.targets(), cycle.targets());  // CSR is canonical (sorted)
}

TEST(GraphIo, KeepsSelfLoopsAndParallelEdges) {
  std::istringstream in("3\n0 0\n1 2\n1 2\n");
  const graph::Graph back = read_edge_list(in);
  EXPECT_EQ(back.num_edges(), 3u);
  EXPECT_EQ(back.degree(0), 2u);  // self-loop counts twice
  EXPECT_EQ(back.degree(1), 2u);
}

TEST(GraphIo, EmptyGraph) {
  std::istringstream in("0\n");
  const graph::Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::istringstream in("");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("abc\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3 extra\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n0\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n0 1 2\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n0 7\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("3\n-1 0\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    // A vertex count above 2^32 - 1 does not fit a Vertex.
    std::istringstream in("4294967299\n0 1\n1 2\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
  {
    std::istringstream in("4294967296\n");
    EXPECT_THROW(read_edge_list(in), std::invalid_argument);
  }
}

TEST(GraphIo, LoadsFromAFile) {
  const std::string path = ::testing::TempDir() + "cobra_graph_io_test.txt";
  {
    std::ofstream out(path);
    out << "# a 5-cycle\n5\n0 1\n1 2\n2 3\n3 4\n4 0\n";
  }
  const graph::Graph back = load_edge_list(path);
  EXPECT_EQ(back.num_edges(), 5u);
  EXPECT_TRUE(graph::is_connected(back));
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent_dir_xyz/graph.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace cobra::io
