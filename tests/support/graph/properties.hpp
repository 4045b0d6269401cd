#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file properties.hpp
/// Structural analytics for characterizing generated networks — used by
/// the generator tests to certify that each generator produces what it
/// claims (power-law tails, clustering of geometric graphs, etc.). Test
/// support: no bench, example or tool runs it.

namespace cobra::graph {

/// degree -> number of vertices with that degree (size = max_degree + 1).
[[nodiscard]] std::vector<std::uint64_t> degree_histogram(const Graph& g);

/// Local clustering coefficient of v: triangles through v divided by
/// C(d(v), 2); 0 for degree < 2. Requires a simple graph.
[[nodiscard]] double local_clustering(const Graph& g, Vertex v);

/// Average of local clustering over all vertices (Watts–Strogatz form).
[[nodiscard]] double average_clustering(const Graph& g);

/// Global clustering (transitivity): 3 * triangles / connected triples.
[[nodiscard]] double global_clustering(const Graph& g);

/// Number of triangles in the graph (each counted once).
[[nodiscard]] std::uint64_t triangle_count(const Graph& g);

/// Degree assortativity: the Pearson correlation of degrees across edges
/// (Newman). In [-1, 1]; negative for hub-and-spoke networks. Returns 0
/// for degree-regular graphs (zero variance).
[[nodiscard]] double degree_assortativity(const Graph& g);

/// Hill estimator of the power-law tail exponent gamma from the degrees
/// at or above `degree_min` (gamma = 1 + 1/mean(ln(d/d_min))). Returns 0
/// when fewer than 10 degrees qualify.
[[nodiscard]] double hill_tail_exponent(const Graph& g, std::uint32_t degree_min);

}  // namespace cobra::graph
