#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"
#include "graph/grid_coords.hpp"

/// \file reference.hpp
/// Reference computations on graphs that tests compare the library
/// against: exact BFS distances, paths and diameters, components by plain
/// BFS, brute-force conductance, closed-form spectral gaps, exact mixing
/// distances, the plain tensor product, power-iteration stationary
/// distributions of a Digraph, and grid coordinates. They are exact or
/// brute force, O(n m) or worse, and no bench, example or tool runs them.

namespace cobra::graph {

// --------------------------------------------------------- distances -----

/// BFS parent pointers from `source`; parent[source] = source, parent of an
/// unreached vertex = kUnreachable. Follows the lowest-id shortest path.
[[nodiscard]] std::vector<Vertex> bfs_parents(const Graph& g, Vertex source);

/// One shortest path from `source` to `target` (inclusive); empty when
/// unreachable.
[[nodiscard]] std::vector<Vertex> shortest_path(const Graph& g, Vertex source,
                                                Vertex target);

/// Component id per vertex, by BFS from each unlabelled vertex in id order.
/// Ids are dense and 0-based, in order of each component's minimum vertex
/// (so vertex 0's component is id 0).
[[nodiscard]] std::vector<std::uint32_t> connected_components(const Graph& g);

/// Number of connected components.
[[nodiscard]] std::uint32_t num_components(const Graph& g);

/// Eccentricity of `v` (max BFS distance; kUnreachable if g disconnected).
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, Vertex v);

/// Exact diameter via BFS from every vertex — O(n m), for n up to ~10^4.
[[nodiscard]] std::uint32_t exact_diameter(const Graph& g);

/// Lower bound on the diameter by the double-sweep heuristic (two BFS
/// passes); exact on trees, usually tight in practice, O(m).
[[nodiscard]] std::uint32_t double_sweep_diameter_lb(const Graph& g);

/// Sum of degrees along a path of vertices (the quantity bounded by 3n in
/// Lemma 19's shortest-path argument).
[[nodiscard]] std::uint64_t path_degree_sum(const Graph& g,
                                            const std::vector<Vertex>& path);

// ------------------------------------------------ conductance, mixing -----

/// Conductance of the cut defined by `in_set` (true = inside S). Computes
/// |∂S| / min(vol(S), vol(V\S)). Degenerate cuts (empty/full) return +inf.
[[nodiscard]] double cut_conductance(const Graph& g,
                                     const std::vector<bool>& in_set);

/// Exact conductance by subset enumeration. Requires 2 <= n <= 24 (cost
/// 2^n); the tests calibrate graph::estimate_conductance against it.
[[nodiscard]] double exact_conductance_small(const Graph& g);

/// Closed-form lazy-walk spectral gaps:
/// cycle C_n lazy gap = (1 - cos(2 pi / n)) / 2.
[[nodiscard]] double cycle_lazy_gap(std::uint32_t n);
/// hypercube Q_d lazy gap = 1 / d (non-lazy gap 2/d, halved by laziness).
[[nodiscard]] double hypercube_lazy_gap(std::uint32_t dimensions);
/// complete K_n lazy gap = n / (2 (n-1)).
[[nodiscard]] double complete_lazy_gap(std::uint32_t n);

/// Total-variation distance to stationarity after `steps` lazy steps from
/// `source`.
[[nodiscard]] double tv_to_stationarity(const Graph& g, Vertex source,
                                        std::uint64_t steps);

/// Stationary distribution of `d`'s row-stochastic chain by power
/// iteration on P^T from the uniform start. The chain should be
/// irreducible (and aperiodic or lazy) for convergence; `max_iterations`
/// bounds work. Returns the distribution after convergence or the last
/// iterate.
[[nodiscard]] std::vector<double> stationary_distribution(
    const Digraph& d, std::uint32_t max_iterations = 100000,
    double tolerance = 1e-12);

// ------------------------------------------------------- constructions -----

/// The plain (undirected, unweighted) tensor product G x G: (u,u')~(v,v')
/// iff u~v and u'~v'. The product of a simple graph is simple. Requires
/// n^2 <= 2^32 and a simple G.
[[nodiscard]] Graph tensor_product(const Graph& g);

/// Linear id -> grid coordinates.
[[nodiscard]] std::vector<std::uint32_t> grid_coords(const GridCoords& grid,
                                                     Vertex id);

/// Grid coordinates -> linear id. Size must match the grid's dimensions;
/// each coordinate must be within its extent (throws std::out_of_range
/// otherwise).
[[nodiscard]] Vertex grid_id(const GridCoords& grid,
                             std::span<const std::uint32_t> coordinates);

/// Manhattan (L1) distance between two grid vertices.
[[nodiscard]] std::uint64_t manhattan(const GridCoords& grid, Vertex a,
                                      Vertex b);

}  // namespace cobra::graph
