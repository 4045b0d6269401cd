#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"

/// \file algorithms.hpp
/// Deterministic graph algorithms supporting the experiments: BFS distances
/// feed the biased-walk controller (§5) and diameter normalization (E9);
/// connectivity guards every randomized generator; component extraction
/// cleans up sub-critical Erdős–Rényi / geometric graphs (the spec key
/// lcc=1).

namespace cobra::graph {

/// Sentinel distance for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// BFS hop distances from `source` (kUnreachable where disconnected).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       Vertex source);

/// BFS parent pointers from `source`; parent[source] = source, parent of an
/// unreached vertex = kUnreachable. Follows the lowest-id shortest path.
[[nodiscard]] std::vector<Vertex> bfs_parents(const Graph& g, Vertex source);

/// One shortest path from `source` to `target` (inclusive); empty when
/// unreachable.
[[nodiscard]] std::vector<Vertex> shortest_path(const Graph& g, Vertex source,
                                                Vertex target);

[[nodiscard]] bool is_connected(const Graph& g);

/// Component id per vertex. Ids are dense and 0-based, in order of each
/// component's minimum vertex (so vertex 0's component is id 0).
[[nodiscard]] std::vector<std::uint32_t> connected_components(const Graph& g);

/// Number of connected components.
[[nodiscard]] std::uint32_t num_components(const Graph& g);

/// The subgraph induced by the largest connected component, along with the
/// mapping old-vertex -> new-vertex (kUnreachable for dropped vertices).
/// Among equal-size largest components the one with the smaller minimum
/// vertex wins. Kept vertices keep their relative order, and every arc of
/// a kept vertex is kept, so self-loops and parallel edges survive with
/// their multiplicity; each new row is sorted (an unsorted input row is
/// sorted after relabelling). Expects a symmetric CSR, as GraphBuilder and
/// every gen:: generator produce.
///
/// The labelling is a union-find whose roots are the components' minimum
/// vertices under every schedule, and the new CSR is filled row by row
/// with no edge list, so the result is bit-identical at any thread count.
/// `pool` spreads the passes over its workers (graphs of at most
/// par::kSortChunk edges stay in-line); nullptr runs in-line. Like
/// par::bucket_sorted, the caller picks a pool it may wait on — not one
/// whose worker it is running on (gen::usable_pool decides that).
struct ComponentExtraction {
  Graph graph;
  std::vector<Vertex> old_to_new;
  std::vector<Vertex> new_to_old;
};
[[nodiscard]] ComponentExtraction largest_component(
    const Graph& g, par::ThreadPool* pool = nullptr);

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

}  // namespace cobra::graph
