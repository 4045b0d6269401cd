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

[[nodiscard]] bool is_connected(const Graph& g);

/// The subgraph induced by the largest connected component, along with the
/// mapping old-vertex -> new-vertex (kUnreachable for dropped vertices).
/// Among equal-size largest components the one with the smaller minimum
/// vertex wins. Kept vertices keep their relative order, and every arc of
/// a kept vertex is kept, so self-loops and parallel edges survive with
/// their multiplicity; each new row is sorted (an unsorted input row is
/// sorted after relabelling). Expects a symmetric CSR, as from_edges and
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

}  // namespace cobra::graph
