#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

/// \file builder.hpp
/// The library's one edge-list -> CSR compiler. Only rreg's stub pairing
/// and largest_component's relabel write a CSR without it.

namespace cobra::par {
class ThreadPool;
}  // namespace cobra::par

namespace cobra::graph {

/// An undirected edge {first, second}; a self-loop has first == second.
using Edge = std::pair<Vertex, Vertex>;

/// Canonical key of the undirected edge {a, b}: (min << 32) | max, so keys
/// order like (min, max) pairs.
using EdgeKey = std::uint64_t;
constexpr EdgeKey edge_key(Vertex a, Vertex b) {
  return a < b ? (EdgeKey{a} << 32) | b : (EdgeKey{b} << 32) | a;
}

/// Compile the chunks' edges, taken in chunk order, into a CSR Graph on n
/// vertices; the chunks are left empty. A single edge list is one chunk:
/// `from_edges(n, {&edges, 1}, simplify)`.
///
/// Each edge {u, v} becomes arcs u->v and v->u; a self-loop {v, v} becomes
/// two arcs v->v (degree +2), matching the vol(V) = 2|E| convention. Rows
/// are sorted. With `simplify`, self-loops and repeated undirected edges
/// (in either orientation) are removed first. An endpoint >= n throws
/// std::invalid_argument.
///
/// `pool` == nullptr compiles in-line; with a pool the compile runs on it,
/// and the graph is bit-identical at any thread count.
[[nodiscard]] Graph from_edges(std::uint32_t n,
                               std::span<std::vector<Edge>> chunks,
                               bool simplify, par::ThreadPool* pool = nullptr);

}  // namespace cobra::graph
