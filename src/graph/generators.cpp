#include "graph/generators.hpp"

#include <limits>
#include <stdexcept>
#include <vector>

#include "graph/builder.hpp"
#include "graph/grid_coords.hpp"

namespace cobra::graph {

namespace {

/// Append every edge {u, v} with lo <= u < v < hi.
void add_clique(std::vector<Edge>& edges, Vertex lo, Vertex hi) {
  for (Vertex u = lo; u < hi; ++u) {
    for (Vertex v = u + 1; v < hi; ++v) edges.emplace_back(u, v);
  }
}

}  // namespace

Graph make_path(std::uint32_t n) {
  if (n < 1) throw std::invalid_argument("make_path: n >= 1");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return from_edges(n, {&edges, 1}, false);
}

Graph make_cycle(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("make_cycle: n >= 3");
  std::vector<Edge> edges;
  edges.reserve(n);
  for (Vertex v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  edges.emplace_back(n - 1, 0);
  return from_edges(n, {&edges, 1}, false);
}

Graph make_complete(std::uint32_t n) {
  if (n < 1) throw std::invalid_argument("make_complete: n >= 1");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  add_clique(edges, 0, n);
  return from_edges(n, {&edges, 1}, false);
}

Graph make_star(std::uint32_t n) {
  if (n < 2) throw std::invalid_argument("make_star: n >= 2");
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (Vertex v = 1; v < n; ++v) edges.emplace_back(0, v);
  return from_edges(n, {&edges, 1}, false);
}

Graph make_grid(std::uint32_t dimensions, std::uint32_t side, bool torus) {
  if (dimensions < 1) throw std::invalid_argument("make_grid: dimensions >= 1");
  if (side < 2) throw std::invalid_argument("make_grid: side >= 2");
  const GridCoords coords(dimensions, side);
  const std::uint32_t n = coords.num_points();

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dimensions);
  std::vector<std::uint32_t> c(dimensions, 0);
  for (Vertex v = 0; v < n; ++v) {
    // Emit the +1 edge along every axis; the -1 edges are emitted by the
    // lower-coordinate endpoint, so each undirected edge appears once.
    for (std::uint32_t axis = 0; axis < dimensions; ++axis) {
      if (c[axis] + 1 < side) {
        edges.emplace_back(v, static_cast<Vertex>(v + coords.stride(axis)));
      } else if (torus && side > 2) {
        // Wrap edge from the last point back to coordinate 0. side == 2
        // is excluded: the wrap edge would duplicate the +1 edge.
        edges.emplace_back(
            v, static_cast<Vertex>(v - (static_cast<std::uint64_t>(side) - 1) *
                                           coords.stride(axis)));
      }
    }
    // Increment mixed-radix counter (row-major: last axis fastest).
    for (std::uint32_t axis = dimensions; axis-- > 0;) {
      if (++c[axis] < side) break;
      c[axis] = 0;
    }
  }
  return from_edges(n, {&edges, 1}, false);
}

Graph make_hypercube(std::uint32_t dimensions) {
  if (dimensions < 1 || dimensions > 31) {
    throw std::invalid_argument("make_hypercube: 1 <= dimensions <= 31");
  }
  const std::uint32_t n = 1u << dimensions;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * dimensions / 2);
  for (Vertex v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < dimensions; ++bit) {
      const Vertex u = v ^ (1u << bit);
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return from_edges(n, {&edges, 1}, false);
}

Graph make_kary_tree(std::uint32_t arity, std::uint32_t levels) {
  if (arity < 1) throw std::invalid_argument("make_kary_tree: arity >= 1");
  if (levels < 1) throw std::invalid_argument("make_kary_tree: levels >= 1");
  // n = 1 + k + k^2 + ... + k^(levels-1)
  std::uint64_t n = 0, layer = 1;
  for (std::uint32_t l = 0; l < levels; ++l) {
    n += layer;
    layer *= arity;
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("make_kary_tree: tree exceeds 2^32 - 1 vertices");
    }
  }
  const auto total = static_cast<std::uint32_t>(n);
  std::vector<Edge> edges;
  edges.reserve(total - 1);
  // In BFS order, the children of vertex v are arity*v + 1 ... arity*v + arity.
  for (Vertex v = 0; v < total; ++v) {
    for (std::uint32_t c = 1; c <= arity; ++c) {
      const std::uint64_t child = static_cast<std::uint64_t>(arity) * v + c;
      if (child >= total) break;
      edges.emplace_back(v, static_cast<Vertex>(child));
    }
  }
  return from_edges(total, {&edges, 1}, false);
}

Graph make_lollipop(std::uint32_t clique_size, std::uint32_t path_length) {
  if (clique_size < 2) throw std::invalid_argument("make_lollipop: clique >= 2");
  const std::uint32_t n = clique_size + path_length;
  std::vector<Edge> edges;
  add_clique(edges, 0, clique_size);
  // Path hangs off the last clique vertex.
  for (Vertex v = clique_size; v < n; ++v) edges.emplace_back(v - 1, v);
  return from_edges(n, {&edges, 1}, false);
}

Graph make_barbell(std::uint32_t clique_size, std::uint32_t path_length) {
  if (clique_size < 2) throw std::invalid_argument("make_barbell: clique >= 2");
  const std::uint32_t n = 2 * clique_size + path_length;
  std::vector<Edge> edges;
  // Left clique on [0, clique_size), right clique on [clique_size + path,
  // n); the path occupies the middle ids.
  const Vertex right_base = clique_size + path_length;
  add_clique(edges, 0, clique_size);
  add_clique(edges, right_base, n);
  // Chain: last left-clique vertex - path vertices - first right-clique vertex.
  for (Vertex v = clique_size; v <= right_base; ++v) {
    edges.emplace_back(v - 1, v);
  }
  return from_edges(n, {&edges, 1}, false);
}

Graph make_double_clique(std::uint32_t clique_size) {
  if (clique_size < 2) throw std::invalid_argument("make_double_clique: size >= 2");
  const std::uint32_t n = 2 * clique_size - 1;  // shared cut vertex
  std::vector<Edge> edges;
  const Vertex cut = clique_size - 1;
  add_clique(edges, 0, cut + 1);
  add_clique(edges, cut, n);
  return from_edges(n, {&edges, 1}, false);
}

}  // namespace cobra::graph
