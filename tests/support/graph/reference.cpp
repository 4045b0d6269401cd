#include "graph/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/mixing.hpp"
#include "graph/tensor_product.hpp"

namespace cobra::graph {

std::vector<Vertex> bfs_parents(const Graph& g, Vertex source) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("bfs: source out of range");
  }
  std::vector<Vertex> parent(g.num_vertices(), kUnreachable);
  parent[source] = source;
  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  while (!frontier.empty()) {
    next.clear();
    for (const Vertex v : frontier) {
      for (const Vertex u : g.neighbors(v)) {
        if (parent[u] == kUnreachable) {
          parent[u] = v;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return parent;
}

std::vector<Vertex> shortest_path(const Graph& g, Vertex source, Vertex target) {
  const auto parents = bfs_parents(g, source);
  if (target >= g.num_vertices() || parents[target] == kUnreachable) return {};
  std::vector<Vertex> path{target};
  Vertex cur = target;
  while (cur != source) {
    cur = parents[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  std::vector<std::uint32_t> component(g.num_vertices(), kUnreachable);
  std::uint32_t next_id = 0;
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < g.num_vertices(); ++s) {
    if (component[s] != kUnreachable) continue;
    component[s] = next_id;
    stack.assign(1, s);
    while (!stack.empty()) {
      const Vertex v = stack.back();
      stack.pop_back();
      for (const Vertex u : g.neighbors(v)) {
        if (component[u] == kUnreachable) {
          component[u] = next_id;
          stack.push_back(u);
        }
      }
    }
    ++next_id;
  }
  return component;
}

std::uint32_t num_components(const Graph& g) {
  const auto component = connected_components(g);
  return component.empty()
             ? 0
             : *std::max_element(component.begin(), component.end()) + 1;
}

std::uint32_t eccentricity(const Graph& g, Vertex v) {
  const auto dist = bfs_distances(g, v);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t exact_diameter(const Graph& g) {
  std::uint32_t diameter = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t ecc = eccentricity(g, v);
    if (ecc == kUnreachable) return kUnreachable;
    diameter = std::max(diameter, ecc);
  }
  return diameter;
}

std::uint32_t double_sweep_diameter_lb(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  const auto dist0 = bfs_distances(g, 0);
  Vertex far = 0;
  std::uint32_t best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (dist0[v] != kUnreachable && dist0[v] > best) {
      best = dist0[v];
      far = v;
    }
  }
  // Second sweep from the farthest vertex; ignore unreachable vertices so
  // the heuristic still returns the component-local diameter bound.
  const auto dist1 = bfs_distances(g, far);
  std::uint32_t lb = 0;
  for (const std::uint32_t d : dist1) {
    if (d != kUnreachable) lb = std::max(lb, d);
  }
  return lb;
}

std::uint64_t path_degree_sum(const Graph& g, const std::vector<Vertex>& path) {
  std::uint64_t total = 0;
  for (const Vertex v : path) total += g.degree(v);
  return total;
}

double cut_conductance(const Graph& g, const std::vector<bool>& in_set) {
  if (in_set.size() != g.num_vertices()) {
    throw std::invalid_argument("cut_conductance: mask size mismatch");
  }
  std::uint64_t vol_s = 0;
  std::uint64_t boundary = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (!in_set[v]) continue;
    vol_s += g.degree(v);
    for (const Vertex u : g.neighbors(v)) {
      if (!in_set[u]) ++boundary;
    }
  }
  const std::uint64_t vol_rest = g.volume() - vol_s;
  const std::uint64_t vol_min = std::min(vol_s, vol_rest);
  if (vol_min == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(boundary) / static_cast<double>(vol_min);
}

double exact_conductance_small(const Graph& g) {
  const std::uint32_t n = g.num_vertices();
  if (n < 2 || n > 24) {
    throw std::invalid_argument("exact_conductance_small: 2 <= n <= 24");
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<bool> mask(n);
  // Enumerate subsets containing vertex 0 only (complement symmetry halves
  // the work); cut_conductance takes the min-volume side anyway.
  const std::uint32_t subsets = 1u << (n - 1);
  for (std::uint32_t bits = 1; bits < subsets; ++bits) {
    mask.assign(n, false);
    mask[0] = true;
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      if ((bits >> i) & 1u) mask[i + 1] = true;
    }
    best = std::min(best, cut_conductance(g, mask));
  }
  return best;
}

double cycle_lazy_gap(std::uint32_t n) {
  if (n < 3) throw std::invalid_argument("cycle_lazy_gap: n >= 3");
  return (1.0 - std::cos(2.0 * std::numbers::pi / n)) / 2.0;
}

double hypercube_lazy_gap(std::uint32_t dimensions) {
  if (dimensions < 1) throw std::invalid_argument("hypercube_lazy_gap: d >= 1");
  return 1.0 / dimensions;
}

double complete_lazy_gap(std::uint32_t n) {
  if (n < 2) throw std::invalid_argument("complete_lazy_gap: n >= 2");
  return static_cast<double>(n) / (2.0 * (n - 1));
}

double tv_to_stationarity(const Graph& g, Vertex source, std::uint64_t steps) {
  const auto p = lazy_walk_distribution(g, source, steps);
  const auto pi = stationary_of(g);
  return total_variation(p, pi);
}

std::vector<double> stationary_distribution(const Digraph& d,
                                            std::uint32_t max_iterations,
                                            double tolerance) {
  const std::uint32_t n = d.num_vertices();
  std::vector<double> current(n, n > 0 ? 1.0 / n : 0.0);
  std::vector<double> next(n, 0.0);
  for (std::uint32_t it = 0; it < max_iterations; ++it) {
    d.push_distribution(current, next);
    const double tv = total_variation(current, next);
    current.swap(next);
    if (tv < tolerance) break;
  }
  return current;
}

Graph tensor_product(const Graph& g) {
  const std::uint64_t n64 = g.num_vertices();
  if (n64 < 2) throw std::invalid_argument("tensor product: n >= 2");
  if (n64 * n64 > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("tensor product: n^2 exceeds 2^32");
  }
  const std::uint32_t n = g.num_vertices();
  std::vector<Edge> edges;
  // Each product edge {(u,u'), (v,v')} corresponds to the *ordered* pair of
  // G-edges; to emit each undirected product edge once, iterate arcs of G
  // for the first coordinate (u < v via arc dedup below) and all arcs for
  // the second. Simplest correct form: emit when the product ids are
  // ordered.
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : g.neighbors(u)) {
      for (Vertex up = 0; up < n; ++up) {
        for (const Vertex vp : g.neighbors(up)) {
          const Vertex a = tensor_id(u, up, n);
          const Vertex c = tensor_id(v, vp, n);
          if (a < c) edges.emplace_back(a, c);
        }
      }
    }
  }
  return from_edges(n * n, {&edges, 1}, false);
}

std::vector<std::uint32_t> grid_coords(const GridCoords& grid, Vertex id) {
  if (id >= grid.num_points()) {
    throw std::out_of_range("grid_coords: id out of range");
  }
  std::vector<std::uint32_t> out(grid.dimensions());
  std::uint64_t rest = id;
  for (std::uint32_t i = 0; i < grid.dimensions(); ++i) {
    out[i] = static_cast<std::uint32_t>(rest / grid.stride(i));
    rest %= grid.stride(i);
  }
  return out;
}

Vertex grid_id(const GridCoords& grid,
               std::span<const std::uint32_t> coordinates) {
  if (coordinates.size() != grid.dimensions()) {
    throw std::out_of_range("grid_id: dimension mismatch");
  }
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < grid.dimensions(); ++i) {
    if (coordinates[i] >= grid.extent(i)) {
      throw std::out_of_range("grid_id: coordinate out of extent");
    }
    acc += static_cast<std::uint64_t>(coordinates[i]) * grid.stride(i);
  }
  return static_cast<Vertex>(acc);
}

std::uint64_t manhattan(const GridCoords& grid, Vertex a, Vertex b) {
  const auto ca = grid_coords(grid, a);
  const auto cb = grid_coords(grid, b);
  std::uint64_t dist = 0;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    dist += ca[i] > cb[i] ? ca[i] - cb[i] : cb[i] - ca[i];
  }
  return dist;
}

}  // namespace cobra::graph
