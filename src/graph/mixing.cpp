#include "graph/mixing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/digraph.hpp"  // total_variation

namespace cobra::graph {

void lazy_walk_step(const Graph& g, const std::vector<double>& in,
                    std::vector<double>& out) {
  const std::uint32_t n = g.num_vertices();
  if (in.size() != n || out.size() != n) {
    throw std::invalid_argument("lazy_walk_step: size mismatch");
  }
  for (Vertex v = 0; v < n; ++v) out[v] = 0.5 * in[v];
  for (Vertex v = 0; v < n; ++v) {
    const double push = 0.5 * in[v] / static_cast<double>(g.degree(v));
    if (push == 0.0) continue;
    for (const Vertex u : g.neighbors(v)) out[u] += push;
  }
}

std::vector<double> stationary_of(const Graph& g) {
  std::vector<double> pi(g.num_vertices());
  const double volume = static_cast<double>(g.volume());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    pi[v] = static_cast<double>(g.degree(v)) / volume;
  }
  return pi;
}

std::vector<double> lazy_walk_distribution(const Graph& g, Vertex source,
                                           std::uint64_t steps) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("lazy_walk_distribution: source");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("lazy_walk_distribution: isolated vertex");
  }
  std::vector<double> current(g.num_vertices(), 0.0);
  std::vector<double> next(g.num_vertices(), 0.0);
  current[source] = 1.0;
  for (std::uint64_t t = 0; t < steps; ++t) {
    lazy_walk_step(g, current, next);
    current.swap(next);
  }
  return current;
}

std::uint64_t lazy_mixing_time(const Graph& g, Vertex source, double epsilon,
                               std::uint64_t max_steps) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("lazy_mixing_time: source");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("lazy_mixing_time: isolated vertex");
  }
  std::vector<double> current(g.num_vertices(), 0.0);
  std::vector<double> next(g.num_vertices(), 0.0);
  current[source] = 1.0;
  const auto pi = stationary_of(g);
  for (std::uint64_t t = 0; t <= max_steps; ++t) {
    if (total_variation(current, pi) <= epsilon) return t;
    lazy_walk_step(g, current, next);
    current.swap(next);
  }
  return max_steps;
}

double max_coordinate_deviation(const Graph& g, Vertex source,
                                std::uint64_t steps) {
  const auto p = lazy_walk_distribution(g, source, steps);
  const auto pi = stationary_of(g);
  double worst = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    worst = std::max(worst, std::abs(p[i] - pi[i]));
  }
  return worst;
}

}  // namespace cobra::graph
