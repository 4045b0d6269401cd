#include "graph/tensor_product.hpp"

#include <limits>
#include <stdexcept>
#include <vector>


namespace cobra::graph {

namespace {

void check_product_size(const Graph& g) {
  const std::uint64_t n = g.num_vertices();
  if (n < 2) throw std::invalid_argument("tensor product: n >= 2");
  if (n * n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("tensor product: n^2 exceeds 2^32");
  }
}

}  // namespace

Digraph walt_pair_digraph(const Graph& g) {
  check_product_size(g);
  if (!g.is_regular()) {
    throw std::invalid_argument("walt_pair_digraph: graph must be regular");
  }
  if (!g.is_simple()) {
    throw std::invalid_argument("walt_pair_digraph: graph must be simple");
  }
  const std::uint32_t n = g.num_vertices();
  const double d = g.degree(0);

  std::vector<Digraph::Arc> arcs;
  arcs.reserve(static_cast<std::size_t>(n) * n * static_cast<std::size_t>(d) *
               static_cast<std::size_t>(d));
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex up = 0; up < n; ++up) {
      const Vertex source = tensor_id(u, up, n);
      if (u == up) {
        // S1: lower pebble moves to v u.a.r.; higher copies with prob 1/2.
        // Arc weights (d+1) into S1, 1 into S2; total out weight 2d^2.
        for (const Vertex v : g.neighbors(u)) {
          arcs.push_back({source, tensor_id(v, v, n), d + 1.0});
          for (const Vertex vp : g.neighbors(u)) {
            if (vp == v) continue;
            arcs.push_back({source, tensor_id(v, vp, n), 1.0});
          }
        }
      } else {
        // S2: independent moves; weight 1 per (v, v') pair, total d^2.
        for (const Vertex v : g.neighbors(u)) {
          for (const Vertex vp : g.neighbors(up)) {
            arcs.push_back({source, tensor_id(v, vp, n), 1.0});
          }
        }
      }
    }
  }
  return Digraph(n * n, arcs);
}

WaltPairStationary walt_pair_stationary(std::uint32_t n) noexcept {
  const double denom = static_cast<double>(n) * n + n;
  return {2.0 / denom, 1.0 / denom};
}

}  // namespace cobra::graph
