#pragma once

#include <cstdint>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"

/// \file tensor_product.hpp
/// The §4 tensor-product construction behind Lemma 11. The coupled walk of
/// two Walt pebbles i < j on a d-regular graph G is exactly a random walk
/// on a *weighted directed* version D(G x G) of the tensor product:
///
///   * vertices are ordered pairs (u, u'); S1 = the diagonal {(u, u)},
///     S2 = the off-diagonal pairs;
///   * from an S2 vertex both pebbles move independently: every arc
///     (u,u') -> (v,v') with v in N(u), v' in N(u') has weight 1
///     (probability 1/d^2);
///   * from an S1 vertex the lower-order pebble moves uniformly and the
///     higher-order one copies it with probability 1/2: arcs back into S1
///     carry weight d+1, arcs into S2 carry weight 1 (probabilities
///     (d+1)/2d^2 and 1/2d^2).
///
/// The resulting digraph is weight-balanced (Eulerian), so its stationary
/// distribution is closed-form: pi(S1 vertex) = 2/(n^2+n), pi(S2 vertex)
/// = 1/(n^2+n) — the numbers Lemma 11's collision bound comes from.

namespace cobra::graph {

/// Linear id of the pair (u, u') in the n^2-vertex product.
[[nodiscard]] constexpr Vertex tensor_id(Vertex u, Vertex u_prime,
                                         std::uint32_t n) noexcept {
  return static_cast<Vertex>(static_cast<std::uint64_t>(u) * n + u_prime);
}

/// Inverse of tensor_id.
[[nodiscard]] constexpr std::pair<Vertex, Vertex> tensor_pair(
    Vertex id, std::uint32_t n) noexcept {
  return {static_cast<Vertex>(id / n), static_cast<Vertex>(id % n)};
}

/// True when the product vertex lies on the diagonal S1.
[[nodiscard]] constexpr bool is_diagonal(Vertex id, std::uint32_t n) noexcept {
  return id / n == id % n;
}

/// The paper's weighted directed D(G x G) for a d-regular simple G (the
/// coupled two-pebble Walt walk). Requires regularity (checked).
[[nodiscard]] Digraph walt_pair_digraph(const Graph& g);

/// Closed-form stationary values of walt_pair_digraph's walk.
struct WaltPairStationary {
  double diagonal;      ///< pi of each S1 vertex: 2 / (n^2 + n)
  double off_diagonal;  ///< pi of each S2 vertex: 1 / (n^2 + n)
};
[[nodiscard]] WaltPairStationary walt_pair_stationary(std::uint32_t n) noexcept;

}  // namespace cobra::graph
