#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

/// \file digraph.hpp
/// Weighted directed graphs — the substrate for §4's analysis machinery.
/// The paper converts the coupled two-pebble Walt walk on G into a random
/// walk on a weighted directed version D(G x G) of the tensor product,
/// then uses Chung's directed-Laplacian theory to bound its mixing. This
/// module provides exactly what that construction needs:
///
///   * a CSR weighted digraph with per-arc transition weights,
///   * row-stochastic normalization (a transition matrix view),
///   * the weighted in/out balance check behind "D(G x G) is Eulerian",
///   * one distribution step along the normalized arcs, and
///   * total-variation distance between distributions.

namespace cobra::graph {

class Digraph {
 public:
  Digraph() = default;

  /// Builder-free construction from arc lists: arcs[i] = (source, target,
  /// weight). Weights must be positive. Arcs are grouped by source into
  /// CSR. Parallel arcs are allowed (the D(G x G) construction uses them
  /// conceptually; numerically their weights just add).
  struct Arc {
    Vertex source;
    Vertex target;
    double weight;
  };
  Digraph(std::uint32_t num_vertices, const std::vector<Arc>& arcs);

  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t num_arcs() const noexcept {
    return targets_.size();
  }

  [[nodiscard]] std::uint32_t out_degree(Vertex v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  [[nodiscard]] std::span<const Vertex> out_neighbors(Vertex v) const {
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }
  [[nodiscard]] std::span<const double> out_weights(Vertex v) const {
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  /// Total outgoing weight of v (row sum before normalization).
  [[nodiscard]] double out_weight_total(Vertex v) const;
  /// Total incoming weight of v. O(m) per call; cached variants below.
  [[nodiscard]] std::vector<double> in_weight_totals() const;

  /// True when every vertex has equal in- and out-weight (the weighted
  /// Eulerian condition; for such chains the stationary distribution is
  /// out_weight(v) / total_weight, the fact §4 exploits).
  [[nodiscard]] bool is_weight_balanced(double tolerance = 1e-9) const;

  /// One distribution step: out = in * P (push each vertex's mass along
  /// its normalized arcs). Caller provides buffers of size n.
  void push_distribution(std::span<const double> in,
                         std::span<double> out) const;

 private:
  std::uint32_t n_ = 0;
  std::vector<EdgeIndex> offsets_ = {0};
  std::vector<Vertex> targets_;
  std::vector<double> weights_;
  std::vector<double> normalized_;  ///< row-stochastic weights, same layout
};

/// Total-variation distance (1/2) * sum |a_i - b_i|.
[[nodiscard]] double total_variation(std::span<const double> a,
                                     std::span<const double> b);

}  // namespace cobra::graph
