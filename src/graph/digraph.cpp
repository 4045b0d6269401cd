#include "graph/digraph.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace cobra::graph {

Digraph::Digraph(std::uint32_t num_vertices, const std::vector<Arc>& arcs)
    : n_(num_vertices) {
  offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (const Arc& arc : arcs) {
    if (arc.source >= n_ || arc.target >= n_) {
      throw std::invalid_argument("Digraph: arc endpoint out of range");
    }
    if (!(arc.weight > 0.0)) {
      throw std::invalid_argument("Digraph: weights must be positive");
    }
    ++offsets_[static_cast<std::size_t>(arc.source) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];

  targets_.resize(arcs.size());
  weights_.resize(arcs.size());
  std::vector<EdgeIndex> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Arc& arc : arcs) {
    const EdgeIndex at = cursor[arc.source]++;
    targets_[at] = arc.target;
    weights_[at] = arc.weight;
  }

  // Precompute the row-stochastic weights once; they are read on every
  // distribution push and by the simulating pair walk.
  normalized_.resize(arcs.size());
  for (Vertex v = 0; v < n_; ++v) {
    double row = 0.0;
    for (EdgeIndex i = offsets_[v]; i < offsets_[v + 1]; ++i) row += weights_[i];
    if (row > 0.0) {
      for (EdgeIndex i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        normalized_[i] = weights_[i] / row;
      }
    }
  }
}

double Digraph::out_weight_total(Vertex v) const {
  double total = 0.0;
  for (EdgeIndex i = offsets_[v]; i < offsets_[v + 1]; ++i) total += weights_[i];
  return total;
}

std::vector<double> Digraph::in_weight_totals() const {
  std::vector<double> in(n_, 0.0);
  for (Vertex v = 0; v < n_; ++v) {
    for (EdgeIndex i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      in[targets_[i]] += weights_[i];
    }
  }
  return in;
}

bool Digraph::is_weight_balanced(double tolerance) const {
  const auto in = in_weight_totals();
  for (Vertex v = 0; v < n_; ++v) {
    if (std::abs(in[v] - out_weight_total(v)) > tolerance) return false;
  }
  return true;
}

void Digraph::push_distribution(std::span<const double> in,
                                std::span<double> out) const {
  if (in.size() != n_ || out.size() != n_) {
    throw std::invalid_argument("push_distribution: size mismatch");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (Vertex v = 0; v < n_; ++v) {
    const double mass = in[v];
    if (mass == 0.0) continue;
    for (EdgeIndex i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      out[targets_[i]] += mass * normalized_[i];
    }
  }
}

double total_variation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("total_variation: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum / 2.0;
}

}  // namespace cobra::graph
