#include "core/biased_walk.hpp"

#include <stdexcept>

#include "graph/algorithms.hpp"

namespace cobra::core {

BiasedWalk::BiasedWalk(const Graph& g, Vertex start, Vertex target,
                       BiasSchedule schedule, double epsilon)
    : g_(&g),
      position_(start),
      target_(target),
      schedule_(schedule),
      epsilon_(epsilon) {
  if (start >= g.num_vertices() || target >= g.num_vertices()) {
    throw std::out_of_range("BiasedWalk: vertex out of range");
  }
  if (epsilon < 0.0 || epsilon > 1.0) {
    throw std::invalid_argument("BiasedWalk: epsilon in [0, 1]");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("BiasedWalk: graph has an isolated vertex");
  }
  dist_to_target_ = graph::bfs_distances(g, target);
  if (dist_to_target_[start] == graph::kUnreachable) {
    throw std::invalid_argument("BiasedWalk: target unreachable from start");
  }
  // Precompute the greedy controller: for every vertex, the first neighbor
  // strictly closer to the target.
  toward_target_.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    Vertex choice = g.neighbors(v).empty() ? v : g.neighbors(v)[0];
    if (dist_to_target_[v] != graph::kUnreachable && v != target) {
      for (const Vertex u : g.neighbors(v)) {
        if (dist_to_target_[u] + 1 == dist_to_target_[v]) {
          choice = u;
          break;
        }
      }
    }
    toward_target_[v] = choice;
  }
}

void BiasedWalk::step(Engine& gen) {
  ++round_;
  // §5.1: at the target itself the walk is always uniform (the bias exists
  // to *reach* the target; at the target the return-time analysis needs the
  // unbiased exit).
  double bias = 0.0;
  if (position_ != target_) {
    bias = schedule_ == BiasSchedule::EpsilonBias
               ? epsilon_
               : 1.0 / static_cast<double>(g_->degree(position_));
  }
  if (bias > 0.0 && rng::bernoulli(gen, bias)) {
    ++controlled_;
    position_ = toward_target_[position_];
  } else {
    position_ = random_neighbor(*g_, position_, gen);
  }
}

}  // namespace cobra::core
