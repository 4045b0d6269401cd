#include "core/random_walk.hpp"

#include <stdexcept>

namespace cobra::core {

RandomWalk::RandomWalk(const Graph& g, Vertex start, double laziness)
    : RandomWalk(g, std::span<const Vertex>(&start, 1), laziness) {}

RandomWalk::RandomWalk(const Graph& g, std::span<const Vertex> starts,
                       double laziness)
    : g_(&g), positions_(starts.begin(), starts.end()), laziness_(laziness) {
  if (g.num_vertices() == 0) throw std::invalid_argument("RandomWalk: empty graph");
  if (positions_.empty()) throw std::invalid_argument("RandomWalk: no walkers");
  for (const Vertex v : positions_) {
    if (v >= g.num_vertices()) {
      throw std::out_of_range("RandomWalk: start out of range");
    }
  }
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument("RandomWalk: laziness in [0, 1)");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("RandomWalk: graph has an isolated vertex");
  }
}

void RandomWalk::step(Engine& gen) {
  ++round_;
  for (Vertex& p : positions_) {
    if (laziness_ > 0.0 && rng::bernoulli(gen, laziness_)) continue;
    p = random_neighbor(*g_, p, gen);
  }
}

}  // namespace cobra::core
