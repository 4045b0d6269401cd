#include "core/pair_walk.hpp"

#include <stdexcept>

namespace cobra::core {

PairWalk::PairWalk(const Graph& g, Vertex start_i, Vertex start_j, bool lazy)
    : g_(&g), pos_i_(start_i), pos_j_(start_j), lazy_(lazy) {
  if (g.num_vertices() == 0) throw std::invalid_argument("PairWalk: empty graph");
  if (start_i >= g.num_vertices() || start_j >= g.num_vertices()) {
    throw std::out_of_range("PairWalk: start out of range");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("PairWalk: graph has an isolated vertex");
  }
  refresh_product();
}

void PairWalk::step(Engine& gen) {
  ++round_;
  if (lazy_ && rng::coin_flip(gen)) return;

  if (pos_i_ == pos_j_) {
    // Co-located: i leads, j copies with probability 1/2.
    const Vertex dest_i = random_neighbor(*g_, pos_i_, gen);
    if (rng::coin_flip(gen)) {
      pos_j_ = dest_i;
      ++copies_;
    } else {
      pos_j_ = random_neighbor(*g_, pos_j_, gen);
    }
    pos_i_ = dest_i;
  } else {
    pos_i_ = random_neighbor(*g_, pos_i_, gen);
    pos_j_ = random_neighbor(*g_, pos_j_, gen);
  }
  refresh_product();
}

}  // namespace cobra::core
