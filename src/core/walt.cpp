#include "core/walt.hpp"

#include <stdexcept>

namespace cobra::core {

Walt::Walt(const Graph& g, Vertex start, std::uint32_t pebbles, bool lazy)
    : Walt(g, std::vector<Vertex>(pebbles, start), lazy) {}

Walt::Walt(const Graph& g, std::span<const Vertex> starts, bool lazy)
    : g_(&g),
      lazy_(lazy),
      positions_(starts.begin(), starts.end()),
      stamp_(g.num_vertices(), 0),
      arrivals_(g.num_vertices(), 0),
      dest0_(g.num_vertices(), 0),
      dest1_(g.num_vertices(), 0) {
  if (positions_.empty()) throw std::invalid_argument("Walt: needs >= 1 pebble");
  if (g.num_vertices() == 0) throw std::invalid_argument("Walt: empty graph");
  if (g.min_degree() == 0) {
    throw std::invalid_argument("Walt: graph has an isolated vertex");
  }
  for (const Vertex v : positions_) {
    if (v >= g.num_vertices()) throw std::out_of_range("Walt: start out of range");
  }
  occupied_.reserve(positions_.size());
  rebuild_occupied();
}

// Epoch-stamp wrap audit: Walt advances the epoch twice per step (the move
// pass and rebuild_occupied), so a 32-bit wrap arrives after 2^31 steps;
// both advances wipe the stamp array on wrap, which keeps stale stamps from
// aliasing the fresh epoch (the bug class the FrontierEngine centralizes
// for the frontier processes — Walt keeps its own stamps because it also
// uses them for per-round arrival slots, not just membership dedup).
void Walt::rebuild_occupied() {
  occupied_.clear();
  if (++epoch_ == 0) {
    stamp_.assign(stamp_.size(), 0);
    epoch_ = 1;
  }
  for (const Vertex v : positions_) {
    if (stamp_[v] != epoch_) {
      stamp_[v] = epoch_;
      occupied_.push_back(v);
    }
  }
}

void Walt::step(Engine& gen) {
  ++round_;
  if (lazy_ && rng::coin_flip(gen)) {
    ++lazy_skips_;
    return;  // whole configuration freezes this round
  }

  // One pass over pebbles in id order (ids are the total order). For each
  // source vertex we record how many pebbles have been processed there this
  // round and the destinations of the first two; pebble #3+ flips a fair
  // coin between those two destinations (rule 2).
  if (++epoch_ == 0) {
    stamp_.assign(stamp_.size(), 0);
    epoch_ = 1;
  }
  const std::uint32_t move_epoch = epoch_;
  for (Vertex& pos : positions_) {
    const Vertex v = pos;
    if (stamp_[v] != move_epoch) {
      stamp_[v] = move_epoch;
      arrivals_[v] = 0;
    }
    const std::uint32_t slot = arrivals_[v]++;
    if (slot == 0) {
      dest0_[v] = random_neighbor(*g_, v, gen);
      pos = dest0_[v];
    } else if (slot == 1) {
      dest1_[v] = random_neighbor(*g_, v, gen);
      pos = dest1_[v];
    } else {
      pos = rng::coin_flip(gen) ? dest0_[v] : dest1_[v];
    }
  }
  // Note on rule 1 vs rule 2: with exactly two pebbles at v the behaviour
  // of both rules coincides (each of the first two movers is independent),
  // so the single pass needs no occupancy pre-count.
  rebuild_occupied();
}

}  // namespace cobra::core
