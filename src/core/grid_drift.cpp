#include "core/grid_drift.hpp"

#include <numeric>
#include <stdexcept>

namespace cobra::core {

GridDriftWalk::GridDriftWalk(std::span<const std::uint32_t> initial,
                             std::uint32_t extent)
    : z_(initial.begin(), initial.end()), extent_(extent) {
  if (z_.empty()) throw std::invalid_argument("GridDriftWalk: >= 1 dimension");
  if (extent_ == 0) throw std::invalid_argument("GridDriftWalk: extent >= 1");
  for (const std::uint32_t zi : z_) {
    if (zi > extent_) {
      throw std::invalid_argument("GridDriftWalk: initial distance > extent");
    }
  }
}

GridDriftWalk::GridDriftWalk(std::uint32_t dimensions, std::uint32_t distance,
                             std::uint32_t extent)
    : GridDriftWalk(std::vector<std::uint32_t>(dimensions, distance), extent) {}

std::uint64_t GridDriftWalk::total_distance() const noexcept {
  return std::accumulate(z_.begin(), z_.end(), std::uint64_t{0});
}

GridDriftWalk::Move GridDriftWalk::propose(Engine& gen) const {
  const auto dim = static_cast<std::uint32_t>(rng::uniform_below(gen, z_.size()));
  return {dim, rng::coin_flip(gen)};
}

void GridDriftWalk::apply(Move move) {
  std::uint32_t& zi = z_[move.dimension];
  if (move.toward) {
    // At z = 0 every move in the dimension increases the distance: there
    // is no "toward" — the coordinate already matches, so any step in this
    // dimension moves away (the proof's case (c)).
    if (zi > 0) {
      --zi;
    } else if (zi < extent_) {
      ++zi;
    }
  } else {
    if (zi < extent_) ++zi;  // the grid wall absorbs outward moves at the cap
  }
}

GridDriftWalk::StepEvent GridDriftWalk::step(Engine& gen) {
  ++round_;
  const Move a = propose(gen);
  const Move b = propose(gen);

  // The proof's selection rule, clause by clause (see header).
  Move chosen = a;
  if (a.dimension == b.dimension) {
    const bool a_closer = a.toward && z_[a.dimension] > 0;
    const bool b_closer = b.toward && z_[b.dimension] > 0;
    if (b_closer && !a_closer) chosen = b;
    // (both closer / both farther / only a closer -> keep a; when both are
    // equivalent a is a uniformly random representative.)
  } else {
    const bool a_zero = z_[a.dimension] == 0;
    const bool b_zero = z_[b.dimension] == 0;
    if (a_zero && !b_zero) {
      chosen = b;
    } else if (!a_zero && b_zero) {
      chosen = a;
    } else if (a_zero && b_zero) {
      chosen = rng::coin_flip(gen) ? a : b;
    } else {
      const bool a_closer = a.toward;
      const bool b_closer = b.toward;
      if (a_closer == b_closer) {
        chosen = rng::coin_flip(gen) ? a : b;
      } else {
        chosen = a_closer ? a : b;
      }
    }
  }

  const std::uint32_t before = z_[chosen.dimension];
  apply(chosen);
  const std::uint32_t after = z_[chosen.dimension];
  StepEvent event;
  if (after != before) {
    event.dimension = static_cast<std::int32_t>(chosen.dimension);
    event.delta = after > before ? +1 : -1;
  }
  return event;
}

std::uint64_t GridDriftWalk::run_to_origin(Engine& gen, std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!at_origin() && steps < max_steps) {
    step(gen);
    ++steps;
  }
  return steps;
}

}  // namespace cobra::core
