#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

/// \file random_walk.hpp
/// The simple (optionally lazy) random walk — the baseline every theorem is
/// stated against. Feige's bounds put its cover time between Θ(n log n) and
/// Θ(n^3); the benches reproduce both endpoints (complete graph, lollipop).
///
/// Several walkers run in lockstep when constructed from a start list:
/// that is the "k parallel random walks" baseline of Alon et al. (SPAA'08)
/// that §1.2 contrasts with cobra walks. The walker count is a fixed
/// parameter, whereas a cobra walk's active-set size is a random process,
/// and walkers pass through each other freely (no coalescing).

namespace cobra::core {

class RandomWalk {
 public:
  /// A walk on `g` from `start`. `laziness` is the probability of staying
  /// put in a round (0 = standard walk, 0.5 = the usual lazy walk).
  RandomWalk(const Graph& g, Vertex start, double laziness = 0.0);

  /// One independent walker per entry of `starts` (repeats allowed).
  RandomWalk(const Graph& g, std::span<const Vertex> starts,
             double laziness = 0.0);

  /// Moves each walker in list order; a single walker draws exactly what
  /// the one-walker walk draws.
  void step(Engine& gen);

  /// Walker 0's position.
  [[nodiscard]] Vertex position() const noexcept { return positions_[0]; }

  /// Positions of all walkers, in start-list order — may contain
  /// duplicates; the cover engine tolerates that (absorbing a vertex twice
  /// is a no-op).
  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return positions_;
  }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] double laziness() const noexcept { return laziness_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

 private:
  const Graph* g_;
  std::vector<Vertex> positions_;
  double laziness_;
  std::uint64_t round_ = 0;
};

}  // namespace cobra::core
