#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

/// \file grid_drift.hpp
/// The pessimistic single-pebble coupling from the proof of Theorem 3.
///
/// The proof tracks ONE pebble of the 2-cobra walk on [0,n]^d through the
/// per-dimension distances z = (z_1, ..., z_d) to the target vertex. Each
/// round both clones of the tracked pebble pick a uniform (dimension,
/// direction) move, and the proof's selection rule keeps exactly one:
///
///   * both clones moved in the same dimension  -> keep a clone that moves
///     closer to the target if one exists;
///   * different dimensions i, j with z_i = 0, z_j != 0 -> keep the one in
///     dimension j (progress cannot be undone at 0... it can, but the rule
///     prefers the dimension that still needs work);
///   * both dimensions at 0 -> keep a uniformly random clone;
///   * both nonzero -> if one moves closer and the other farther, keep the
///     closer one; otherwise keep a random clone.
///
/// Lemma 4 asserts the resulting per-dimension drift:
///   (a) z_i != 0  =>  z_i changes next round w.p. >= 1/(2d-1);
///   (b) conditioned on z_i changing, it decreases w.p. >= 1/2 + 1/(8d-4);
///   (c) z_i  = 0  =>  z_i increases next round w.p. <= 2/(d+1).
/// Lemma 5 concludes each z_i hits 0 within O(d^2 n) rounds w.h.p.;
/// Lemma 6 that it then stays below c_d ln n. This module simulates the
/// coupling exactly (interior-of-grid move probabilities; distances capped
/// at `extent`, i.e. moving "farther" at the cap is a wall and keeps z_i),
/// exposing per-step events so the benches can verify (a)-(c) directly.

namespace cobra::core {

class GridDriftWalk {
 public:
  /// Per-step outcome for drift accounting.
  struct StepEvent {
    std::int32_t dimension = -1;  ///< which z_i changed (-1: none)
    std::int32_t delta = 0;       ///< -1, 0, +1 applied to that dimension
  };

  /// Start at distances `initial` (one per dimension), each in [0, extent].
  GridDriftWalk(std::span<const std::uint32_t> initial, std::uint32_t extent);

  /// Uniform convenience: d dimensions all starting at `distance`.
  GridDriftWalk(std::uint32_t dimensions, std::uint32_t distance,
                std::uint32_t extent);

  /// One round of the coupling; returns what changed.
  StepEvent step(Engine& gen);

  [[nodiscard]] std::uint32_t dimensions() const noexcept {
    return static_cast<std::uint32_t>(z_.size());
  }
  [[nodiscard]] std::uint32_t distance(std::uint32_t dim) const {
    return z_.at(dim);
  }
  [[nodiscard]] std::span<const std::uint32_t> distances() const noexcept {
    return z_;
  }
  [[nodiscard]] std::uint64_t total_distance() const noexcept;
  [[nodiscard]] bool at_origin() const noexcept { return total_distance() == 0; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  /// Run until every dimension is simultaneously 0 (the proof's target
  /// event) or `max_steps`; returns rounds taken.
  std::uint64_t run_to_origin(Engine& gen, std::uint64_t max_steps);

 private:
  /// A clone's proposed move: uniform dimension, uniform direction.
  struct Move {
    std::uint32_t dimension;
    bool toward;  ///< true = decreases z (direction toward the target)
  };
  [[nodiscard]] Move propose(Engine& gen) const;
  void apply(Move move);

  std::vector<std::uint32_t> z_;
  std::uint32_t extent_;
  std::uint64_t round_ = 0;
};

}  // namespace cobra::core
