#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

/// \file biased_walk.hpp
/// Biased random walks (§5.1). In each round, with some probability a
/// memoryless controller picks the next vertex instead of the uniform
/// choice. Two bias schedules from the paper:
///
///   * EpsilonBias       — fixed probability ε at every vertex (Azar et al.,
///                         the walks behind Theorem 13);
///   * InverseDegreeBias — probability 1/d(v) at vertex v != target, and no
///                         bias at the target (the paper's §5.1 variant that
///                         dominates the 2-cobra walk, Lemma 14: a cobra
///                         walk reaches v no later than the best
///                         inverse-degree-biased walk does).
///
/// The controller shipped here is the greedy shortest-path controller: move
/// to a neighbor one BFS hop closer to the target. It is memoryless and
/// time-independent, as §5.1 requires.

namespace cobra::core {

enum class BiasSchedule {
  EpsilonBias,
  InverseDegreeBias,
};

class BiasedWalk {
 public:
  /// A biased walk on `g` from `start` toward `target`. For EpsilonBias,
  /// `epsilon` in [0, 1] is the controller probability; InverseDegreeBias
  /// ignores it. BFS distances to `target` are computed once here (O(m)).
  BiasedWalk(const Graph& g, Vertex start, Vertex target, BiasSchedule schedule,
             double epsilon = 0.0);

  void step(Engine& gen);

  [[nodiscard]] Vertex position() const noexcept { return position_; }
  [[nodiscard]] Vertex target() const noexcept { return target_; }
  [[nodiscard]] bool at_target() const noexcept { return position_ == target_; }

  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return {&position_, 1};
  }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] BiasSchedule schedule() const noexcept { return schedule_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// Number of rounds in which the controller (not the uniform choice)
  /// decided the move.
  [[nodiscard]] std::uint64_t controlled_moves() const noexcept {
    return controlled_;
  }

 private:
  const Graph* g_;
  Vertex position_;
  Vertex target_;
  BiasSchedule schedule_;
  double epsilon_;
  std::vector<std::uint32_t> dist_to_target_;
  std::vector<Vertex> toward_target_;  ///< precomputed controller choice per vertex
  std::uint64_t round_ = 0;
  std::uint64_t controlled_ = 0;
};

}  // namespace cobra::core
