#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

/// \file walt.hpp
/// The "Walt" process of §4 — the analyzable surrogate whose cover time
/// stochastically dominates the 2-cobra walk's (Lemma 10). A fixed
/// population of totally-ordered pebbles moves per these rules each round:
///
///   1. If one or two pebbles occupy a vertex, each independently moves to
///      a uniformly random neighbor.
///   2. If three or more pebbles occupy a vertex, the two LOWEST-order
///      pebbles each pick an independent uniform neighbor (destinations u
///      and w, possibly equal); every remaining pebble at the vertex moves
///      to u or w with probability 1/2 each.
///
/// Optionally the process is lazy: with probability 1/2 the entire
/// configuration freezes for the round (the paper adds this for the
/// spectral analysis of the tensor-product walk).
///
/// The implementation processes pebbles in id order (ids ARE the total
/// order), using per-round stamped per-vertex slots to find each vertex's
/// first two movers without sorting.

namespace cobra::core {

class Walt {
 public:
  /// `pebbles` pebbles all starting at `start`. The paper takes
  /// pebbles = δn, δ <= 1/2 (Theorem 8 starts them at one vertex).
  Walt(const Graph& g, Vertex start, std::uint32_t pebbles, bool lazy = true);

  /// Pebbles at explicit starting positions; pebble i starts at starts[i]
  /// and has order rank i.
  Walt(const Graph& g, std::span<const Vertex> starts, bool lazy = true);

  void step(Engine& gen);

  /// Distinct occupied vertices this round (unordered).
  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return occupied_;
  }

  /// Position of every pebble, indexed by pebble id (= order rank).
  [[nodiscard]] std::span<const Vertex> pebbles() const noexcept {
    return positions_;
  }

  [[nodiscard]] std::uint32_t pebble_count() const noexcept {
    return static_cast<std::uint32_t>(positions_.size());
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] bool lazy() const noexcept { return lazy_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// Number of rounds skipped by laziness since construction.
  [[nodiscard]] std::uint64_t lazy_skips() const noexcept { return lazy_skips_; }

 private:
  void rebuild_occupied();

  const Graph* g_;
  bool lazy_;
  std::vector<Vertex> positions_;   ///< pebble id -> vertex
  std::vector<Vertex> occupied_;    ///< distinct occupied vertices
  // Per-round scratch, stamped by epoch to avoid O(n) clears:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> arrivals_;  ///< pebbles seen at v this round
  std::vector<Vertex> dest0_;            ///< first mover's destination
  std::vector<Vertex> dest1_;            ///< second mover's destination
  std::uint32_t epoch_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t lazy_skips_ = 0;
};

}  // namespace cobra::core
