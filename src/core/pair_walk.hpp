#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "core/types.hpp"

/// \file pair_walk.hpp
/// The coupled two-pebble Walt walk of §4 / Lemma 11, simulated directly
/// on G (the digraph D(G x G) in graph/tensor_product.hpp is the same
/// process written as a matrix; tests verify the two agree). Pebble i has
/// lower order than pebble j:
///
///   * not co-located -> both move to independent uniform neighbors;
///   * co-located      -> i moves uniformly; j copies i's destination with
///                        probability 1/2, else moves uniformly itself
///                        (total probability of following i: 1/2 + 1/2d);
///   * lazy variant    -> with probability 1/2 the whole pair freezes.
///
/// Lemma 11 bounds Pr[i and j are both at v at time s] by
/// 2/(n^2+n) + 1/n^4 once s exceeds the mixing time; the bench measures
/// exactly that collision probability.

namespace cobra::core {

class PairWalk {
 public:
  /// Pebbles start at (start_i, start_j); `lazy` matches the paper's §4.
  PairWalk(const Graph& g, Vertex start_i, Vertex start_j, bool lazy = true);

  void step(Engine& gen);

  [[nodiscard]] Vertex position_i() const noexcept { return pos_i_; }
  [[nodiscard]] Vertex position_j() const noexcept { return pos_j_; }
  [[nodiscard]] bool collided() const noexcept { return pos_i_ == pos_j_; }
  [[nodiscard]] std::pair<Vertex, Vertex> positions() const noexcept {
    return {pos_i_, pos_j_};
  }

  /// Product-space id (for comparing against the D(G x G) distribution).
  [[nodiscard]] Vertex product_id() const noexcept {
    return static_cast<Vertex>(
        static_cast<std::uint64_t>(pos_i_) * g_->num_vertices() + pos_j_);
  }

  /// The walk as a single-pebble process on the PRODUCT space D(G x G) —
  /// the sim::Process view (active set = the one product-space state).
  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return {&product_, 1};
  }

  /// Product-space size n^2 (the sim::Process contract). n must stay
  /// <= 2^16 for the product id to fit a Vertex — every D(G x G)
  /// comparison in the suite runs on tiny built-ins, far below that.
  [[nodiscard]] std::uint32_t n() const noexcept {
    return g_->num_vertices() * g_->num_vertices();
  }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] bool lazy() const noexcept { return lazy_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Rounds in which j copied i's destination while co-located (the
  /// coupling events that distinguish this walk from two independent
  /// walks).
  [[nodiscard]] std::uint64_t copy_events() const noexcept { return copies_; }

 private:
  void refresh_product() noexcept { product_ = product_id(); }

  const Graph* g_;
  Vertex pos_i_;
  Vertex pos_j_;
  Vertex product_ = 0;  ///< cached product_id() — active()'s storage
  bool lazy_;
  std::uint64_t round_ = 0;
  std::uint64_t copies_ = 0;
};

}  // namespace cobra::core
