#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

/// \file exact_cobra.hpp
/// EXACT expected cover and hitting times of the k-cobra walk on small
/// graphs, by solving the walk's subset Markov chain. This is the
/// library's ground truth for the cobra process itself (the analogue of
/// the tests' graph/exact_hitting.hpp for the plain walk): Monte-Carlo
/// estimators are validated against it in tests, and theorem checks at
/// tiny n can be made exact instead of statistical.
///
/// Method. The active set S_t is a Markov chain on nonempty vertex
/// subsets. For hitting times we solve the single linear system
///
///   T(A) = 0 if target in A;  T(A) = 1 + sum_B P(B | A) T(B)
///
/// over all 2^n - 1 active sets. For cover times the state is (A, C) with
/// C the covered-so-far set and A subseteq C; transitions with C' = C stay
/// inside a layer (one linear system per C, of size 2^|C| - 1) and
/// transitions with C' superset C feed on already-solved larger layers, so
/// layers are processed in decreasing |C|.
///
/// Complexity: hitting O(8^n) worst case (dense LU on 2^n), cover
/// sum_C (2^|C|)^3 = O(9^n)-ish. Practical limits enforced: n <= 10 for
/// hitting, n <= 8 for cover. Branching k in {1, 2} (k = 1 reproduces the
/// simple random walk exactly, which tests cross-check against
/// exact_rw_hitting_times).

namespace cobra::core {

class ExactCobra {
 public:
  /// Precomputes the per-active-set transition distributions.
  /// Requires connected g, min degree >= 1, n <= 10, branching in {1, 2}.
  ExactCobra(const Graph& g, std::uint32_t branching);

  /// Exact E[hitting time of `target`] for the walk started at `start`.
  [[nodiscard]] double expected_hitting_time(Vertex start, Vertex target) const;

  /// Exact E[cover time] started at `start`. Requires n <= 8.
  [[nodiscard]] double expected_cover_time(Vertex start) const;

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }
  [[nodiscard]] std::uint32_t branching() const noexcept { return k_; }

 private:
  const Graph* g_;
  std::uint32_t k_;
  std::uint32_t n_;
  /// trans_[A][B] = P(B | A); rows for every nonempty A.
  std::vector<std::vector<double>> trans_;
};

}  // namespace cobra::core
