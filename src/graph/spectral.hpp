#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file spectral.hpp
/// Spectral machinery for Theorem 8's conductance bound. The experiment
/// needs a *measured* conductance Φ_G for each graph; exact conductance is
/// NP-hard, so the library provides the standard sandwich:
///
///   λ/2  <=  Φ_G  <=  sqrt(2 λ)          (discrete Cheeger inequality)
///
/// where λ is the spectral gap of the lazy random-walk matrix, computed by
/// power iteration with deflation against the stationary vector. Two
/// complementary estimators tighten the upper side:
///   * `sweep_cut_conductance` — the conductance of the best sweep cut of
///     the approximate Fiedler vector (a genuine cut, hence a true upper
///     bound on Φ_G);
///   * brute force over all subsets for n <= 24 calibrates the estimators
///     in the tests (tests/support's exact_conductance_small).
///
/// Conventions: conductance of S is |∂S| / vol(S) with vol(S) ≤ vol(V)/2,
/// exactly as the paper's §2 defines it.

namespace cobra::graph {

/// Result of the power-iteration eigensolve on the lazy walk matrix
/// W = (I + D^{-1} A) / 2.
struct SpectralResult {
  double lambda2 = 0.0;       ///< second-largest eigenvalue of lazy W
  double spectral_gap = 0.0;  ///< 1 - lambda2  (of the lazy walk)
  std::vector<double> fiedler;  ///< approximate second eigenvector
  std::uint32_t iterations = 0;
  bool converged = false;
};

/// Power iteration with deflation against the stationary distribution
/// (pi_v proportional to deg(v)). Tolerance is on the eigenvalue estimate's
/// successive change. The graph must be connected and non-empty.
[[nodiscard]] SpectralResult lazy_walk_spectrum(const Graph& g,
                                                std::uint32_t max_iterations = 50000,
                                                double tolerance = 1e-10);

/// Cheeger-interval estimate of the conductance, plus a sweep-cut upper
/// bound (a true cut, so ub is always attainable).
struct ConductanceEstimate {
  double cheeger_lower = 0.0;  ///< gap / 2   <= Phi
  double cheeger_upper = 0.0;  ///< sqrt(2 gap) >= Phi
  double sweep_cut_upper = 0.0;  ///< Phi <= conductance of best sweep cut
  double spectral_gap = 0.0;

  /// The working point estimate used in experiment ratios: the sweep-cut
  /// value (an actual cut's conductance, the standard practice).
  [[nodiscard]] double point() const noexcept { return sweep_cut_upper; }
};

[[nodiscard]] ConductanceEstimate estimate_conductance(const Graph& g);

/// Conductance of the best sweep cut of `vector` (sorted by value, all n-1
/// prefixes tried). Requires a connected graph with >= 2 vertices.
[[nodiscard]] double sweep_cut_conductance(const Graph& g,
                                           const std::vector<double>& vector);

}  // namespace cobra::graph
