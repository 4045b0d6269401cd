#pragma once

#include <cstddef>
#include <vector>

/// \file dense.hpp
/// A small dense linear-algebra kernel for the library's *exact* baselines:
/// solving hitting-time systems (graph/exact_hitting.hpp) and the exact
/// cobra-walk chain (core/exact_cobra.hpp). Scope is
/// deliberately minimal — row-major square matrices up to a few thousand —
/// with numerically standard algorithms: partially-pivoted LU and the
/// cyclic Jacobi eigenvalue method for symmetric matrices. No BLAS
/// dependency; these run in test/bench setup paths, not simulation loops.

namespace cobra::numeric {

/// Row-major square matrix.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n, double fill = 0.0)
      : n_(n), data_(n * n, fill) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double& at(std::size_t row, std::size_t col) {
    return data_[row * n_ + col];
  }
  [[nodiscard]] double at(std::size_t row, std::size_t col) const {
    return data_[row * n_ + col];
  }
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

  /// Identity matrix of order n.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// max |A_ij - B_ij| (used by tests); sizes must match.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  /// True if |A_ij - A_ji| <= tolerance for all i, j.
  [[nodiscard]] bool is_symmetric(double tolerance = 1e-12) const;

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b by LU with partial pivoting. Throws std::invalid_argument
/// on size mismatch and std::runtime_error on (numerical) singularity.
/// A is copied; O(n^3).
[[nodiscard]] std::vector<double> solve_linear(const Matrix& a,
                                               const std::vector<double>& b);

/// All eigenvalues of a symmetric matrix by the cyclic Jacobi method,
/// returned ascending. Throws std::invalid_argument if not symmetric.
/// O(n^3) per sweep, typically < 15 sweeps.
[[nodiscard]] std::vector<double> symmetric_eigenvalues(
    const Matrix& a, double tolerance = 1e-12, std::size_t max_sweeps = 64);

}  // namespace cobra::numeric
