#pragma once

#include <cstddef>
#include <vector>

/// \file dense.hpp
/// A small dense linear-algebra kernel for the library's *exact* baselines:
/// solving hitting-time systems (the tests' graph/exact_hitting.hpp) and
/// the exact cobra-walk chain (core/exact_cobra.hpp). Scope is
/// deliberately minimal — row-major square matrices up to a few thousand —
/// solved by partially-pivoted LU. No BLAS dependency; this runs in
/// test/bench setup paths, not simulation loops.

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

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b by LU with partial pivoting. Throws std::invalid_argument
/// on size mismatch and std::runtime_error on (numerical) singularity.
/// A is copied; O(n^3).
[[nodiscard]] std::vector<double> solve_linear(const Matrix& a,
                                               const std::vector<double>& b);

}  // namespace cobra::numeric
