#pragma once

#include <cstddef>
#include <vector>

#include "numeric/dense.hpp"

/// \file reference.hpp
/// Dense references the tests check the library's spectral and linear
/// routines against: the cyclic Jacobi eigenvalue method for symmetric
/// matrices and the matrix helpers around it. numeric::Matrix offers
/// element access through its mutable at() only, so the helpers take
/// their matrices by value.

namespace cobra::numeric {

/// Identity matrix of order n.
[[nodiscard]] Matrix identity(std::size_t n);

/// max |A_ij - B_ij|; sizes must match (std::invalid_argument otherwise).
[[nodiscard]] double max_abs_diff(Matrix a, Matrix b);

/// True if |A_ij - A_ji| <= tolerance for all i, j.
[[nodiscard]] bool is_symmetric(Matrix a, double tolerance = 1e-12);

/// All eigenvalues of a symmetric matrix by the cyclic Jacobi method,
/// returned ascending. Throws std::invalid_argument if not symmetric.
/// O(n^3) per sweep, typically < 15 sweeps.
[[nodiscard]] std::vector<double> symmetric_eigenvalues(
    Matrix m, double tolerance = 1e-12, std::size_t max_sweeps = 64);

}  // namespace cobra::numeric
