#include "numeric/dense.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cobra::numeric {

std::vector<double> solve_linear(const Matrix& a, const std::vector<double>& b) {
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("solve_linear: size mismatch");

  // Working copies: augmented LU with partial pivoting.
  Matrix lu = a;
  std::vector<double> x = b;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot: largest magnitude in the column at or below the diagonal.
    std::size_t pivot = col;
    double best = std::abs(lu.at(col, col));
    for (std::size_t row = col + 1; row < n; ++row) {
      const double candidate = std::abs(lu.at(row, col));
      if (candidate > best) {
        best = candidate;
        pivot = row;
      }
    }
    if (best < 1e-14) throw std::runtime_error("solve_linear: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(lu.at(col, j), lu.at(pivot, j));
      }
      std::swap(x[col], x[pivot]);
    }
    // Eliminate below.
    const double diag = lu.at(col, col);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = lu.at(row, col) / diag;
      if (factor == 0.0) continue;
      lu.at(row, col) = 0.0;
      for (std::size_t j = col + 1; j < n; ++j) {
        lu.at(row, j) -= factor * lu.at(col, j);
      }
      x[row] -= factor * x[col];
    }
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    double acc = x[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= lu.at(i, j) * x[j];
    x[i] = acc / lu.at(i, i);
  }
  return x;
}

}  // namespace cobra::numeric
