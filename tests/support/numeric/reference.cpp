#include "numeric/reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cobra::numeric {

Matrix identity(std::size_t n) {
  Matrix m(n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

double max_abs_diff(Matrix a, Matrix b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("max_abs_diff: size mismatch");
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a.size(); ++j) {
      worst = std::max(worst, std::abs(a.at(i, j) - b.at(i, j)));
    }
  }
  return worst;
}

bool is_symmetric(Matrix a, double tolerance) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      if (std::abs(a.at(i, j) - a.at(j, i)) > tolerance) return false;
    }
  }
  return true;
}

std::vector<double> symmetric_eigenvalues(Matrix m, double tolerance,
                                          std::size_t max_sweeps) {
  if (!is_symmetric(m, 1e-9)) {
    throw std::invalid_argument("symmetric_eigenvalues: matrix not symmetric");
  }
  const std::size_t n = m.size();

  auto off_diagonal_norm = [&] {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        total += m.at(i, j) * m.at(i, j);
      }
    }
    return std::sqrt(total);
  };

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() < tolerance) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m.at(p, q);
        if (std::abs(apq) < tolerance / (static_cast<double>(n) * static_cast<double>(n))) continue;
        const double app = m.at(p, p);
        const double aqq = m.at(q, q);
        // Jacobi rotation annihilating (p, q).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m.at(k, p);
          const double mkq = m.at(k, q);
          m.at(k, p) = c * mkp - s * mkq;
          m.at(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m.at(p, k);
          const double mqk = m.at(q, k);
          m.at(p, k) = c * mpk - s * mqk;
          m.at(q, k) = s * mpk + c * mqk;
        }
      }
    }
  }

  std::vector<double> eigenvalues(n);
  for (std::size_t i = 0; i < n; ++i) eigenvalues[i] = m.at(i, i);
  std::sort(eigenvalues.begin(), eigenvalues.end());
  return eigenvalues;
}

}  // namespace cobra::numeric
