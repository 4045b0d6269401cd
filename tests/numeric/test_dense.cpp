#include "numeric/dense.hpp"
#include "numeric/reference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::numeric {
namespace {

TEST(Matrix, Basics) {
  Matrix m(3);
  m.at(0, 1) = 5.0;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(0, 1), 5.0);
  EXPECT_EQ(m.at(1, 0), 0.0);
  Matrix id = identity(3);
  EXPECT_EQ(id.at(2, 2), 1.0);
  EXPECT_EQ(id.at(0, 2), 0.0);
  EXPECT_TRUE(is_symmetric(id));
  EXPECT_FALSE(is_symmetric(m));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2), b(2);
  a.at(0, 0) = 1.0;
  b.at(0, 0) = 1.5;
  b.at(1, 1) = -0.2;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_THROW((void)max_abs_diff(a, Matrix(3)), std::invalid_argument);
}

TEST(SolveLinear, HandSolvable) {
  // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3.
  Matrix a(2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 3;
  const auto x = solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, IdentityIsNoop) {
  const auto x = solve_linear(identity(4), {1, 2, 3, 4});
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(x[i], static_cast<double>(i) + 1.0, 1e-14);
}

TEST(SolveLinear, RequiresPivoting) {
  // Zero diagonal leading entry: naive elimination would divide by zero.
  Matrix a(2);
  a.at(0, 0) = 0;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 0;
  const auto x = solve_linear(a, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, SingularThrows) {
  Matrix a(2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  EXPECT_THROW(solve_linear(a, {1.0, 2.0}), std::runtime_error);
}

TEST(SolveLinear, SizeMismatchThrows) {
  EXPECT_THROW(solve_linear(Matrix(2), {1.0}), std::invalid_argument);
}

TEST(SolveLinear, RandomSystemResidual) {
  rng::Xoshiro256 gen(1);
  constexpr std::size_t kN = 60;
  Matrix a(kN);
  std::vector<double> b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    b[i] = rng::uniform_unit(gen) * 10 - 5;
    for (std::size_t j = 0; j < kN; ++j) {
      a.at(i, j) = rng::uniform_unit(gen) * 2 - 1;
    }
    a.at(i, i) += kN;  // diagonally dominant: well-conditioned
  }
  const auto x = solve_linear(a, b);
  for (std::size_t i = 0; i < kN; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < kN; ++j) acc += a.at(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(SymmetricEigenvalues, DiagonalMatrix) {
  Matrix a(3);
  a.at(0, 0) = 3;
  a.at(1, 1) = -1;
  a.at(2, 2) = 2;
  const auto ev = symmetric_eigenvalues(a);
  EXPECT_NEAR(ev[0], -1.0, 1e-12);
  EXPECT_NEAR(ev[1], 2.0, 1e-12);
  EXPECT_NEAR(ev[2], 3.0, 1e-12);
}

TEST(SymmetricEigenvalues, TwoByTwoClosedForm) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  Matrix a(2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 1;
  a.at(1, 0) = 1;
  a.at(1, 1) = 2;
  const auto ev = symmetric_eigenvalues(a);
  EXPECT_NEAR(ev[0], 1.0, 1e-10);
  EXPECT_NEAR(ev[1], 3.0, 1e-10);
}

TEST(SymmetricEigenvalues, PathLaplacianClosedForm) {
  // Laplacian of the path graph P_n has eigenvalues 2 - 2 cos(pi k / n)...
  // use the standard tridiagonal free-boundary form: 4 sin^2(pi k / (2n)).
  constexpr std::size_t kN = 8;
  Matrix l(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double degree = (i == 0 || i == kN - 1) ? 1.0 : 2.0;
    l.at(i, i) = degree;
    if (i + 1 < kN) {
      l.at(i, i + 1) = -1.0;
      l.at(i + 1, i) = -1.0;
    }
  }
  const auto ev = symmetric_eigenvalues(l);
  for (std::size_t k = 0; k < kN; ++k) {
    const double expected =
        4.0 * std::pow(std::sin(std::numbers::pi * static_cast<double>(k) /
                                (2.0 * kN)),
                       2.0);
    EXPECT_NEAR(ev[k], expected, 1e-9) << "k=" << k;
  }
}

TEST(SymmetricEigenvalues, TraceAndRankPreserved) {
  rng::Xoshiro256 gen(2);
  constexpr std::size_t kN = 20;
  Matrix a(kN);
  double trace = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = i; j < kN; ++j) {
      const double value = rng::uniform_unit(gen) * 2 - 1;
      a.at(i, j) = value;
      a.at(j, i) = value;
    }
    trace += a.at(i, i);
  }
  const auto ev = symmetric_eigenvalues(a);
  double ev_sum = 0.0;
  for (const double e : ev) ev_sum += e;
  EXPECT_NEAR(ev_sum, trace, 1e-8);
}

TEST(SymmetricEigenvalues, RejectsAsymmetric) {
  Matrix a(2);
  a.at(0, 1) = 1.0;
  EXPECT_THROW(symmetric_eigenvalues(a), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::numeric
