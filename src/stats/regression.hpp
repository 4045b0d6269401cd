#pragma once

#include <cstddef>
#include <span>

/// \file regression.hpp
/// Least-squares fits used to turn cover-time sweeps into growth exponents.
/// The central tool of the experiment suite is `fit_power_law`: given
/// (n, T(n)) pairs it fits T = a * n^c by ordinary least squares in log-log
/// space and reports the exponent c with its standard error and R^2. Every
/// theorem of the paper is checked by comparing a fitted exponent (or a
/// fitted ratio) against the theorem's predicted exponent.

namespace cobra::stats {

/// Result of a simple linear regression y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  double slope_stderr = 0.0;  ///< standard error of the slope estimate
  std::size_t count = 0;

  [[nodiscard]] double predict(double x) const noexcept {
    return intercept + slope * x;
  }
};

/// Ordinary least squares over (x[i], y[i]). Requires xs.size() == ys.size().
/// Fewer than two points, or zero x-variance, yields a zero fit with
/// r_squared = 0.
[[nodiscard]] LinearFit fit_linear(std::span<const double> xs,
                                   std::span<const double> ys);

/// Power-law fit y = a * x^c via log-log OLS. All inputs must be positive;
/// nonpositive pairs are skipped. `exponent` is c, `prefactor` is a.
struct PowerLawFit {
  double exponent = 0.0;
  double prefactor = 0.0;
  double r_squared = 0.0;
  double exponent_stderr = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] PowerLawFit fit_power_law(std::span<const double> xs,
                                        std::span<const double> ys);

/// Fit y = a * (log x)^c — used for the polylogarithmic cover-time claims
/// (Cor 9: expanders cover in O(log^2 n)). Implemented as a power-law fit
/// in the transformed variable log(x). Points with x <= 1 are skipped.
[[nodiscard]] PowerLawFit fit_polylog(std::span<const double> xs,
                                      std::span<const double> ys);

}  // namespace cobra::stats
