#include "stats/regression.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

namespace cobra::stats {

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;

  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);

  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;

  fit.count = n;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;

  double ss_res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = ys[i] - fit.predict(xs[i]);
    ss_res += r * r;
  }
  fit.r_squared = syy > 0.0 ? 1.0 - ss_res / syy : 1.0;
  if (n > 2) {
    const double mse = ss_res / static_cast<double>(n - 2);
    fit.slope_stderr = std::sqrt(mse / sxx);
  }
  return fit;
}

PowerLawFit fit_power_law(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> lx, ly;
  const std::size_t n = std::min(xs.size(), ys.size());
  lx.reserve(n);
  ly.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] > 0.0 && ys[i] > 0.0) {
      lx.push_back(std::log(xs[i]));
      ly.push_back(std::log(ys[i]));
    }
  }
  const LinearFit lin = fit_linear(lx, ly);
  PowerLawFit fit;
  fit.exponent = lin.slope;
  fit.prefactor = std::exp(lin.intercept);
  fit.r_squared = lin.r_squared;
  fit.exponent_stderr = lin.slope_stderr;
  fit.count = lin.count;
  return fit;
}

PowerLawFit fit_polylog(std::span<const double> xs, std::span<const double> ys) {
  std::vector<double> logx;
  std::vector<double> yy;
  const std::size_t n = std::min(xs.size(), ys.size());
  logx.reserve(n);
  yy.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (xs[i] > 1.0) {
      logx.push_back(std::log(xs[i]));
      yy.push_back(ys[i]);
    }
  }
  return fit_power_law(logx, yy);
}

}  // namespace cobra::stats
