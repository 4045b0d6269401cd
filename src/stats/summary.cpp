#include "stats/summary.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace cobra::stats {

void Welford::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Welford::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const noexcept { return std::sqrt(variance()); }

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double t_critical_975(std::size_t dof) noexcept {
  // Standard two-sided 95% t-table; values beyond 30 dof are within 2% of
  // the normal limit, so we interpolate coarsely and then clamp to 1.96.
  static constexpr std::array<double, 31> kTable = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (dof == 0) return kTable[1];  // degenerate; be conservative
  if (dof < kTable.size()) return kTable[dof];
  if (dof < 60) return 2.00;
  if (dof < 120) return 1.98;
  return 1.96;
}

Summary summarize(std::span<const double> sample) {
  Summary s;
  if (sample.empty()) return s;

  Welford acc;
  for (const double x : sample) acc.add(x);

  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());

  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.sem = s.count > 1 ? s.stddev / std::sqrt(static_cast<double>(s.count)) : 0.0;
  s.ci95_half = s.count > 1 ? t_critical_975(s.count - 1) * s.sem : 0.0;
  s.min = sorted.front();
  s.q25 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.50);
  s.q75 = quantile_sorted(sorted, 0.75);
  s.max = sorted.back();
  return s;
}

}  // namespace cobra::stats
