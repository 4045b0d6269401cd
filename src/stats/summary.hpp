#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// \file summary.hpp
/// Descriptive statistics for Monte-Carlo observations. Two layers:
///   * Welford — a streaming accumulator (numerically stable one-pass mean
///     and variance) for use inside loops;
///   * Summary — a full descriptive snapshot (mean, CI, quantiles) computed
///     from a sample vector, used in every experiment table.
///
/// Confidence intervals use the normal approximation with Student-t
/// widening for small samples; experiments run >= 30 trials so this is in
/// the regime where the approximation is sound.

namespace cobra::stats {

/// Streaming mean/variance accumulator (Welford 1962).
class Welford {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Unbiased sample variance; 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Full descriptive summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;     ///< unbiased sample standard deviation
  double sem = 0.0;        ///< standard error of the mean
  double ci95_half = 0.0;  ///< half-width of the 95% CI on the mean
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;

  [[nodiscard]] double ci_lo() const noexcept { return mean - ci95_half; }
  [[nodiscard]] double ci_hi() const noexcept { return mean + ci95_half; }
};

/// Computes the summary of `sample` (copied internally for sorting).
/// An empty sample yields an all-zero summary.
[[nodiscard]] Summary summarize(std::span<const double> sample);

/// Linear-interpolation quantile of a *sorted* sample, q in [0, 1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

/// Two-sided Student-t critical value at 97.5% for `dof` degrees of freedom
/// (i.e. the multiplier for a 95% CI). Exact table for small dof, normal
/// limit 1.96 beyond.
[[nodiscard]] double t_critical_975(std::size_t dof) noexcept;

}  // namespace cobra::stats
