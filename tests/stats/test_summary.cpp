#include "stats/summary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::stats {
namespace {

TEST(Welford, MeanAndVarianceExact) {
  Welford acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1: sum of squared deviations = 32, 32/7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(Welford, SingleValue) {
  Welford acc;
  acc.add(3.5);
  EXPECT_EQ(acc.mean(), 3.5);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.min(), 3.5);
  EXPECT_EQ(acc.max(), 3.5);
}

TEST(Welford, NumericallyStableForLargeOffset) {
  // Classic catastrophic-cancellation case: tiny variance on huge mean.
  Welford acc;
  const double base = 1e12;
  for (int i = 0; i < 1000; ++i) acc.add(base + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(acc.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

TEST(QuantileSorted, Interpolates) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0 / 3.0), 2.0);
}

TEST(QuantileSorted, EdgeCases) {
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_EQ(quantile_sorted(one, 0.3), 7.0);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(two, 0.5), 2.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(quantile_sorted(two, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(two, 2.0), 3.0);
}

TEST(TCritical, KnownValues) {
  EXPECT_NEAR(t_critical_975(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_975(10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical_975(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_975(1000), 1.96, 1e-3);
}

TEST(TCritical, MonotoneDecreasing) {
  for (std::size_t dof = 1; dof < 200; ++dof) {
    EXPECT_GE(t_critical_975(dof), t_critical_975(dof + 1) - 1e-9) << dof;
  }
}

TEST(Summarize, FullSnapshot) {
  const std::vector<double> sample{1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(sample);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.sem, std::sqrt(2.5 / 5.0), 1e-12);
  EXPECT_NEAR(s.ci95_half, t_critical_975(4) * s.sem, 1e-12);
  EXPECT_LT(s.ci_lo(), s.mean);
  EXPECT_GT(s.ci_hi(), s.mean);
}

TEST(Summarize, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, CoversTrueMeanMostOfTheTime) {
  // With a 95% CI and 100 repetitions, expect ~95 covers; demand >= 85.
  rng::Xoshiro256 gen(9);
  int covers = 0;
  for (int rep = 0; rep < 100; ++rep) {
    std::vector<double> sample(50);
    for (double& x : sample) x = rng::uniform_unit(gen);  // true mean 0.5
    const Summary s = summarize(sample);
    if (s.ci_lo() <= 0.5 && 0.5 <= s.ci_hi()) ++covers;
  }
  EXPECT_GE(covers, 85);
}

}  // namespace
}  // namespace cobra::stats
