#include "stats/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::stats {
namespace {

TEST(FitLinear, ExactLine) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(2.5 * x - 1.0);
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict(10.0), 24.0, 1e-12);
}

TEST(FitLinear, NoisyLineRecovered) {
  rng::Xoshiro256 gen(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>(i) / 10.0;
    xs.push_back(x);
    ys.push_back(3.0 * x + 7.0 + (rng::uniform_unit(gen) - 0.5));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.02);
  EXPECT_NEAR(fit.intercept, 7.0, 0.3);
  EXPECT_GT(fit.r_squared, 0.99);
  EXPECT_LT(fit.slope_stderr, 0.01);
}

TEST(FitLinear, DegenerateInputs) {
  EXPECT_EQ(fit_linear({}, {}).count, 0u);
  const std::vector<double> one{1.0};
  EXPECT_EQ(fit_linear(one, one).count, 0u);
  // Zero x-variance.
  const std::vector<double> xs{2.0, 2.0, 2.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_EQ(fit.count, 0u);
  EXPECT_EQ(fit.slope, 0.0);
}

TEST(FitLinear, PerfectlyFlat) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{4.0, 4.0, 4.0};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
  // syy == 0: define R^2 = 1 (model explains all zero variance).
  EXPECT_EQ(fit.r_squared, 1.0);
}

TEST(FitPowerLaw, ExactPower) {
  std::vector<double> xs, ys;
  for (const double x : {8.0, 16.0, 32.0, 64.0, 128.0}) {
    xs.push_back(x);
    ys.push_back(5.0 * std::pow(x, 1.5));
  }
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-10);
  EXPECT_NEAR(fit.prefactor, 5.0, 1e-8);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitPowerLaw, LinearGrowthHasExponentOne) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i * 100.0);
    ys.push_back(i * 100.0 * 7.0);
  }
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.0, 1e-10);
}

TEST(FitPowerLaw, SkipsNonPositive) {
  const std::vector<double> xs{-1.0, 0.0, 2.0, 4.0, 8.0};
  const std::vector<double> ys{5.0, 5.0, 4.0, 8.0, 16.0};
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_EQ(fit.count, 3u);
  EXPECT_NEAR(fit.exponent, 1.0, 1e-10);
}

TEST(FitPowerLaw, NoisyExponentRecovered) {
  rng::Xoshiro256 gen(4);
  std::vector<double> xs, ys;
  for (int i = 4; i <= 12; ++i) {
    const double x = std::pow(2.0, i);
    // multiplicative noise +-10%
    const double noise = 1.0 + (rng::uniform_unit(gen) - 0.5) * 0.2;
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 2.0) * noise);
  }
  const PowerLawFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 2.0, 0.05);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitPolylog, RecoversLogSquared) {
  std::vector<double> xs, ys;
  for (const double x : {1e2, 1e3, 1e4, 1e5, 1e6}) {
    xs.push_back(x);
    const double lx = std::log(x);
    ys.push_back(4.0 * lx * lx);
  }
  const PowerLawFit fit = fit_polylog(xs, ys);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.prefactor, 4.0, 1e-6);
}

TEST(FitPolylog, SkipsXBelowE) {
  const std::vector<double> xs{0.5, 1.0, 10.0, 100.0, 1000.0};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(std::log(std::max(x, 1.1)));
  const PowerLawFit fit = fit_polylog(xs, ys);
  EXPECT_EQ(fit.count, 3u);
  EXPECT_NEAR(fit.exponent, 1.0, 1e-9);
}

}  // namespace
}  // namespace cobra::stats
