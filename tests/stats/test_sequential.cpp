#include "stats/sequential.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rng/distributions.hpp"

namespace cobra::stats {
namespace {

TEST(Sequential, ConvergesOnLowVarianceTrial) {
  par::ThreadPool pool(4);
  SequentialOptions options;
  options.relative_tolerance = 0.05;
  const auto result = run_until_precise(
      pool, options, [](rng::Xoshiro256& gen, std::uint32_t) {
        return 10.0 + rng::uniform_unit(gen);  // mean 10.5, tiny spread
      });
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.summary.mean, 10.5, 0.2);
  EXPECT_LE(result.summary.ci95_half, 0.05 * result.summary.mean);
  EXPECT_EQ(result.trials_used, options.initial_trials);  // first batch enough
}

TEST(Sequential, GrowsTrialsForNoisyTrial) {
  par::ThreadPool pool(4);
  SequentialOptions options;
  options.initial_trials = 8;
  options.batch_size = 8;
  options.relative_tolerance = 0.02;
  const auto result = run_until_precise(
      pool, options, [](rng::Xoshiro256& gen, std::uint32_t) {
        return rng::uniform_unit(gen) * 100.0;  // very noisy
      });
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.trials_used, 100u);  // needed many batches
  EXPECT_NEAR(result.summary.mean, 50.0, 3.0);
}

TEST(Sequential, RespectsMaxTrials) {
  par::ThreadPool pool(2);
  SequentialOptions options;
  options.initial_trials = 4;
  options.batch_size = 4;
  options.max_trials = 64;
  options.relative_tolerance = 1e-9;  // unreachable
  const auto result = run_until_precise(
      pool, options,
      [](rng::Xoshiro256& gen, std::uint32_t) { return rng::uniform_unit(gen); });
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.trials_used, 64u);
}

TEST(Sequential, AbsoluteToleranceStopsEarly) {
  par::ThreadPool pool(2);
  SequentialOptions options;
  options.absolute_tolerance = 50.0;  // generous absolute criterion
  options.relative_tolerance = 1e-9;  // relative alone would never stop
  options.max_trials = 256;
  const auto result = run_until_precise(
      pool, options, [](rng::Xoshiro256& gen, std::uint32_t) {
        return rng::uniform_unit(gen) * 10.0;
      });
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.summary.ci95_half, 50.0);
}

TEST(Sequential, DeterministicAcrossBatchSizes) {
  // The i-th trial's seed does not depend on batching, so the same
  // max_trials with an unreachable tolerance yields the same sample mean
  // regardless of batch size.
  par::ThreadPool pool(4);
  SequentialOptions small_batches, one_batch;
  small_batches.initial_trials = 4;
  small_batches.batch_size = 4;
  small_batches.max_trials = 64;
  small_batches.relative_tolerance = 1e-12;
  one_batch = small_batches;
  one_batch.initial_trials = 64;
  auto trial = [](rng::Xoshiro256& gen, std::uint32_t) {
    return rng::uniform_unit(gen);
  };
  const auto a = run_until_precise(pool, small_batches, trial);
  const auto b = run_until_precise(pool, one_batch, trial);
  EXPECT_EQ(a.trials_used, b.trials_used);
  EXPECT_DOUBLE_EQ(a.summary.mean, b.summary.mean);
}

TEST(Sequential, ReturnsItsSampleInTrialOrder) {
  // The samples behind the summary come back with it, equal to a serial
  // Monte-Carlo run of the same trials under the same seeds.
  par::ThreadPool pool(4);
  SequentialOptions options;
  options.base_seed = 77;
  options.initial_trials = 8;
  options.batch_size = 8;
  options.relative_tolerance = 0.1;
  auto trial = [](rng::Xoshiro256& gen, std::uint32_t) {
    return rng::uniform_unit(gen) * 100.0;
  };
  const auto result = run_until_precise(pool, options, trial);
  ASSERT_GT(result.trials_used, options.initial_trials);  // several batches
  ASSERT_EQ(result.samples.size(), result.trials_used);
  par::MonteCarloOptions serial;
  serial.base_seed = options.base_seed;
  serial.trials = result.trials_used;
  EXPECT_EQ(result.samples, par::run_trials_serial(serial, trial));
  EXPECT_DOUBLE_EQ(result.summary.mean, summarize(result.samples).mean);
}

TEST(Sequential, TrialIndexPassedThrough) {
  par::ThreadPool pool(2);
  SequentialOptions options;
  options.initial_trials = 16;
  options.relative_tolerance = 10.0;  // immediately precise
  std::vector<int> seen(16, 0);
  std::mutex m;
  const auto result = run_until_precise(
      pool, options, [&](rng::Xoshiro256&, std::uint32_t index) {
        const std::lock_guard lock(m);
        if (index < seen.size()) seen[index] = 1;
        return 1.0;
      });
  EXPECT_TRUE(result.converged);
  for (const int s : seen) EXPECT_EQ(s, 1);
}

}  // namespace
}  // namespace cobra::stats
