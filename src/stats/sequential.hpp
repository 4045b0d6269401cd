#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "parallel/monte_carlo.hpp"
#include "stats/summary.hpp"

/// \file sequential.hpp
/// Adaptive trial counts: run Monte-Carlo batches until the 95% CI
/// half-width drops below a relative tolerance of the mean (or an
/// absolute floor), then stop. The fixed-trial benches in bench/ choose
/// counts by hand; this runner is the production-quality alternative for
/// users who want "estimate the cover time to ±2%" without tuning —
/// and it keeps the determinism contract (trial i is seeded by
/// derive_seed(base_seed, i) regardless of batching).

namespace cobra::stats {

struct SequentialOptions {
  std::uint64_t base_seed = 0xC0BA5EEDULL;
  std::uint32_t initial_trials = 32;   ///< first batch (also the minimum)
  std::uint32_t batch_size = 32;       ///< growth per round
  std::uint32_t max_trials = 100000;   ///< hard cap
  double relative_tolerance = 0.05;    ///< stop when ci95_half <= rel * |mean|
  double absolute_tolerance = 0.0;     ///< ... or ci95_half <= abs
};

struct SequentialResult {
  Summary summary;
  std::uint32_t trials_used = 0;
  bool converged = false;  ///< false = hit max_trials first
  /// Every trial's value in index order (size trials_used): samples[i] is
  /// the trial seeded derive_seed(base_seed, i).
  std::vector<double> samples;
};

/// Runs trial(engine, index) in growing batches on `pool` until the CI
/// criterion is met. The full sample (all batches) feeds the final summary
/// and is returned with it.
SequentialResult run_until_precise(
    par::ThreadPool& pool, const SequentialOptions& options,
    const std::function<double(cobra::rng::Xoshiro256&, std::uint32_t)>& trial);

}  // namespace cobra::stats
