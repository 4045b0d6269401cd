#include "stats/sequential.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "rng/splitmix64.hpp"

namespace cobra::stats {

SequentialResult run_until_precise(
    par::ThreadPool& pool, const SequentialOptions& options,
    const std::function<double(cobra::rng::Xoshiro256&, std::uint32_t)>& trial) {
  SequentialResult result;
  std::vector<double>& samples = result.samples;
  samples.reserve(options.initial_trials);

  auto extend_to = [&](std::uint32_t target) {
    const auto begin = static_cast<std::uint32_t>(samples.size());
    samples.resize(target, 0.0);
    par::parallel_for_dynamic(pool, begin, target, [&](std::size_t i) {
      rng::Xoshiro256 engine(rng::derive_seed(options.base_seed, i));
      samples[i] = trial(engine, static_cast<std::uint32_t>(i));
    });
  };

  auto precise_enough = [&](const Summary& s) {
    if (s.count < 2) return false;
    if (options.absolute_tolerance > 0.0 &&
        s.ci95_half <= options.absolute_tolerance) {
      return true;
    }
    return s.ci95_half <= options.relative_tolerance * std::abs(s.mean);
  };

  std::uint32_t target = std::max(2u, options.initial_trials);
  for (;;) {
    target = std::min(target, options.max_trials);
    extend_to(target);
    result.summary = summarize(samples);
    result.trials_used = static_cast<std::uint32_t>(samples.size());
    if (precise_enough(result.summary)) {
      result.converged = true;
      return result;
    }
    if (result.trials_used >= options.max_trials) {
      result.converged = false;
      return result;
    }
    target = result.trials_used + std::max(1u, options.batch_size);
  }
}

}  // namespace cobra::stats
