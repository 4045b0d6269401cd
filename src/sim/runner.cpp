#include "sim/runner.hpp"

#include <limits>

#include "core/cobra_walk.hpp"
#include "parallel/monte_carlo.hpp"

namespace cobra::sim {

std::uint64_t default_step_budget(std::uint32_t num_vertices) {
  constexpr std::uint64_t kFloor = std::uint64_t{1} << 20;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto n = static_cast<std::uint64_t>(num_vertices);
  // 32 n^3 wraps past n ~ 8.3e5; n^2 alone never does for a 32-bit n.
  if (n != 0 && n * n > kMax / (32 * n)) return kMax;
  const std::uint64_t cubic = 32 * n * n * n;
  return cubic < kFloor ? kFloor : cubic;
}

stats::Summary replicate(std::uint32_t trials, std::uint64_t seed,
                         const std::function<double(core::Engine&)>& trial) {
  par::MonteCarloOptions opts;
  opts.base_seed = seed;
  opts.trials = trials;
  const auto samples = par::run_trials(
      par::global_pool(), opts,
      [&](core::Engine& gen, std::uint32_t) { return trial(gen); });
  return stats::summarize(samples);
}

HmaxEstimate estimate_cobra_hmax(const core::Graph& g, std::uint32_t branching,
                                 core::Engine& gen, std::uint64_t pair_samples,
                                 std::uint32_t trials_per_pair) {
  const std::uint32_t n = g.num_vertices();
  HmaxEstimate est;

  auto consider_pair = [&](core::Vertex u, core::Vertex v) {
    if (u == v) return;
    double total = 0.0;
    for (std::uint32_t t = 0; t < trials_per_pair; ++t) {
      core::CobraWalk walk(g, u, branching);
      const RunResult r = run_hit(walk, v, gen);
      if (!r.stopped) est.all_hit = false;
      total += static_cast<double>(r.rounds);
    }
    const double mean = total / trials_per_pair;
    ++est.pairs;
    if (mean > est.hmax) {
      est.hmax = mean;
      est.argmax_from = u;
      est.argmax_to = v;
    }
  };

  if (pair_samples == 0) {
    for (core::Vertex u = 0; u < n; ++u) {
      for (core::Vertex v = 0; v < n; ++v) consider_pair(u, v);
    }
  } else {
    for (std::uint64_t s = 0; s < pair_samples; ++s) {
      const auto [u, v] = rng::distinct_pair(gen, n);
      consider_pair(static_cast<core::Vertex>(u), static_cast<core::Vertex>(v));
    }
  }
  return est;
}

}  // namespace cobra::sim
