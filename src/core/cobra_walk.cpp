#include "core/cobra_walk.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cobra::core {

namespace schedules {

// Range checks are written as !(in range) so that a NaN argument fails
// them too.

/// Where a schedule whose count can exceed a branching factor's range
/// saturates instead of wrapping.
constexpr std::uint32_t kMaxBranching = std::numeric_limits<std::uint32_t>::max();

BranchingSchedule fixed(std::uint32_t k) {
  if (k < 1) throw std::invalid_argument("schedules::fixed: k >= 1");
  return [k](Vertex, std::uint64_t, Engine&) { return k; };
}

BranchingSchedule bernoulli_mixture(std::uint32_t k, double p) {
  if (k < 1) throw std::invalid_argument("schedules::bernoulli_mixture: k >= 1");
  if (!(0.0 <= p && p <= 1.0)) {
    throw std::invalid_argument("schedules::bernoulli_mixture: p in [0,1]");
  }
  return [k, p](Vertex, std::uint64_t, Engine& gen) {
    return k + (rng::bernoulli(gen, p) ? 1u : 0u);
  };
}

BranchingSchedule shifted_geometric(double p) {
  if (!(0.0 < p && p <= 1.0)) {
    throw std::invalid_argument("schedules::shifted_geometric: p in (0,1]");
  }
  return [p](Vertex, std::uint64_t, Engine& gen) {
    const std::uint64_t failures = rng::geometric(gen, p);
    return failures < kMaxBranching ? static_cast<std::uint32_t>(1 + failures)
                                    : kMaxBranching;
  };
}

BranchingSchedule degree_proportional(const Graph& g, double alpha) {
  if (!(0.0 < alpha && alpha < std::numeric_limits<double>::infinity())) {
    throw std::invalid_argument(
        "schedules::degree_proportional: alpha > 0 and finite");
  }
  return [&g, alpha](Vertex v, std::uint64_t, Engine&) {
    const double k = std::round(alpha * g.degree(v));
    return k < kMaxBranching ? std::max(1u, static_cast<std::uint32_t>(k))
                             : kMaxBranching;
  };
}

BranchingSchedule faulty(std::uint32_t k, double fail_p) {
  if (k < 1) throw std::invalid_argument("schedules::faulty: k >= 1");
  if (!(0.0 <= fail_p && fail_p <= 1.0)) {
    throw std::invalid_argument("schedules::faulty: fail_p in [0,1]");
  }
  return [k, fail_p](Vertex, std::uint64_t, Engine& gen) {
    return rng::bernoulli(gen, fail_p) ? 0u : k;
  };
}

BranchingSchedule phased(std::uint32_t k1, std::uint32_t k2,
                         std::uint64_t switch_round) {
  if (k1 < 1 || k2 < 1) throw std::invalid_argument("schedules::phased: k >= 1");
  return [k1, k2, switch_round](Vertex, std::uint64_t round, Engine&) {
    return round < switch_round ? k1 : k2;
  };
}

}  // namespace schedules

CobraWalk::CobraWalk(const Graph& g, Vertex start, std::uint32_t branching)
    : g_(&g), k_(branching), engine_(g), pick_(g) {
  if (branching < 1) throw std::invalid_argument("CobraWalk: branching >= 1");
  if (g.min_degree() == 0) {
    throw std::invalid_argument("CobraWalk: graph has an isolated vertex");
  }
  // The engine's parallel threshold is in estimated samples; k per active
  // vertex is this walk's exact emission rate.
  engine_.options().branching_hint = static_cast<double>(branching);
  reset(start);
}

CobraWalk::CobraWalk(const Graph& g, Vertex start, BranchingSchedule schedule)
    : g_(&g), k_(0), schedule_(std::move(schedule)), engine_(g), pick_(g) {
  if (!schedule_) throw std::invalid_argument("CobraWalk: null schedule");
  if (g.min_degree() == 0) {
    throw std::invalid_argument("CobraWalk: graph has an isolated vertex");
  }
  reset(start);
}

void CobraWalk::reset(Vertex start) {
  reset(std::span<const Vertex>(&start, 1));
}

void CobraWalk::reset(std::span<const Vertex> starts) {
  for (const Vertex v : starts) {
    if (v >= g_->num_vertices()) {
      throw std::out_of_range("CobraWalk::reset: start out of range");
    }
  }
  round_ = 0;
  samples_ = 0;
  engine_.dedupe(starts, frontier_);
  if (frontier_.empty()) {
    throw std::invalid_argument("CobraWalk::reset: empty start set");
  }
}

void CobraWalk::step(Engine& gen) {
  if (frontier_.empty()) {  // extinct: keep the clock, skip the machinery
    ++round_;
    return;
  }
  // One caller draw seeds the entire round; the engine derives per-chunk
  // streams from it, keeping the walk thread-count independent.
  const std::uint64_t round_seed = gen();
  if (schedule_) {
    expand_scheduled(round_seed);
  } else {
    // Re-asserted every round: the walk KNOWS its exact emission rate, and
    // callers that assign a whole FrontierOptions (tests, benches) must
    // not silently degrade the work estimate to the 1.0 default.
    engine_.options().branching_hint = static_cast<double>(k_);
    engine_.expand(frontier_, next_, round_seed,
                   [this](Vertex v, Engine& rng, auto&& sink) {
                     const auto nbrs = g_->neighbors(v);
                     for (std::uint32_t i = 0; i < k_; ++i) {
                       sink(pick_(nbrs, rng));
                     }
                   });
  }
  // One sink call per sample: the engine's per-chunk emit counters are the
  // contention-free work measure (k |S_t| for fixed k).
  samples_ += engine_.last_emitted();
  frontier_.swap(next_);
  ++round_;
}

void CobraWalk::expand_scheduled(std::uint64_t round_seed) {
  engine_.expand(frontier_, next_, round_seed,
                 [this](Vertex v, Engine& rng, auto&& sink) {
                   const std::uint32_t k = schedule_(v, round_, rng);
                   const auto nbrs = g_->neighbors(v);
                   for (std::uint32_t i = 0; i < k; ++i) {
                     sink(pick_(nbrs, rng));
                   }
                 });
}

}  // namespace cobra::core
