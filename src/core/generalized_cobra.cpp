#include "core/generalized_cobra.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cobra::core {

namespace schedules {

BranchingSchedule fixed(std::uint32_t k) {
  if (k < 1) throw std::invalid_argument("schedules::fixed: k >= 1");
  return [k](Vertex, std::uint64_t, Engine&) { return k; };
}

BranchingSchedule bernoulli_mixture(std::uint32_t k, double p) {
  if (k < 1) throw std::invalid_argument("schedules::bernoulli_mixture: k >= 1");
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("schedules::bernoulli_mixture: p in [0,1]");
  }
  return [k, p](Vertex, std::uint64_t, Engine& gen) {
    return k + (rng::bernoulli(gen, p) ? 1u : 0u);
  };
}

BranchingSchedule shifted_geometric(double p) {
  if (p <= 0.0 || p > 1.0) {
    throw std::invalid_argument("schedules::shifted_geometric: p in (0,1]");
  }
  return [p](Vertex, std::uint64_t, Engine& gen) {
    return static_cast<std::uint32_t>(1 + rng::geometric(gen, p));
  };
}

BranchingSchedule degree_proportional(const Graph& g, double alpha) {
  if (alpha <= 0.0) {
    throw std::invalid_argument("schedules::degree_proportional: alpha > 0");
  }
  return [&g, alpha](Vertex v, std::uint64_t, Engine&) {
    const auto k = static_cast<std::uint32_t>(std::lround(alpha * g.degree(v)));
    return std::max(1u, k);
  };
}

BranchingSchedule faulty(std::uint32_t k, double fail_p) {
  if (k < 1) throw std::invalid_argument("schedules::faulty: k >= 1");
  if (fail_p < 0.0 || fail_p > 1.0) {
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

GeneralizedCobraWalk::GeneralizedCobraWalk(const Graph& g, Vertex start,
                                           BranchingSchedule schedule)
    : g_(&g), schedule_(std::move(schedule)), engine_(g), pick_(g) {
  if (!schedule_) {
    throw std::invalid_argument("GeneralizedCobraWalk: null schedule");
  }
  if (g.min_degree() == 0) {
    throw std::invalid_argument("GeneralizedCobraWalk: isolated vertex");
  }
  reset(start);
}

void GeneralizedCobraWalk::reset(Vertex start) {
  reset(std::span<const Vertex>(&start, 1));
}

void GeneralizedCobraWalk::reset(std::span<const Vertex> starts) {
  for (const Vertex v : starts) {
    if (v >= g_->num_vertices()) {
      throw std::out_of_range("GeneralizedCobraWalk::reset: out of range");
    }
  }
  round_ = 0;
  samples_ = 0;
  engine_.dedupe(starts, frontier_);
  if (frontier_.empty()) {
    throw std::invalid_argument("GeneralizedCobraWalk::reset: empty start set");
  }
}

void GeneralizedCobraWalk::save_state(util::CheckpointWriter& w) const {
  w.u64(round_);
  w.u64(samples_);
  w.u32_span(frontier_.vertices());
}

void GeneralizedCobraWalk::restore_state(util::CheckpointReader& r) {
  const std::uint64_t round = r.u64();
  const std::uint64_t samples = r.u64();
  const std::vector<Vertex> verts = r.u32_span();
  util::require_canonical_vertices(verts, g_->num_vertices(),
                                   "GeneralizedCobraWalk frontier");
  engine_.dedupe(verts, frontier_);  // empty = extinct, legal here
  round_ = round;
  samples_ = samples;
}

void GeneralizedCobraWalk::step(Engine& gen) {
  if (frontier_.empty()) {  // extinct: keep the clock, skip the machinery
    ++round_;
    return;
  }
  const std::uint64_t round_seed = gen();
  engine_.expand(
      frontier_, next_, round_seed,
      [&](Vertex v, Engine& rng, auto&& sink) {
        const std::uint32_t k = schedule_(v, round_, rng);
        const auto nbrs = g_->neighbors(v);
        for (std::uint32_t i = 0; i < k; ++i) sink(pick_(nbrs, rng));
      });
  // One sink call per sample: the engine's per-chunk emit counters are the
  // contention-free work measure for random schedules.
  samples_ += engine_.last_emitted();
  frontier_.swap(next_);
  ++round_;
}

}  // namespace cobra::core
