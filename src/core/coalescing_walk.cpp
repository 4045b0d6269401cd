#include "core/coalescing_walk.hpp"

#include <stdexcept>

namespace cobra::core {

CoalescingWalks::CoalescingWalks(const Graph& g, std::span<const Vertex> starts)
    : g_(&g), engine_(g), pick_(g) {
  if (g.min_degree() == 0) {
    throw std::invalid_argument("CoalescingWalks: graph has an isolated vertex");
  }
  reset(starts);
}

void CoalescingWalks::reset(std::span<const Vertex> starts) {
  if (starts.empty()) {
    throw std::invalid_argument("CoalescingWalks: needs >= 1 walker");
  }
  for (const Vertex v : starts) {
    if (v >= g_->num_vertices()) {
      throw std::out_of_range("CoalescingWalks: start out of range");
    }
  }
  round_ = 0;
  engine_.dedupe(starts, walkers_);
  merges_ = starts.size() - walkers_.size();
}

void CoalescingWalks::step(Engine& gen) {
  ++round_;
  const std::uint64_t round_seed = gen();
  engine_.expand(walkers_, next_, round_seed,
                 [this](Vertex v, Engine& rng, auto&& sink) {
                   sink(pick_(g_->neighbors(v), rng));
                 });
  merges_ += walkers_.size() - next_.size();
  walkers_.swap(next_);
}

std::uint64_t CoalescingWalks::run_to_single(Engine& gen, std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (walkers_.size() > 1 && steps < max_steps) {
    step(gen);
    ++steps;
  }
  return steps;
}

}  // namespace cobra::core
