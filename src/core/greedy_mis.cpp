#include "core/greedy_mis.hpp"

#include <algorithm>
#include <numeric>

#include "rng/splitmix64.hpp"

namespace cobra::core {

GreedyMIS::GreedyMIS(const Graph& g, FrontierOptions opts)
    : g_(&g), engine_(g, opts) {
  active_flag_.resize(g.num_vertices());
  in_mis_.resize(g.num_vertices());
  reset();
}

void GreedyMIS::reset() {
  std::vector<Vertex> all(g_->num_vertices());
  std::iota(all.begin(), all.end(), Vertex{0});
  engine_.dedupe(all, frontier_);
  std::fill(active_flag_.begin(), active_flag_.end(), std::uint8_t{1});
  std::fill(in_mis_.begin(), in_mis_.end(), std::uint8_t{0});
  mis_.clear();
  round_ = 0;
  last_winners_ = 0;
}

void GreedyMIS::step(Engine& gen) {
  if (frontier_.empty()) return;
  const std::uint64_t round_seed = gen();
  ++round_;

  // Round priorities are the pure hash derive_seed(round_seed, v): every
  // worker computes the same priority for the same vertex without touching
  // generator state, so the winner set is schedule-independent by
  // construction. Strict total order via the (priority, id) tiebreak.
  const std::uint8_t* active = active_flag_.data();
  const auto winner_sampler = [&](Vertex v, const auto& sink) {
    const std::uint64_t pv = rng::derive_seed(round_seed, v);
    for (const Vertex u : g_->neighbors(v)) {
      if (u == v || active[u] == 0) continue;
      const std::uint64_t pu = rng::derive_seed(round_seed, u);
      if (pu < pv || (pu == pv && u < v)) return;
    }
    sink(v);
  };
  engine_.expand(frontier_, winners_, round_seed, winner_sampler);
  last_winners_ = winners_.size();

  const auto winner_list = winners_.vertices();
  for (const Vertex v : winner_list) in_mis_[v] = 1;
  // Winners are ascending and disjoint from the collected set (they were
  // still active), so one merge keeps mis_ sorted.
  const auto old_size = static_cast<std::ptrdiff_t>(mis_.size());
  mis_.insert(mis_.end(), winner_list.begin(), winner_list.end());
  std::inplace_merge(mis_.begin(), mis_.begin() + old_size, mis_.end());

  // Removal closure: each winner takes itself and its still-active
  // neighbors out; the engine dedups overlapping neighborhoods.
  const auto removal_sampler = [&](Vertex v, const auto& sink) {
    sink(v);
    for (const Vertex u : g_->neighbors(v)) {
      if (u != v && active[u] != 0) sink(u);
    }
  };
  engine_.expand(winners_, removed_, round_seed, removal_sampler);
  for (const Vertex v : removed_.vertices()) active_flag_[v] = 0;

  // Shrink the frontier to the survivors — the engine's retain path keeps
  // the active set canonical in whichever representation the round picked.
  engine_.retain(frontier_, next_,
                 [&](Vertex v) { return active[v] != 0; });
  frontier_.swap(next_);
}

}  // namespace cobra::core
