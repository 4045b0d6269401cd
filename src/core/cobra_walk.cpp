#include "core/cobra_walk.hpp"

#include <stdexcept>

namespace cobra::core {

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

void CobraWalk::save_state(util::CheckpointWriter& w) const {
  w.u64(round_);
  w.u64(samples_);
  w.u32_span(frontier_.vertices());
}

void CobraWalk::restore_state(util::CheckpointReader& r) {
  const std::uint64_t round = r.u64();
  const std::uint64_t samples = r.u64();
  const std::vector<Vertex> verts = r.u32_span();
  util::require_canonical_vertices(verts, g_->num_vertices(),
                                   "CobraWalk frontier");
  if (verts.empty()) {
    // A k-cobra walk (k >= 1) can never go extinct; an empty frontier in a
    // snapshot is corruption, not state.
    throw util::CheckpointError("CobraWalk frontier: empty");
  }
  engine_.dedupe(verts, frontier_);
  round_ = round;
  samples_ = samples;
}

void CobraWalk::step(Engine& gen) {
  // Re-asserted every round: the walk KNOWS its exact emission rate, and
  // callers that assign a whole FrontierOptions (tests, benches) must not
  // silently degrade the work estimate to the 1.0 default.
  engine_.options().branching_hint = static_cast<double>(k_);
  // One caller draw seeds the entire round; the engine derives per-chunk
  // streams from it, keeping the walk thread-count independent.
  const std::uint64_t round_seed = gen();
  engine_.expand(frontier_, next_, round_seed,
                 [this](Vertex v, Engine& rng, auto&& sink) {
                   const auto nbrs = g_->neighbors(v);
                   for (std::uint32_t i = 0; i < k_; ++i) {
                     sink(pick_(nbrs, rng));
                   }
                 });
  samples_ += static_cast<std::uint64_t>(k_) * frontier_.size();
  frontier_.swap(next_);
  ++round_;
}

}  // namespace cobra::core
