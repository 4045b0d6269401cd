#include "core/gossip.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace cobra::core {

Gossip::Gossip(const Graph& g, Vertex start, GossipMode mode)
    : g_(&g), mode_(mode), engine_(g), pick_(g), informed_(g.num_vertices(), 0) {
  if (g.min_degree() == 0) {
    throw std::invalid_argument("Gossip: graph has an isolated vertex");
  }
  if (start >= g.num_vertices()) {
    throw std::out_of_range("Gossip: start out of range");
  }
  informed_list_.reserve(g.num_vertices());
  reset(start);
}

void Gossip::reset(Vertex start) {
  if (start >= g_->num_vertices()) {
    throw std::out_of_range("Gossip::reset: start out of range");
  }
  informed_.assign(informed_.size(), 0);
  informed_list_.clear();
  uninformed_list_.resize(g_->num_vertices());
  std::iota(uninformed_list_.begin(), uninformed_list_.end(), Vertex{0});
  round_ = 0;
  absorb(std::span<const Vertex>(&start, 1));
}

void Gossip::absorb(std::span<const Vertex> fresh) {
  if (fresh.empty()) return;
  for (const Vertex v : fresh) informed_[v] = 1;
  // Both lists stay sorted: fresh is sorted and disjoint from the informed
  // list, so one inplace_merge keeps it ordered. The uninformed list only
  // compacts eagerly when a pull phase will read it next round; in Push
  // mode it goes stale and the accessor compacts on demand.
  const auto old_size = static_cast<std::ptrdiff_t>(informed_list_.size());
  informed_list_.insert(informed_list_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(informed_list_.begin(), informed_list_.begin() + old_size,
                     informed_list_.end());
  uninformed_stale_ = true;
  if (mode_ != GossipMode::Push) compact_uninformed();
}

void Gossip::compact_uninformed() const {
  if (!uninformed_stale_) return;
  std::erase_if(uninformed_list_,
                [this](Vertex v) { return informed_[v] != 0; });
  uninformed_stale_ = false;
}

void Gossip::step(Engine& gen) {
  ++round_;
  newly_.clear();
  pull_newly_.clear();

  // Snapshot semantics: only the sets as of the START of the round act,
  // matching the synchronous model of [17] — informed_ is not written until
  // both phases have expanded, so push pushes from the full informed list
  // and pull polls against the same frozen informed_ array.
  if (mode_ == GossipMode::Push || mode_ == GossipMode::PushPull) {
    const std::uint64_t round_seed = gen();
    engine_.expand(informed_list_, newly_, round_seed,
                   [this](Vertex v, Engine& rng, auto&& sink) {
                     const Vertex u = pick_(g_->neighbors(v), rng);
                     if (informed_[u] == 0) sink(u);
                   });
  }
  if (mode_ == GossipMode::Pull || mode_ == GossipMode::PushPull) {
    // The maintained uninformed list is the pull frontier: each uninformed
    // vertex polls one random neighbor and adopts if that neighbor knows.
    // No scan of the n - |uninformed| informed vertices happens at all.
    const std::uint64_t round_seed = gen();
    engine_.expand(uninformed_list_, pull_newly_, round_seed,
                   [this](Vertex v, Engine& rng, auto&& sink) {
                     const Vertex u = pick_(g_->neighbors(v), rng);
                     if (informed_[u] != 0) sink(v);
                   });
  }
  // A vertex can be both pushed to and a successful puller; the sorted
  // union collapses it before the merge into the informed list.
  merged_.clear();
  std::set_union(newly_.begin(), newly_.end(), pull_newly_.begin(),
                 pull_newly_.end(), std::back_inserter(merged_));
  absorb(merged_);
}

}  // namespace cobra::core
