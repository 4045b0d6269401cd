#include "core/lll_resampler.hpp"

#include <stdexcept>

#include "rng/splitmix64.hpp"

namespace cobra::core {

namespace {

/// Keys the variable-resampling hash apart from the winner priorities,
/// which hash round_seed itself.
constexpr std::uint64_t kVarStream = 0x9e3779b97f4a7c15ULL;

}  // namespace

LLLResampler::LLLResampler(const gen::ClauseSystem& sys, const Graph& deps,
                           std::uint64_t init_seed, FrontierOptions opts)
    : sys_(&sys), g_(&deps), engine_(deps, opts) {
  if (sys.num_clauses() == 0) {
    throw std::invalid_argument("LLLResampler: need at least one clause");
  }
  if (deps.num_vertices() != sys.num_clauses()) {
    throw std::invalid_argument(
        "LLLResampler: dependency graph must have one vertex per clause");
  }
  assignment_.resize(sys.num_vars);
  violated_flag_.resize(sys.num_clauses());
  reset(init_seed);
}

void LLLResampler::reset(std::uint64_t init_seed) {
  for (std::uint32_t x = 0; x < sys_->num_vars; ++x) {
    assignment_[x] =
        static_cast<std::uint8_t>(rng::derive_seed(init_seed, x) & 1);
  }
  violated_.clear();
  for (std::uint32_t c = 0; c < sys_->num_clauses(); ++c) {
    const bool bad = !sys_->satisfied(c, assignment_);
    violated_flag_[c] = bad ? 1 : 0;
    if (bad) violated_.push_back(static_cast<Vertex>(c));
  }
  witness_.clear();
  var_resamples_ = 0;
  last_winners_ = 0;
  round_ = 0;
}

void LLLResampler::step(Engine& gen) {
  if (violated_.empty()) return;
  const std::uint64_t round_seed = gen();
  ++round_;

  // Winner selection: locally minimal violated clauses under the pure
  // priority hash — an independent set in the dependency graph, hence
  // variable-disjoint (same predicate shape as GreedyMIS's winner round).
  const std::uint8_t* bad = violated_flag_.data();
  const auto winner_sampler = [&](Vertex c, const auto& sink) {
    const std::uint64_t pc = rng::derive_seed(round_seed, c);
    for (const Vertex d : g_->neighbors(c)) {
      if (d == c || bad[d] == 0) continue;
      const std::uint64_t pd = rng::derive_seed(round_seed, d);
      if (pd < pc || (pd == pc && d < c)) return;
    }
    sink(c);
  };
  engine_.expand(std::span<const Vertex>(violated_), winners_, round_seed,
                 winner_sampler);
  last_winners_ = winners_.size();
  const auto winners = winners_.vertices();
  witness_.insert(witness_.end(), winners.begin(), winners.end());

  // Resample every winner's variables from the round's pure hash. Winners
  // are variable-disjoint, so each variable is redrawn exactly once and
  // the resulting assignment is independent of iteration order.
  const std::uint64_t var_seed = rng::derive_seed(round_seed, kVarStream);
  for (const Vertex c : winners) {
    for (const std::uint32_t x :
         sys_->clause_vars(static_cast<std::uint32_t>(c))) {
      assignment_[x] =
          static_cast<std::uint8_t>(rng::derive_seed(var_seed, x) & 1);
      ++var_resamples_;
    }
  }

  // Only clauses sharing a variable with a winner can change status —
  // exactly the winners plus their dependency neighbors.
  const auto touch_sampler = [&](Vertex c, const auto& sink) {
    sink(c);
    for (const Vertex d : g_->neighbors(c)) {
      if (d != c) sink(d);
    }
  };
  engine_.expand(winners, touched_, round_seed, touch_sampler);
  const auto touched = touched_.vertices();
  for (const Vertex c : touched) {
    violated_flag_[c] =
        sys_->satisfied(static_cast<std::uint32_t>(c), assignment_) ? 0 : 1;
  }

  // Rebuild the violated frontier: merge the (sorted) old frontier with
  // the (sorted) touched set, taking each touched clause's refreshed flag
  // and passing untouched violated clauses through unchanged.
  rebuilt_.clear();
  auto it = touched.begin();
  for (const Vertex c : violated_) {
    while (it != touched.end() && *it < c) {
      if (violated_flag_[*it] != 0) rebuilt_.push_back(*it);
      ++it;
    }
    if (it != touched.end() && *it == c) {
      if (violated_flag_[c] != 0) rebuilt_.push_back(c);
      ++it;
    } else {
      rebuilt_.push_back(c);  // untouched: still violated
    }
  }
  while (it != touched.end()) {
    if (violated_flag_[*it] != 0) rebuilt_.push_back(*it);
    ++it;
  }
  violated_.swap(rebuilt_);
}

}  // namespace cobra::core
