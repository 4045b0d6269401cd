#include "gen/constraints.hpp"

#include <algorithm>
#include <stdexcept>

#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::gen {

ClauseSystem random_ksat(std::uint32_t num_vars, std::uint32_t num_clauses,
                         std::uint32_t k, std::uint64_t seed) {
  if (num_vars == 0) {
    throw std::invalid_argument("random_ksat: num_vars must be >= 1");
  }
  if (k == 0 || k > num_vars) {
    throw std::invalid_argument("random_ksat: need 1 <= k <= num_vars");
  }
  ClauseSystem sys;
  sys.num_vars = num_vars;
  sys.offsets.reserve(num_clauses + 1);
  sys.vars.reserve(static_cast<std::size_t>(num_clauses) * k);
  sys.negated.reserve(static_cast<std::size_t>(num_clauses) * k);
  std::vector<std::uint32_t> clause(k);
  for (std::uint32_t c = 0; c < num_clauses; ++c) {
    // Per-clause stream, so the system is a pure function of (parameters,
    // seed) with no cross-clause draw-order coupling.
    rng::Xoshiro256 gen(rng::derive_seed(seed, c));
    // k distinct variables by rejection — k is tiny (3 in practice), so
    // the quadratic duplicate scan beats any set machinery.
    std::size_t filled = 0;
    while (filled < k) {
      const auto x =
          static_cast<std::uint32_t>(rng::uniform_below(gen, num_vars));
      bool duplicate = false;
      for (std::size_t i = 0; i < filled; ++i) {
        duplicate |= clause[i] == x;
      }
      if (!duplicate) clause[filled++] = x;
    }
    std::sort(clause.begin(), clause.end());
    for (const std::uint32_t x : clause) {
      sys.vars.push_back(x);
      sys.negated.push_back(rng::coin_flip(gen) ? std::uint8_t{1}
                                                : std::uint8_t{0});
    }
    sys.offsets.push_back(static_cast<std::uint32_t>(sys.vars.size()));
  }
  return sys;
}

graph::Graph dependency_graph(const ClauseSystem& sys) {
  const std::uint32_t m = sys.num_clauses();
  // Invert to var -> clause incidence, then emit every within-variable
  // clause pair; the simplifying compile merges clauses sharing several
  // variables into one edge.
  std::vector<std::vector<std::uint32_t>> incidence(sys.num_vars);
  for (std::uint32_t c = 0; c < m; ++c) {
    for (const std::uint32_t x : sys.clause_vars(c)) {
      incidence[x].push_back(c);
    }
  }
  std::vector<graph::Edge> edges;
  for (const auto& clauses : incidence) {
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      for (std::size_t j = i + 1; j < clauses.size(); ++j) {
        if (clauses[i] != clauses[j]) {
          edges.emplace_back(clauses[i], clauses[j]);
        }
      }
    }
  }
  return graph::from_edges(m, {&edges, 1}, true);
}

}  // namespace cobra::gen
