#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/builder.hpp"
#include "graph/graph.hpp"

/// \file constraints.hpp
/// k-SAT-style constraint systems for the Lovász Local Lemma resampling
/// process (core::LLLResampler). A ClauseSystem is a CSR-packed set of
/// clauses over boolean variables; each clause is a BAD EVENT that holds
/// (is violated) exactly when every one of its literals is false. The
/// Moser–Tardos algorithm walks the violated-clause set, resampling the
/// variables of violated clauses until none remain — its expected
/// resampling count is bounded whenever the system satisfies the LLL
/// condition (Moser & Tardos, JACM 2010; Harris & Srinivasan's partial
/// resampling sharpens the dependency accounting).
///
/// `dependency_graph` builds the clause-adjacency graph (clauses adjacent
/// iff they share a variable) through graph::from_edges — that graph is
/// the state space the resampler's FrontierEngine chunks, and its
/// neighborhoods are exactly the "clauses whose status a resampling can
/// touch" sets.

namespace cobra::gen {

/// A conjunction of fixed-width-free clauses over `num_vars` boolean
/// variables, CSR-packed: clause c's literals are
/// (vars[offsets[c]..offsets[c+1]), negated[same range]). A literal with
/// negated == 0 is satisfied by assignment true; negated == 1 by false.
struct ClauseSystem {
  std::uint32_t num_vars = 0;
  std::vector<std::uint32_t> offsets{0};  ///< clause boundaries, size m + 1
  std::vector<std::uint32_t> vars;
  std::vector<std::uint8_t> negated;

  [[nodiscard]] std::uint32_t num_clauses() const noexcept {
    return static_cast<std::uint32_t>(offsets.size() - 1);
  }

  [[nodiscard]] std::span<const std::uint32_t> clause_vars(
      std::uint32_t c) const noexcept {
    return std::span<const std::uint32_t>(vars).subspan(
        offsets[c], offsets[c + 1] - offsets[c]);
  }

  [[nodiscard]] std::span<const std::uint8_t> clause_signs(
      std::uint32_t c) const noexcept {
    return std::span<const std::uint8_t>(negated).subspan(
        offsets[c], offsets[c + 1] - offsets[c]);
  }

  /// Is clause c satisfied under `assignment` (one 0/1 byte per variable)?
  [[nodiscard]] bool satisfied(std::uint32_t c,
                               std::span<const std::uint8_t> assignment) const {
    const auto xs = clause_vars(c);
    const auto signs = clause_signs(c);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (assignment[xs[i]] != signs[i]) return true;  // one true literal
    }
    return false;
  }

  /// Violated-clause count under `assignment` — the resampler's progress
  /// measure (O(total literals)).
  [[nodiscard]] std::uint32_t count_violated(
      std::span<const std::uint8_t> assignment) const {
    std::uint32_t violated = 0;
    for (std::uint32_t c = 0; c < num_clauses(); ++c) {
      violated += satisfied(c, assignment) ? 0u : 1u;
    }
    return violated;
  }
};

/// A uniformly random k-SAT system: `num_clauses` clauses, each over k
/// DISTINCT variables drawn uniformly with uniformly random polarities.
/// Clause c is a pure function of derive_seed(seed, c), so the system is
/// reproducible and thread-count-free like every gen:: family. Requires
/// 1 <= k <= num_vars and num_vars >= 1; throws std::invalid_argument
/// otherwise. Densities m/n well below the k-SAT LLL threshold (2^k /
/// (e * k) clauses per variable's neighborhood) keep the resampler's
/// round count logarithmic — the benches sweep m/n = 1.5 at k = 3.
[[nodiscard]] ClauseSystem random_ksat(std::uint32_t num_vars,
                                       std::uint32_t num_clauses,
                                       std::uint32_t k, std::uint64_t seed);

/// The clause dependency graph: one vertex per clause, an edge between two
/// distinct clauses iff they share a variable (duplicate pairs merged by
/// from_edges' simplify). Isolated clauses are fine — they resample
/// alone.
[[nodiscard]] graph::Graph dependency_graph(const ClauseSystem& sys);

}  // namespace cobra::gen
