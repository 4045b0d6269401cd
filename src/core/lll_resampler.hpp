#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"
#include "gen/constraints.hpp"

/// \file lll_resampler.hpp
/// Parallel Moser–Tardos resampling for constraint systems — the
/// constructive Lovász Local Lemma (Moser & Tardos, JACM 2010) run as a
/// round-based frontier process. The state space is the CLAUSE dependency
/// graph (gen::dependency_graph — clauses adjacent iff they share a
/// variable); the frontier is the set of currently violated clauses. Each
/// round:
///
///   1. winner selection — among violated clauses, those locally minimal
///      under fresh hashed priorities win (an independent set in the
///      dependency graph, so winners share NO variable — the parallel
///      Moser–Tardos round of Moser & Tardos §4, whose log-factor round
///      bounds Harris & Srinivasan's partial-resampling framework
///      tightens);
///   2. resampling      — every variable of every winner is redrawn from
///      the pure hash derive_seed(var_seed, x); disjointness makes the
///      order immaterial, so the new assignment is schedule-independent;
///   3. status refresh  — only winners and their dependency neighbors can
///      change violation status; an expand over the winners collects that
///      touched set, the clauses re-evaluate, and the violated frontier is
///      rebuilt by a sorted merge.
///
/// One draw of the caller's engine per round seeds everything, so a run is
/// a pure function of (system, init_seed, engine seed) — bit-identical
/// across thread counts and representations. Termination: each round
/// resamples >= 1 violated clause, and under the LLL condition the
/// expected total resample count is O(m); the test/bench systems sit far
/// below the k-SAT threshold so runs finish in a handful of rounds (a
/// sim::Runner budget guards the pathological tail regardless).
///
/// Models sim::Process over clause ids: active() is the violated set,
/// satisfied() == extinction. The witness record (every winner clause, in
/// resampling order) is the Moser–Tardos witness-count observable the
/// bench reports.

namespace cobra::core {

class LLLResampler {
 public:
  /// A resampler for `sys` on its dependency graph `deps` (build it with
  /// gen::dependency_graph; it is taken by reference and must outlive the
  /// resampler, and must have exactly sys.num_clauses() vertices). The
  /// initial assignment is the pure hash of `init_seed`. Requires at least
  /// one clause.
  LLLResampler(const gen::ClauseSystem& sys, const Graph& deps,
               std::uint64_t init_seed, FrontierOptions opts = {});

  /// Redraw the initial assignment from `init_seed` and rebuild the
  /// violated set (reuses buffers).
  void reset(std::uint64_t init_seed);

  /// One parallel resampling round. No-op once satisfied().
  void step(Engine& gen);

  /// Currently violated clauses, sorted ascending.
  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return violated_;
  }

  /// True when no clause is violated — the assignment satisfies `sys`.
  [[nodiscard]] bool satisfied() const noexcept { return violated_.empty(); }

  /// The current assignment, one 0/1 byte per variable.
  [[nodiscard]] std::span<const std::uint8_t> assignment() const noexcept {
    return assignment_;
  }

  /// The Moser–Tardos witness record: every resampled clause in round
  /// order (winners within a round ascending).
  [[nodiscard]] std::span<const Vertex> witness() const noexcept {
    return witness_;
  }

  /// Total variable redraws across all rounds.
  [[nodiscard]] std::uint64_t var_resamples() const noexcept {
    return var_resamples_;
  }

  /// Winners of the most recent round (observability).
  [[nodiscard]] std::uint64_t last_winners() const noexcept {
    return last_winners_;
  }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const gen::ClauseSystem& system() const noexcept {
    return *sys_;
  }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size — the CLAUSE count (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// The underlying step engine — benches/tests tune its chunking, pool
  /// and threshold through this.
  [[nodiscard]] FrontierEngine& engine() noexcept { return engine_; }

 private:
  const gen::ClauseSystem* sys_;
  const Graph* g_;
  FrontierEngine engine_;
  std::vector<std::uint8_t> assignment_;     ///< one 0/1 byte per variable
  std::vector<std::uint8_t> violated_flag_;  ///< == membership in violated_
  std::vector<Vertex> violated_;  ///< sorted ascending, the frontier
  Frontier winners_;
  Frontier touched_;  ///< winners + dependency neighbors
  std::vector<Vertex> rebuilt_;  ///< merge scratch
  std::vector<Vertex> witness_;
  std::uint64_t var_resamples_ = 0;
  std::uint64_t last_winners_ = 0;
  std::uint64_t round_ = 0;
};

}  // namespace cobra::core
