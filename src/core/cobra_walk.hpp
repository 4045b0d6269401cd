#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"

/// \file cobra_walk.hpp
/// The k-cobra walk — the paper's central object (§2). At every round each
/// active vertex samples k neighbors independently, uniformly, WITH
/// replacement; the sampled vertices form the next active set (coalescing
/// is implicit: a vertex sampled several times is active once).
///
/// One class covers the whole family:
///   * k = 1 from a single vertex is the simple random walk, which tests
///     exploit; k = 1 from a start set (`reset(starts)`) is coalescing
///     random walks, the process behind voter models (Cooper et al.,
///     PODC'12): walkers that land on one vertex merge, so the walker count
///     `frontier().size()` never grows, and `starts.size()` minus it is the
///     merge count (sim::CollisionDetector::total_losses() round by round).
///   * A BranchingSchedule replaces the fixed k with a per-vertex, per-round
///     or random count — the variations §1 names and leaves open: "one
///     could further study variations where the branching varied based on
///     the vertex or the time step, or was governed by a random
///     distribution". A schedule may return 0 to model faulty vertices that
///     drop the message, so a schedule walk may go EXTINCT when every active
///     vertex returns 0, which `extinct()` reports. An extinct walk's step
///     only advances the round counter and draws nothing from the caller's
///     engine. A fixed-k walk never goes extinct.
///
/// Implementation notes:
///   * Rounds execute on the shared FrontierEngine: the vertex-id space is
///     partitioned into fixed ranges, each range samples from an engine
///     seeded with derive_seed(round_seed, range), and offspring dedup via
///     the engine's claim lists (sparse rounds) or bitmaps (dense rounds)
///     — in parallel across the thread pool once the frontier is large
///     enough, serially (same chunking, same bits) below that. The active
///     set is held in a dual-representation core::Frontier: on expanders
///     it becomes a bitmap once it reaches Θ(n), and `active()`
///     materializes the sorted vertex list on demand (`frontier().size()`
///     is always O(1)).
///   * Each chunk draws from a bare xoshiro engine, whose state stays in
///     registers across the chunk's sampling loop (EXPERIMENTS.md A6).
///   * One draw of the caller's engine per round seeds the whole round, so
///     a walk remains a pure function of (graph, start, k or schedule,
///     engine seed) regardless of thread count or frontier representation.
///   * A round costs O(k |S_t|) neighbor samples (plus O(n / 64) bitmap
///     words when dense) and nothing else.
///   * Schedules are invoked from pool workers once the frontier is large,
///     so a schedule must be thread-safe across distinct calls — every
///     canned schedule below is a pure function of its arguments and
///     qualifies.

namespace cobra::core {

/// Branching schedule: how many neighbor samples an active vertex emits
/// this round. Receives (vertex, round, engine); the engine is the round's
/// chunk engine, which then draws that vertex's neighbor picks.
using BranchingSchedule =
    std::function<std::uint32_t(Vertex, std::uint64_t, Engine&)>;

/// Canned schedules.
namespace schedules {

/// Constant k.
[[nodiscard]] BranchingSchedule fixed(std::uint32_t k);

/// k with probability 1-p, k+1 with probability p (mean k + p).
[[nodiscard]] BranchingSchedule bernoulli_mixture(std::uint32_t k, double p);

/// 1 + Geometric(p): support {1, 2, ...}, mean 1 + (1-p)/p; saturates at
/// UINT32_MAX.
[[nodiscard]] BranchingSchedule shifted_geometric(double p);

/// max(1, round(alpha * degree(v))) — degree-proportional fanout; alpha
/// must be positive and finite, and the count saturates at UINT32_MAX.
[[nodiscard]] BranchingSchedule degree_proportional(const Graph& g, double alpha);

/// k everywhere except 0 with probability fail_p (message-drop faults).
[[nodiscard]] BranchingSchedule faulty(std::uint32_t k, double fail_p);

/// k1 for rounds < switch_round, then k2 (time-varying).
[[nodiscard]] BranchingSchedule phased(std::uint32_t k1, std::uint32_t k2,
                                       std::uint64_t switch_round);

}  // namespace schedules

class CobraWalk {
 public:
  /// A k-cobra walk on `g` starting at `start`. Requires k >= 1, a
  /// non-empty graph with min degree >= 1, and start < n. The Graph must
  /// outlive the walk.
  CobraWalk(const Graph& g, Vertex start, std::uint32_t branching = 2);

  /// A walk whose active vertices draw their branching from `schedule`
  /// (non-null). Same graph and start requirements as above.
  CobraWalk(const Graph& g, Vertex start, BranchingSchedule schedule);

  /// Restart from a single vertex (reuses buffers).
  void reset(Vertex start);

  /// Restart from an arbitrary non-empty set of active vertices
  /// (duplicates in `starts` collapse, matching coalescence).
  void reset(std::span<const Vertex> starts);

  /// Advance one round: every active vertex emits `branching` samples, or
  /// as many as the schedule says.
  void step(Engine& gen);

  /// Vertices active at the current round (sorted ascending,
  /// duplicate-free). Materializes from the bitmap after dense rounds —
  /// prefer `frontier().size()` when only the count is needed.
  [[nodiscard]] std::span<const Vertex> active() const {
    return frontier_.vertices();
  }

  /// The active set in its native representation (O(1) size()).
  [[nodiscard]] const Frontier& frontier() const noexcept { return frontier_; }

  /// Whether every walker has died (only a schedule walk can).
  [[nodiscard]] bool extinct() const noexcept { return frontier_.empty(); }

  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  /// The fixed k; 0 for a schedule walk.
  [[nodiscard]] std::uint32_t branching() const noexcept { return k_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// Total neighbor samples drawn since the last reset (k per active vertex
  /// per round for fixed k) — the work measure reported by the throughput
  /// bench.
  [[nodiscard]] std::uint64_t samples_drawn() const noexcept { return samples_; }

  /// The underlying step engine — benches/tests tune its chunking, pool
  /// and threshold through this.
  [[nodiscard]] FrontierEngine& engine() noexcept { return engine_; }

 private:
  /// The schedule body of a round. Out of line, so the fixed-k round stays
  /// inlined into step().
  void expand_scheduled(std::uint64_t round_seed);

  const Graph* g_;
  std::uint32_t k_;
  BranchingSchedule schedule_;  ///< null: every vertex emits k_ samples
  FrontierEngine engine_;
  NeighborSampler pick_;
  Frontier frontier_;
  Frontier next_;
  std::uint64_t round_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace cobra::core
