#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"
#include "util/checkpoint_io.hpp"

/// \file generalized_cobra.hpp
/// The branching generalizations §1 names and leaves open: "one could
/// further study variations where the branching varied based on the vertex
/// or the time step, or was governed by a random distribution; we do not
/// do that here." This module does them, as a library extension:
///
///   * fixed k (reduces to CobraWalk — tests pin the equivalence in
///     distribution),
///   * per-vertex / per-round branching via a user schedule,
///   * random branching: each active vertex independently draws its
///     branching count from a distribution each round (Bernoulli mixture
///     and shifted-geometric provided as canned schedules).
///
/// The cover process stays well-defined for any schedule with k >= 1
/// always; a schedule may return 0 to model faulty vertices that drop the
/// message (failure injection) — the walk then dies if every active vertex
/// returns 0, which `extinct()` reports. An extinct walk's step is a no-op
/// beyond the round counter (the engine returns before touching any round
/// state, so stepping an extinct walk in a loop costs O(1) per call).
///
/// Rounds run on the shared FrontierEngine (see frontier_engine.hpp), so
/// schedules are invoked from pool workers once the frontier is large:
/// a schedule must be thread-safe across distinct calls — every canned
/// schedule below is a pure function of its arguments and qualifies.

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

/// 1 + Geometric(p): support {1, 2, ...}, mean 1 + (1-p)/p.
[[nodiscard]] BranchingSchedule shifted_geometric(double p);

/// max(1, round(alpha * degree(v))) — degree-proportional fanout.
[[nodiscard]] BranchingSchedule degree_proportional(const Graph& g, double alpha);

/// k everywhere except 0 with probability fail_p (message-drop faults).
[[nodiscard]] BranchingSchedule faulty(std::uint32_t k, double fail_p);

/// k1 for rounds < switch_round, then k2 (time-varying).
[[nodiscard]] BranchingSchedule phased(std::uint32_t k1, std::uint32_t k2,
                                       std::uint64_t switch_round);

}  // namespace schedules

class GeneralizedCobraWalk {
 public:
  GeneralizedCobraWalk(const Graph& g, Vertex start, BranchingSchedule schedule);

  void reset(Vertex start);
  void reset(std::span<const Vertex> starts);

  void step(Engine& gen);

  /// Active vertices, sorted ascending (materializes after dense rounds;
  /// `frontier().size()` is the O(1) count).
  [[nodiscard]] std::span<const Vertex> active() const {
    return frontier_.vertices();
  }

  /// The active set in its native sparse/dense representation.
  [[nodiscard]] const Frontier& frontier() const noexcept { return frontier_; }

  [[nodiscard]] bool extinct() const noexcept { return frontier_.empty(); }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }
  [[nodiscard]] std::uint64_t samples_drawn() const noexcept { return samples_; }

  /// The underlying step engine (chunking / pool / threshold knobs).
  [[nodiscard]] FrontierEngine& engine() noexcept { return engine_; }

  /// Checkpointing (sim::Checkpointable). Mirrors CobraWalk, except an
  /// EMPTY frontier is legitimate state here — extinction is a modeled
  /// outcome of 0-returning schedules, and a snapshot of an extinct walk
  /// restores to an extinct walk. The schedule itself is a construction
  /// argument (possibly a closure) and is NOT serialized; resuming with a
  /// different schedule is the caller's bug, same as a different graph.
  void save_state(util::CheckpointWriter& w) const;
  void restore_state(util::CheckpointReader& r);

 private:
  const Graph* g_;
  BranchingSchedule schedule_;
  FrontierEngine engine_;
  NeighborSampler pick_;
  Frontier frontier_;
  Frontier next_;
  std::uint64_t round_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace cobra::core
