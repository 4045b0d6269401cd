#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier_engine.hpp"
#include "core/types.hpp"

/// \file gossip.hpp
/// Push / pull / push-pull rumor spreading (Feige–Peleg–Raghavan–Upfal) —
/// the gossip baseline of §1.2. Unlike a cobra walk, informed vertices stay
/// informed forever (the projected Markov chain has an absorbing state),
/// which is exactly the structural difference the paper calls out. Push
/// completes in O(n log n) rounds on every connected graph, the bound
/// conjectured in §6 to hold for cobra walks too.
///
/// Both phases run on the shared FrontierEngine. Push expands the informed
/// set (one neighbor sample per informed vertex); pull expands the
/// maintained UNINFORMED list — each uninformed vertex polls one neighbor,
/// and the engine's chunked determinism applies symmetrically. The two
/// lists are complementary frontiers: push work grows toward n while pull
/// work shrinks toward 0. Both lists are kept sorted ascending (the
/// engine's canonical frontier order): newly informed vertices merge into
/// the informed list with one inplace_merge and filter out of the
/// uninformed list with one linear compaction per round — O(new log new +
/// |informed| + |uninformed|) maintenance, the same order as the round's
/// sampling itself. (In Push mode, which never reads the uninformed list,
/// the compaction is deferred to the uninformed() accessor.)
///
/// Observability caveat: PushPull runs two opposite-sized frontiers
/// through ONE engine, so the engine's dense_rounds()/switches() counters
/// and the sparse/dense hysteresis memory interleave both phases — the
/// representation choice stays correct per phase (it can never affect
/// results), but read the counters as a blend, not a per-phase series.

namespace cobra::core {

enum class GossipMode {
  Push,      ///< informed vertices send to a random neighbor
  Pull,      ///< uninformed vertices poll a random neighbor
  PushPull,  ///< both per round
};

class Gossip {
 public:
  Gossip(const Graph& g, Vertex start, GossipMode mode = GossipMode::Push);

  void reset(Vertex start);

  void step(Engine& gen);

  /// All informed vertices (monotonically growing, sorted ascending).
  [[nodiscard]] std::span<const Vertex> active() const noexcept {
    return informed_list_;
  }

  /// All uninformed vertices — the pull phase's frontier (sorted
  /// ascending). In pull-running modes the list is maintained eagerly
  /// (the pull phase reads it every round anyway); in Push mode it is
  /// compacted lazily here, so a pure push cover run never pays the
  /// O(|uninformed|)-per-round maintenance for a list nothing reads.
  [[nodiscard]] std::span<const Vertex> uninformed() const {
    compact_uninformed();
    return uninformed_list_;
  }

  [[nodiscard]] bool is_informed(Vertex v) const { return informed_[v] != 0; }
  [[nodiscard]] std::uint32_t informed_count() const noexcept {
    return static_cast<std::uint32_t>(informed_list_.size());
  }
  [[nodiscard]] bool complete() const noexcept {
    return informed_count() == g_->num_vertices();
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] GossipMode mode() const noexcept { return mode_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// State-space size (the sim::Process contract).
  [[nodiscard]] std::uint32_t n() const noexcept { return g_->num_vertices(); }

  /// The underlying step engine (chunking / pool / threshold knobs).
  [[nodiscard]] FrontierEngine& engine() noexcept { return engine_; }

 private:
  /// Flag and merge the round's newly informed set (sorted, disjoint from
  /// informed_list_) into the maintained lists.
  void absorb(std::span<const Vertex> fresh);

  /// Drop flagged vertices from the uninformed list (idempotent: the
  /// informed_ flags are authoritative, the list is a sorted superset
  /// between compactions).
  void compact_uninformed() const;

  const Graph* g_;
  GossipMode mode_;
  FrontierEngine engine_;
  NeighborSampler pick_;
  std::vector<std::uint8_t> informed_;
  std::vector<Vertex> informed_list_;  ///< sorted ascending
  /// Sorted ascending; in Push mode may transiently contain already-
  /// informed vertices until the next compact_uninformed().
  mutable std::vector<Vertex> uninformed_list_;
  mutable bool uninformed_stale_ = false;
  std::vector<Vertex> newly_;       // scratch: push offspring this round
  std::vector<Vertex> pull_newly_;  // scratch: pull adopters this round
  std::vector<Vertex> merged_;      // scratch: union of the two
  std::uint64_t round_ = 0;
};

}  // namespace cobra::core
