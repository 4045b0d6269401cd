#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/process.hpp"
#include "util/checkpoint_io.hpp"

/// \file observers.hpp
/// Observers for sim::Runner — the "recording" half of every experiment.
/// An observer is any type providing
///
///   void observe(const P&)   — required; called after every step
///   void start(const P&)     — optional; called once with the round-0 state
///
/// detected structurally by the Runner. Observers are plain values the
/// caller owns and reads after the run; a run with no observers compiles to
/// the bare step loop (the hooks fold away), so measurement never taxes a
/// run that doesn't want it.
///
/// History-accumulating observers (GrowthCurve, FirstVisitTimes) also
/// provide save_state/restore_state so their records survive the Runner's
/// checkpoint/resume — a resumed run's curve/visit table equals the
/// uninterrupted run's.
///
/// Like the stop rules, observers read the active set through
/// sim/process.hpp's frontier-native helpers (active_size, is_active,
/// absorb_active), never a frontier process's materialized `active()`.

namespace cobra::sim {

/// |S_t| for every round of the run: sizes()[t] is the active-set size
/// after t rounds (index 0 = the initial state). The growth-curve figure
/// (bench_active_growth) reads checkpoints out of this. O(1) per round via
/// active_size — no dense-frontier materialization.
class GrowthCurve {
 public:
  template <Process P>
  void start(const P& p) {
    sizes_.clear();
    sizes_.push_back(active_size(p));
  }

  template <Process P>
  void observe(const P& p) {
    sizes_.push_back(active_size(p));
  }

  [[nodiscard]] const std::vector<std::size_t>& sizes() const noexcept {
    return sizes_;
  }
  /// |S_t| after `t` rounds, clamped to the last recorded round.
  [[nodiscard]] std::size_t at(std::uint64_t t) const {
    if (sizes_.empty()) return 0;
    return sizes_[std::min<std::uint64_t>(t, sizes_.size() - 1)];
  }
  [[nodiscard]] std::size_t peak() const {
    return sizes_.empty() ? 0
                          : *std::max_element(sizes_.begin(), sizes_.end());
  }

  void save_state(util::CheckpointWriter& w) const {
    w.u64(sizes_.size());
    for (const std::size_t s : sizes_) w.u64(s);
  }
  void restore_state(util::CheckpointReader& r) {
    const std::uint64_t count = r.u64();
    sizes_.clear();
    sizes_.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      sizes_.push_back(static_cast<std::size_t>(r.u64()));
    }
  }

 private:
  std::vector<std::size_t> sizes_;
};

/// First round each vertex became active (kNever for vertices the run
/// never reached). The per-vertex refinement of cover time: the max over
/// visited vertices is the cover round, the entry at a target is its
/// hitting time — one run yields every hitting time at once. A `seen`
/// bitmap mirrors `first_ != kNever`, so a dense round visits only the
/// set bits of `bits & ~seen`.
class FirstVisitTimes {
 public:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  template <Process P>
  void start(const P& p) {
    first_.assign(p.n(), kNever);
    seen_.assign((first_.size() + 63) / 64, 0);
    rounds_ = 0;
    absorb(p);
  }

  template <Process P>
  void observe(const P& p) {
    ++rounds_;
    absorb(p);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& times() const noexcept {
    return first_;
  }
  [[nodiscard]] std::uint64_t time_of(core::Vertex v) const {
    return first_.at(v);
  }
  [[nodiscard]] bool visited(core::Vertex v) const {
    return first_.at(v) != kNever;
  }
  /// Max first-visit round over visited vertices (the cover round when
  /// every vertex was visited).
  [[nodiscard]] std::uint64_t last_first_visit() const {
    std::uint64_t last = 0;
    for (const std::uint64_t t : first_) {
      if (t != kNever) last = std::max(last, t);
    }
    return last;
  }

  void save_state(util::CheckpointWriter& w) const {
    w.u64(rounds_);
    w.u64_span(first_);
  }
  void restore_state(util::CheckpointReader& r) {
    rounds_ = r.u64();
    first_ = r.u64_span();
    seen_.assign((first_.size() + 63) / 64, 0);
    for (std::size_t v = 0; v < first_.size(); ++v) {
      if (first_[v] != kNever) seen_[v >> 6] |= std::uint64_t{1} << (v & 63);
    }
  }

 private:
  template <Process P>
  void absorb(const P& p) {
    absorb_active(p, seen_, [this](core::Vertex v) { first_[v] = rounds_; });
  }

  std::vector<std::uint64_t> first_;
  std::vector<std::uint64_t> seen_;  ///< bit v set iff first_[v] != kNever
  std::uint64_t rounds_ = 0;
};

/// Detects rounds where the active set SHRANK — a collision (coalescence
/// beat branching). Records the first such round and the cumulative
/// population loss; the coalescing-walk merge count is total_losses().
class CollisionDetector {
 public:
  static constexpr std::uint64_t kNone =
      std::numeric_limits<std::uint64_t>::max();

  template <Process P>
  void start(const P& p) {
    prev_ = active_size(p);
    rounds_ = 0;
    first_ = kNone;
    losses_ = 0;
  }

  template <Process P>
  void observe(const P& p) {
    ++rounds_;
    const std::size_t size = active_size(p);
    if (size < prev_) {
      losses_ += prev_ - size;
      if (first_ == kNone) first_ = rounds_;
    }
    prev_ = size;
  }

  [[nodiscard]] bool collided() const noexcept { return first_ != kNone; }
  [[nodiscard]] std::uint64_t first_collision_round() const noexcept {
    return first_;
  }
  [[nodiscard]] std::uint64_t total_losses() const noexcept { return losses_; }

 private:
  std::size_t prev_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t first_ = kNone;
  std::uint64_t losses_ = 0;
};

/// Fraction of (post-step) rounds in which `target` was active — the
/// empirical occupancy a stationary-distribution bound is checked against
/// (Theorem 13's epsilon-biased occupancy). The round-0 state is excluded:
/// occupancy is a long-run average over steps, and the caller typically
/// burns in before attaching this observer.
class OccupancyCounter {
 public:
  explicit OccupancyCounter(core::Vertex target) : target_(target) {}

  template <Process P>
  void start(const P&) {
    rounds_ = 0;
    hits_ = 0;
  }

  template <Process P>
  void observe(const P& p) {
    ++rounds_;
    if (is_active(p, target_)) ++hits_;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] double fraction() const noexcept {
    return rounds_ == 0 ? 0.0
                        : static_cast<double>(hits_) /
                              static_cast<double>(rounds_);
  }

 private:
  core::Vertex target_;
  std::uint64_t rounds_ = 0;
  std::uint64_t hits_ = 0;
};

/// Generic per-round statistic recorder: values()[t] = fn(process) after
/// t rounds. The ad-hoc-observer escape hatch.
template <typename F>
class Record {
 public:
  explicit Record(F fn) : fn_(std::move(fn)) {}

  template <Process P>
  void start(const P& p) {
    values_.clear();
    values_.push_back(fn_(p));
  }

  template <Process P>
  void observe(const P& p) {
    values_.push_back(fn_(p));
  }

  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  F fn_;
  std::vector<double> values_;
};

template <typename F>
[[nodiscard]] Record<F> record_of(F fn) {
  return Record<F>(std::move(fn));
}

}  // namespace cobra::sim
