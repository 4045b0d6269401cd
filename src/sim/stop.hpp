#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/process.hpp"
#include "util/checkpoint_io.hpp"

/// \file stop.hpp
/// Stop rules for sim::Runner — the "until" half of every experiment
/// ("run until covered / until the target is hit / for T rounds / until
/// extinction"). A stop rule is any type providing
///
///   bool done(const P&)      — required; true ends the run
///   void start(const P&)     — optional; called once with the round-0 state
///   void observe(const P&)   — optional; called after every step
///
/// detected structurally by the Runner (no virtual dispatch, nothing paid
/// for hooks a rule doesn't declare). Rules are plain values the caller
/// owns, so a bench can interrogate them after the run (covered count, hit
/// round, ...). Compose with `any_of(a, b, ...)`.
///
/// Rules whose verdict depends on run HISTORY (not just the current
/// process state) additionally provide save_state/restore_state for the
/// Runner's checkpointing: CoverStop's coverage set, HitTarget's latch,
/// FixedRounds' anchor round. Stateless rules (Extinction, Until) need
/// nothing — the Runner's restore falls back to start().

namespace cobra::sim {

/// Stop when every vertex of the graph has been active at least once —
/// the paper's cover time. Holds one covered-flag byte per vertex (sized
/// lazily from `p.n()` at start, so one rule value works for any process).
/// Callers outside the Runner drive it by hand: start(p) once, then
/// observe(p) after every step.
class CoverStop {
 public:
  template <Process P>
  void start(const P& p) {
    covered_.assign(static_cast<std::uint32_t>(p.n()), 0);
    count_ = 0;
    started_ = true;
    absorb(p.active());
  }

  template <Process P>
  void observe(const P& p) {
    absorb(p.active());
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const {
    return complete();
  }

  [[nodiscard]] std::uint32_t covered_count() const { return count_; }
  [[nodiscard]] bool complete() const {
    return started_ && count_ == covered_.size();
  }

  /// Coverage is history, not derivable from the frontier — it must ride
  /// in every snapshot. The byte count doubles as the vertex count on
  /// restore, so no process handle is needed.
  void save_state(util::CheckpointWriter& w) const {
    w.u8(started_ ? 1 : 0);
    if (started_) w.bytes(covered_);
  }
  void restore_state(util::CheckpointReader& r) {
    if (r.u8() == 0) {
      *this = CoverStop();
      return;
    }
    covered_ = r.bytes();  // a short payload throws before anything changes
    count_ = 0;
    for (const std::uint8_t b : covered_) count_ += (b != 0) ? 1u : 0u;
    started_ = true;
  }

 private:
  /// Mark all of `active` covered: one byte test per active vertex.
  void absorb(std::span<const core::Vertex> active) {
    std::uint32_t newly = 0;
    for (const core::Vertex v : active) {
      if (covered_[v] == 0) {
        covered_[v] = 1;
        ++newly;
      }
    }
    count_ += newly;
  }

  std::vector<std::uint8_t> covered_;
  std::uint32_t count_ = 0;
  bool started_ = false;
};

/// Stop when `target` first appears in the active set (a target active at
/// round 0 stops immediately with 0 rounds — the hitting-time convention).
class HitTarget {
 public:
  explicit HitTarget(core::Vertex target) : target_(target) {}

  template <Process P>
  void start(const P& p) {
    hit_ = false;
    scan(p);
  }

  template <Process P>
  void observe(const P& p) {
    if (!hit_) scan(p);
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const noexcept {
    return hit_;
  }

  [[nodiscard]] core::Vertex target() const noexcept { return target_; }
  [[nodiscard]] bool hit() const noexcept { return hit_; }

  /// The latch is history (the target may have left the active set since).
  void save_state(util::CheckpointWriter& w) const { w.u8(hit_ ? 1 : 0); }
  void restore_state(util::CheckpointReader& r) { hit_ = r.u8() != 0; }

 private:
  template <Process P>
  void scan(const P& p) {
    const auto active = p.active();
    hit_ = std::find(active.begin(), active.end(), target_) != active.end();
  }

  core::Vertex target_;
  bool hit_ = false;
};

/// Stop after exactly `rounds` steps (counted from the start of THIS run,
/// not from the process's construction) — the fixed-horizon schedule of
/// growth-curve and occupancy measurements.
class FixedRounds {
 public:
  explicit FixedRounds(std::uint64_t rounds) : rounds_(rounds) {}

  template <Process P>
  void start(const P& p) {
    start_round_ = p.round();
  }

  template <Process P>
  [[nodiscard]] bool done(const P& p) const noexcept {
    return p.round() - start_round_ >= rounds_;
  }

  /// Without the anchor, a resumed run would re-anchor at the snapshot
  /// round and run `rounds_` MORE steps instead of finishing the horizon.
  void save_state(util::CheckpointWriter& w) const { w.u64(start_round_); }
  void restore_state(util::CheckpointReader& r) { start_round_ = r.u64(); }

 private:
  std::uint64_t rounds_;
  std::uint64_t start_round_ = 0;
};

/// Stop after `excursions` completed returns to `home`: an excursion ends
/// at every round (>= 1) in which home is active — a process that holds
/// still at home completes length-1 excursions, the E_v[T_v+] convention
/// (the round-0 state never counts). Total rounds / completed() is the
/// stationary-ratio return-time estimator of Theorem 15 / Corollary 17;
/// the metropolis_return bench runs it through sim::Runner and the
/// crosscheck suite pins it step-for-step against
/// MetropolisWalk::measure_return_time's internal accounting.
class ExcursionStop {
 public:
  ExcursionStop(core::Vertex home, std::uint64_t excursions)
      : home_(home), target_(excursions) {}

  template <Process P>
  void start(const P&) {
    completed_ = 0;
  }

  template <Process P>
  void observe(const P& p) {
    const auto active = p.active();
    if (std::find(active.begin(), active.end(), home_) != active.end()) {
      ++completed_;
    }
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const noexcept {
    return completed_ >= target_;
  }

  [[nodiscard]] core::Vertex home() const noexcept { return home_; }
  [[nodiscard]] std::uint64_t target() const noexcept { return target_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

  /// The tally is history (home may have left the active set since).
  void save_state(util::CheckpointWriter& w) const { w.u64(completed_); }
  void restore_state(util::CheckpointReader& r) { completed_ = r.u64(); }

 private:
  core::Vertex home_;
  std::uint64_t target_;
  std::uint64_t completed_ = 0;
};

/// Stop when the active set is empty — extinction, reachable only for
/// processes that can lose their whole population (faulty branching
/// schedules, coalescing walks never reach 0). O(1) per round via
/// active_size.
class Extinction {
 public:
  template <Process P>
  [[nodiscard]] bool done(const P& p) const {
    return active_size(p) == 0;
  }
};

/// Stop when `fn(process)` holds — the escape hatch for process-specific
/// conditions (SIS "everyone exposed", walker count thresholds, ...).
template <typename F>
class Until {
 public:
  explicit Until(F fn) : fn_(std::move(fn)) {}

  template <Process P>
  [[nodiscard]] bool done(const P& p) const {
    return fn_(p);
  }

 private:
  F fn_;
};

template <typename F>
[[nodiscard]] Until<F> until(F fn) {
  return Until<F>(std::move(fn));
}

/// Disjunction of stop rules, held by reference: the run ends when ANY
/// member rule fires, and the caller can still interrogate each rule
/// afterwards (e.g. CoverStop::complete() distinguishes "covered" from
/// "went extinct first"). All members receive start/observe hooks.
template <typename... Rules>
class AnyOf {
 public:
  explicit AnyOf(Rules&... rules) : rules_(rules...) {}

  template <Process P>
  void start(const P& p) {
    std::apply([&](Rules&... r) { (detail_start(r, p), ...); }, rules_);
  }

  template <Process P>
  void observe(const P& p) {
    std::apply([&](Rules&... r) { (detail_observe(r, p), ...); }, rules_);
  }

  template <Process P>
  [[nodiscard]] bool done(const P& p) const {
    return std::apply([&](const Rules&... r) { return (r.done(p) || ...); },
                      rules_);
  }

  /// Checkpoint pass-through: members serialize in pack order, stateless
  /// members contribute zero bytes (mirroring the Runner's own hooks).
  void save_state(util::CheckpointWriter& w) const {
    std::apply([&](const Rules&... r) { (detail_save(r, w), ...); }, rules_);
  }
  void restore_state(util::CheckpointReader& rd) {
    std::apply([&](Rules&... r) { (detail_restore(r, rd), ...); }, rules_);
  }

 private:
  template <typename R, Process P>
  static void detail_start(R& rule, const P& p) {
    if constexpr (requires { rule.start(p); }) rule.start(p);
  }
  template <typename R, Process P>
  static void detail_observe(R& rule, const P& p) {
    if constexpr (requires { rule.observe(p); }) rule.observe(p);
  }
  template <typename R>
  static void detail_save(const R& rule, util::CheckpointWriter& w) {
    if constexpr (requires { rule.save_state(w); }) rule.save_state(w);
  }
  template <typename R>
  static void detail_restore(R& rule, util::CheckpointReader& rd) {
    if constexpr (requires { rule.restore_state(rd); }) rule.restore_state(rd);
  }

  std::tuple<Rules&...> rules_;
};

template <typename... Rules>
[[nodiscard]] AnyOf<Rules...> any_of(Rules&... rules) {
  return AnyOf<Rules...>(rules...);
}

}  // namespace cobra::sim
