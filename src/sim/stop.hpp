#pragma once

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/process.hpp"

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
/// Rules read the active set through sim/process.hpp's frontier-native
/// helpers (active_size, is_active, absorb_active), so none of them makes
/// a frontier process materialize its sorted vertex list after a dense
/// round.

namespace cobra::sim {

/// Stop when every vertex of the graph has been active at least once —
/// the paper's cover time. Holds a coverage bitmap, one bit per vertex
/// (sized lazily from `p.n()` at start, so one rule value works for any
/// process), and absorbs each round through absorb_active: a dense
/// frontier word by word, a sparse one from its sorted list, never the
/// materialized `active()` of a frontier process. Callers outside the
/// Runner drive it by hand: start(p) once, then observe(p) after every
/// step.
class CoverStop {
 public:
  template <Process P>
  void start(const P& p) {
    n_ = p.n();
    covered_.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
    count_ = 0;
    started_ = true;
    observe(p);
  }

  template <Process P>
  void observe(const P& p) {
    count_ += static_cast<std::uint32_t>(absorb_active(p, covered_, nullptr));
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const {
    return complete();
  }

  [[nodiscard]] std::uint32_t covered_count() const { return count_; }
  [[nodiscard]] bool complete() const { return started_ && count_ == n_; }

 private:
  std::vector<std::uint64_t> covered_;  ///< bit v set once v was active
  std::uint32_t n_ = 0;
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
    hit_ = is_active(p, target_);
  }

  template <Process P>
  void observe(const P& p) {
    if (!hit_) hit_ = is_active(p, target_);
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const noexcept {
    return hit_;
  }

  [[nodiscard]] core::Vertex target() const noexcept { return target_; }
  [[nodiscard]] bool hit() const noexcept { return hit_; }

 private:
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
    if (is_active(p, home_)) ++completed_;
  }

  template <Process P>
  [[nodiscard]] bool done(const P&) const noexcept {
    return completed_ >= target_;
  }

  [[nodiscard]] core::Vertex home() const noexcept { return home_; }
  [[nodiscard]] std::uint64_t target() const noexcept { return target_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

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
/// conditions (an SIS prevalence threshold, walker count thresholds, ...).
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

 private:
  template <typename R, Process P>
  static void detail_start(R& rule, const P& p) {
    if constexpr (requires { rule.start(p); }) rule.start(p);
  }
  template <typename R, Process P>
  static void detail_observe(R& rule, const P& p) {
    if constexpr (requires { rule.observe(p); }) rule.observe(p);
  }

  std::tuple<Rules&...> rules_;
};

template <typename... Rules>
[[nodiscard]] AnyOf<Rules...> any_of(Rules&... rules) {
  return AnyOf<Rules...>(rules...);
}

}  // namespace cobra::sim
