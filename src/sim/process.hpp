#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "core/grid_drift.hpp"
#include "core/types.hpp"

/// \file process.hpp
/// The `sim::Process` concept — the one shape every experiment in this
/// repo instantiates: "advance a discrete-time vertex process one round at
/// a time, reading its active set". The paper's cobra walk, its §4 Walt
/// surrogate, the §1.2 gossip and parallel-walk baselines (a RandomWalk
/// with several walkers), and the §5 biased and Metropolis walks all model
/// it, which is what lets ONE driver (`sim::Runner`) replace the
/// per-process step loops the benches and examples used to hand-roll. The
/// §1 SIS reading needs no process of its own: it is a cobra walk under
/// CoverStop and GrowthCurve.
///
/// Requirements:
///   * `step(Engine&)`   — advance one round (any return type; GridDrift
///                         returns its step event);
///   * `active()`        — the current active set as a vertex span
///                         (singleton for single-walker processes);
///   * `round()`         — rounds since construction/reset;
///   * `n()`             — the state-space size: number of graph vertices
///                         (what "cover" and first-visit arrays range over).
/// `reset(...)` is deliberately NOT part of the concept: restart signatures
/// differ per process (single start vertex, start span, pebble budget), and
/// the Runner never restarts a process — replicated experiments construct a
/// fresh process per trial inside `sim::replicate`.
///
/// Processes that maintain a dual-representation core::Frontier also expose
/// `frontier()`. The helpers below (`active_size`, `is_active`,
/// `absorb_active`) read it in its native form — the O(1) size, the
/// bitmap's words after a dense round, the sorted list after a sparse one —
/// so no stop rule or observer pays for materializing the sorted vertex
/// list after a dense round. `active()` is their fallback for processes
/// that have no frontier.

namespace cobra::sim {

template <typename P>
concept Process = requires(P p, const P cp, core::Engine& gen) {
  p.step(gen);
  { cp.active() } -> std::convertible_to<std::span<const core::Vertex>>;
  { cp.round() } -> std::convertible_to<std::uint64_t>;
  { cp.n() } -> std::convertible_to<std::uint32_t>;
};

/// |active set| without materializing it: O(1) via the native frontier
/// when the process exposes one, `active().size()` otherwise.
template <typename P>
[[nodiscard]] std::size_t active_size(const P& p) {
  if constexpr (requires { p.frontier().size(); }) {
    return p.frontier().size();
  } else {
    return p.active().size();
  }
}

namespace detail {

/// A process whose frontier can be read as a bitmap while dense() and as
/// a sorted list otherwise (core::Frontier).
template <typename P>
concept BitmapFrontier = requires(const P& p) {
  { p.frontier().dense() } -> std::convertible_to<bool>;
  { p.frontier().words() } -> std::convertible_to<std::span<const std::uint64_t>>;
  { p.frontier().vertices() } -> std::convertible_to<std::span<const core::Vertex>>;
};

template <typename OnNew>
inline constexpr bool kVisitsNew =
    !std::is_null_pointer_v<std::remove_cvref_t<OnNew>>;

template <typename OnNew>
std::size_t absorb_words(std::span<const std::uint64_t> words,
                         std::span<std::uint64_t> seen, OnNew& on_new) {
  std::size_t newly = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t fresh = words[w] & ~seen[w];
    seen[w] |= words[w];
    newly += static_cast<std::size_t>(std::popcount(fresh));
    if constexpr (kVisitsNew<OnNew>) {
      for (; fresh != 0; fresh &= fresh - 1) {
        on_new(static_cast<core::Vertex>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(fresh))));
      }
    }
  }
  return newly;
}

template <typename OnNew>
std::size_t absorb_list(std::span<const core::Vertex> list,
                        std::span<std::uint64_t> seen, OnNew& on_new) {
  std::size_t newly = 0;
  for (const core::Vertex v : list) {
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((seen[v >> 6] & bit) == 0) {
      seen[v >> 6] |= bit;
      ++newly;
      if constexpr (kVisitsNew<OnNew>) on_new(v);
    }
  }
  return newly;
}

}  // namespace detail

/// Whether `v` is active, without materializing the active set: a bit test
/// on a dense frontier, a binary search of a sparse frontier's sorted list,
/// a scan of `active()` for processes without a frontier.
template <typename P>
[[nodiscard]] bool is_active(const P& p, core::Vertex v) {
  if constexpr (detail::BitmapFrontier<P>) {
    const auto& f = p.frontier();
    if (f.dense()) {
      const std::span<const std::uint64_t> words = f.words();
      return (v >> 6) < words.size() && ((words[v >> 6] >> (v & 63)) & 1) != 0;
    }
    const std::span<const core::Vertex> list = f.vertices();
    return std::binary_search(list.begin(), list.end(), v);
  } else {
    const std::span<const core::Vertex> active = p.active();
    return std::find(active.begin(), active.end(), v) != active.end();
  }
}

/// OR the active set into `seen`, a bitmap of (p.n() + 63) / 64 words, and
/// return how many vertices it newly set. `on_new(v)` runs once per newly
/// set vertex (ascending for a frontier); pass nullptr to only count. A
/// dense frontier is absorbed word by word (popcount of `bits & ~seen`); a
/// sparse one, or `active()` for processes without a frontier, one bit per
/// listed vertex.
template <typename P, typename OnNew>
std::size_t absorb_active(const P& p, std::span<std::uint64_t> seen,
                          OnNew&& on_new) {
  if constexpr (detail::BitmapFrontier<P>) {
    const auto& f = p.frontier();
    if (f.dense()) return detail::absorb_words(f.words(), seen, on_new);
    return detail::absorb_list(f.vertices(), seen, on_new);
  } else {
    return detail::absorb_list(p.active(), seen, on_new);
  }
}

/// The §3 grid-drift coupling as a sim:: process. GridDriftWalk is a chain
/// on per-dimension distances, not on graph vertices, so the adapter maps
/// its state to the scalar total distance: `active()` is the singleton
/// {total distance} and `n()` is the largest reachable total + 1. Under
/// that reading, `HitTarget(0)` is exactly `run_to_origin`, and the drift
/// bench's Lemma 5 measurement becomes a stock Runner call.
class GridDriftProcess {
 public:
  GridDriftProcess(std::uint32_t dimensions, std::uint32_t distance,
                   std::uint32_t extent)
      : walk_(dimensions, distance, extent),
        n_(dimensions * extent + 1),
        state_(clamped_distance()) {}

  void step(core::Engine& gen) {
    walk_.step(gen);
    state_ = clamped_distance();
  }

  [[nodiscard]] std::span<const core::Vertex> active() const noexcept {
    return {&state_, 1};
  }
  [[nodiscard]] std::uint64_t round() const noexcept { return walk_.round(); }
  [[nodiscard]] std::uint32_t n() const noexcept { return n_; }

  /// The wrapped chain, for per-dimension queries (distances, events).
  [[nodiscard]] core::GridDriftWalk& walk() noexcept { return walk_; }
  [[nodiscard]] const core::GridDriftWalk& walk() const noexcept {
    return walk_;
  }

 private:
  [[nodiscard]] core::Vertex clamped_distance() const noexcept {
    const std::uint64_t total = walk_.total_distance();
    return static_cast<core::Vertex>(
        total < n_ ? total : static_cast<std::uint64_t>(n_) - 1);
  }

  core::GridDriftWalk walk_;
  std::uint32_t n_;
  core::Vertex state_;  ///< cached total distance (span target)
};

}  // namespace cobra::sim
