#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file exact_hitting.hpp
/// Exact expected hitting/return/cover quantities of the SIMPLE random
/// walk, by solving the linear system
///
///     h(v) = 0,   h(x) = 1 + (1/d(x)) * sum_{y ~ x} h(y)   for x != v
///
/// with dense LU. These are the tests' ground-truth baselines: the
/// Monte-Carlo estimators in core/ and sim/ are validated against them.
/// Cost is O(n^3) per target — fine for the n <= ~1000 graphs where
/// exactness matters.
///
/// Known closed forms used in tests:
///   cycle C_n:     H(0, k) = k (n - k)
///   complete K_n:  H(u, v) = n - 1
///   path P_n:      H(0, k) = k^2
///   return time:   R(v) = 2m / d(v)            (any connected graph)

namespace cobra::graph {

/// Expected hitting times to `target` from every vertex (0 at the target).
/// Requires a connected graph with n >= 1 and no isolated vertices;
/// n must be <= 4096 (dense solve).
[[nodiscard]] std::vector<double> exact_rw_hitting_times(const Graph& g,
                                                         Vertex target);

/// Expected return time to v: exact closed form 2m / d(v) (no solve).
[[nodiscard]] double exact_rw_return_time(const Graph& g, Vertex v);

/// max_{u} H(u, v) for a fixed target (one solve).
[[nodiscard]] double exact_rw_max_hitting_to(const Graph& g, Vertex target);

/// max_{u,v} H(u, v) over all ordered pairs (n solves; n <= ~512 advised).
struct ExactHmax {
  double hmax = 0.0;
  Vertex argmax_from = 0;
  Vertex argmax_to = 0;
};
[[nodiscard]] ExactHmax exact_rw_hmax(const Graph& g);

/// Matthews bounds on the RW cover time from exact hitting times:
/// lower = max_pair H * (harmonic lower form not implemented) — we expose
/// the classical upper bound  cover <= h_max * H_{n-1}  (harmonic number),
/// which tests compare against simulated cover times.
[[nodiscard]] double matthews_upper_bound(const Graph& g);

}  // namespace cobra::graph
