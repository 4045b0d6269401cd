#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

/// \file mixing.hpp
/// Exact mixing diagnostics for the (lazy) simple random walk, by dense
/// distribution iteration. Theorem 8's proof needs that after
/// s = O(Phi^-2 log n) lazy steps the walk's distribution is within 1/2n
/// of stationarity in every coordinate (it cites the spectral bound
/// |p_t(v) - pi(v)| <= e^{-t Phi^2 / 2}); this module lets experiments
/// measure the true epoch length instead of assuming it. Cost per step is
/// O(m); total O(m * t_mix) — fine for the n <= ~10^4 graphs benches use.

namespace cobra::graph {

/// One lazy-walk step of a distribution: out = (in + in * P) / 2.
/// P is the simple-random-walk matrix of g. Buffers must have size n.
void lazy_walk_step(const Graph& g, const std::vector<double>& in,
                    std::vector<double>& out);

/// The degree-proportional stationary distribution pi(v) = d(v)/2m.
[[nodiscard]] std::vector<double> stationary_of(const Graph& g);

/// Distribution of a lazy walk started at `source` after `steps` steps.
[[nodiscard]] std::vector<double> lazy_walk_distribution(const Graph& g,
                                                         Vertex source,
                                                         std::uint64_t steps);

/// First t with TV(P^t(source, .), pi) <= epsilon, capped at `max_steps`.
/// Returns max_steps if not reached.
[[nodiscard]] std::uint64_t lazy_mixing_time(const Graph& g, Vertex source,
                                             double epsilon,
                                             std::uint64_t max_steps);

/// Worst-coordinate deviation max_v |p_t(v) - pi(v)| after `steps` lazy
/// steps — the exact quantity the paper bounds by e^{-t Phi^2/2} in §4.
[[nodiscard]] double max_coordinate_deviation(const Graph& g, Vertex source,
                                              std::uint64_t steps);

}  // namespace cobra::graph
