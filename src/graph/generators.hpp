#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rng/xoshiro256.hpp"

/// \file generators.hpp
/// Every graph family the paper's claims touch, plus the standard extremal
/// examples used as baselines:
///
///   * grids [0, n]^d and tori            — Theorem 3 / Lemma 2 (E1)
///   * hypercube, random d-regular        — Theorem 8 / Corollary 9 (E2, E3)
///   * cycle, random delta-regular        — Theorem 15 hitting times (E4)
///   * lollipop, barbell                  — RW worst case Θ(n^3) (E5)
///   * k-ary trees, star                  — §3 remark / §6 (E9)
///   * Erdős–Rényi, Chung–Lu power-law,
///     Barabási–Albert, random geometric  — the graph classes §4 names as
///                                          beneficiaries of the conductance
///                                          bound (E10 and examples)
///   * path, complete                     — degenerate baselines for tests
///
/// All randomized generators are deterministic functions of the passed
/// engine state; callers seed via rng::derive_seed for reproducibility.
/// All generators return connected graphs unless noted.

namespace cobra::graph {

/// Path P_n: 0-1-2-...-(n-1). n >= 1.
[[nodiscard]] Graph make_path(std::uint32_t n);

/// Cycle C_n, the 2-regular graph. n >= 3.
[[nodiscard]] Graph make_cycle(std::uint32_t n);

/// Complete graph K_n. n >= 1.
[[nodiscard]] Graph make_complete(std::uint32_t n);

/// Star S_n: vertex 0 is the hub, 1..n-1 are leaves. n >= 2.
[[nodiscard]] Graph make_star(std::uint32_t n);

/// d-dimensional grid with `side` points per axis — the paper's [0, n]^d
/// has side = n + 1. `torus` wraps every axis (making it 2d-regular).
/// Requires dimensions >= 1, side >= 2, side^dimensions <= 2^32.
[[nodiscard]] Graph make_grid(std::uint32_t dimensions, std::uint32_t side,
                              bool torus = false);

/// Hypercube Q_d on 2^d vertices; d-regular with conductance Θ(1/d).
/// Requires 1 <= dimensions <= 31.
[[nodiscard]] Graph make_hypercube(std::uint32_t dimensions);

/// Complete k-ary tree with `levels` levels (a single root is levels = 1).
/// k >= 1. Vertex 0 is the root; vertices are in BFS order.
[[nodiscard]] Graph make_kary_tree(std::uint32_t arity, std::uint32_t levels);

/// Lollipop graph: a clique on `clique_size` vertices with a path of
/// `path_length` extra vertices hanging off vertex clique_size-1. With
/// clique_size = 2n/3 and path_length = n/3 this is the standard witness
/// that simple-random-walk cover time is Θ(n^3). clique_size >= 2.
[[nodiscard]] Graph make_lollipop(std::uint32_t clique_size,
                                  std::uint32_t path_length);

/// Barbell: two cliques of `clique_size` joined by a path of `path_length`
/// intermediate vertices (0 joins them directly). clique_size >= 2.
[[nodiscard]] Graph make_barbell(std::uint32_t clique_size,
                                 std::uint32_t path_length);

/// Random d-regular simple graph via the configuration model with
/// edge-swap repair (thin wrapper over gen::random_regular, seeded from
/// one draw of `gen` and built in-line: the same graph gen::random_regular
/// builds on any pool, without touching one). Requires n*d even, d < n,
/// and (for practical repair budgets) d <= ~O(sqrt(n)); throws
/// std::runtime_error if a simple graph is not reached within
/// max_attempts repair passes. W.h.p. the result is connected and an
/// expander for d >= 3.
[[nodiscard]] Graph make_random_regular(rng::Xoshiro256& gen, std::uint32_t n,
                                        std::uint32_t degree,
                                        std::uint32_t max_attempts = 200);

/// Erdős–Rényi G(n, p). Not necessarily connected; pair with
/// largest_component (algorithms.hpp) or choose p >= (1+eps) ln n / n.
/// Thin wrapper over gen::gnp (chunked Batagelj–Brandes skip sampling,
/// O(n + m)); seeds the generator from one draw of `gen`.
[[nodiscard]] Graph make_erdos_renyi(rng::Xoshiro256& gen, std::uint32_t n,
                                     double p);

/// Chung–Lu graph with expected power-law degree sequence of exponent
/// `gamma` (typically 2 < gamma < 3) and minimum expected degree `min_deg`.
/// Edge {u,v} appears with probability min(1, w_u w_v / sum_w).
[[nodiscard]] Graph make_chung_lu_power_law(rng::Xoshiro256& gen, std::uint32_t n,
                                            double gamma, double min_deg = 2.0);

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach_edges + 1` vertices, each new vertex attaches `attach_edges`
/// edges preferentially. Connected by construction.
[[nodiscard]] Graph make_barabasi_albert(rng::Xoshiro256& gen, std::uint32_t n,
                                         std::uint32_t attach_edges);

/// Random geometric graph: n points uniform in the unit square, edges
/// between pairs at Euclidean distance <= radius. Thin wrapper over
/// gen::random_geometric (grid-bucketed neighbor search, O(n + m));
/// seeds the generator from one draw of `gen`. Not necessarily connected;
/// the standard connectivity threshold is radius ~ sqrt(ln n / (pi n)).
[[nodiscard]] Graph make_random_geometric(rng::Xoshiro256& gen, std::uint32_t n,
                                          double radius);

/// Two cliques of size `clique_size` sharing a single cut vertex — a low
/// conductance, non-regular stress case for the general-graph bound.
[[nodiscard]] Graph make_double_clique(std::uint32_t clique_size);

}  // namespace cobra::graph
