#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"

/// \file families.hpp
/// Chunk-parallel, thread-count-invariant graph generators. Each generator
/// is a pure function of (parameters, seed): the work is split into chunks
/// of FIXED size (a compile-time constant per family, never derived from
/// the pool), chunk c draws from an engine seeded rng::derive_seed(seed, c)
/// into its own edge buffer, and the buffers are read in chunk order.
/// Thread count only decides which worker runs which chunk, so the emitted
/// edge list is bit-identical across 1, 2, ... N threads and identical to
/// the in-line serial path. graph::from_edges compiles the buffers with an
/// owner-computes fill: each pool worker owns one vertex range and places
/// only its own rows' arcs, in chunk order, so the CSR is bit-identical
/// too. This is the same determinism contract as core::FrontierEngine,
/// applied to KaGen-style graph generation.
///
/// The chunk-size constants are part of that contract: changing one changes
/// the graphs a given seed produces (a new RNG-to-work assignment), so they
/// are fixed here rather than exposed as knobs.
///
/// Families:
///   * gnp  — Erdős–Rényi G(n, p) via per-chunk Batagelj–Brandes geometric
///            edge skipping over a fixed partition of the pair space
///   * gnm  — Erdős–Rényi G(n, m) with an EXACT edge count: edge slot i
///            takes the pair whose linear index is perm(i) under a keyed
///            Feistel permutation of the pair space, so the m distinct
///            pairs resolve independently per slot (pure hash, no
///            rejection set, no serial state)
///   * rmat — recursive-matrix (Chakrabarti–Zhan–Faloutsos) edge sampling,
///            chunked over the edge index space
///   * ws   — Watts–Strogatz ring lattice with probabilistic rewiring,
///            chunked over vertices (each vertex owns its forward edges)
///   * ba   — Barabási–Albert preferential attachment via the chunked
///            copy-model (Sanders–Schulz): each edge slot's random choice is
///            a pure hash of (seed, slot), so any slot resolves independently
///   * rreg — random d-regular configuration model; the stub permutation
///            is a deterministic parallel sort (par::bucket_sorted) whose
///            pairing writes the CSR directly (stub v*d + k is row v's slot
///            k); sorted rows show the self-loops and parallel edges, and
///            an edge-swap repair re-pairs their stubs in O(defects)
///            serial swaps
///   * geo  — random geometric graph; points chunk-parallel, neighbor search
///            grid-bucketed, edge scan chunked over vertices
///   * chunglu — Chung–Lu power-law graph via Miller–Hagberg skip sampling;
///            the one serial family: a single engine seeded from `seed`

namespace cobra::gen {

/// Execution knobs. These affect SPEED only, never the generated graph.
struct GenOptions {
  /// Pool to spread chunks over; nullptr means par::global_pool().
  par::ThreadPool* pool = nullptr;
  /// Force the in-line serial path (never touches any pool — useful for
  /// tests and for callers generating from inside a pool worker).
  bool serial = false;
};

/// The pool a generator phase spreads over, or nullptr for the in-line
/// path: serial requested, a one-thread pool, or a call from inside a pool
/// worker (which must not wait on its own pool). build_graph hands the
/// same pool to graph::largest_component for lcc=1.
[[nodiscard]] par::ThreadPool* usable_pool(const GenOptions& opts);

/// G(n, p). Each of the C(n,2) pairs appears independently with
/// probability p. p is clamped to [0, 1]; p = 1 yields the complete graph.
/// Simple by construction; not necessarily connected.
[[nodiscard]] graph::Graph gnp(std::uint32_t n, double p, std::uint64_t seed,
                               const GenOptions& opts = {});

/// G(n, m): a uniformly random simple graph with EXACTLY m edges, drawn as
/// the first m slots of a keyed pseudorandom permutation (4-round Feistel
/// with cycle-walking) of the C(n,2) pair space. Each edge is a pure
/// function of (seed, slot), so generation chunks over slots with no
/// dedup or rejection bookkeeping. Requires m <= n*(n-1)/2. Simple by
/// construction; not necessarily connected.
[[nodiscard]] graph::Graph gnm(std::uint32_t n, std::uint64_t m,
                               std::uint64_t seed, const GenOptions& opts = {});

/// R-MAT with `num_edges` undirected edge draws over 2^levels vertices and
/// quadrant probabilities (a, b, c, 1-a-b-c). Edges are canonicalized to
/// undirected form; self-loops and duplicates are removed, so the realized
/// edge count is slightly below num_edges. Requires 1 <= levels <= 31 and
/// a, b, c >= 0 with a + b + c <= 1.
[[nodiscard]] graph::Graph rmat(std::uint32_t levels, std::uint64_t num_edges,
                                double a, double b, double c,
                                std::uint64_t seed,
                                const GenOptions& opts = {});

/// Watts–Strogatz: ring lattice on n vertices, each joined to its k nearest
/// neighbors (k even, k < n), then every lattice edge is rewired with
/// probability beta to a uniform random non-self endpoint. Duplicates
/// created by rewiring are removed, so degrees are k in expectation but not
/// exactly. Requires n >= 3, k even, 2 <= k < n, beta in [0, 1].
[[nodiscard]] graph::Graph watts_strogatz(std::uint32_t n, std::uint32_t k,
                                          double beta, std::uint64_t seed,
                                          const GenOptions& opts = {});

/// Barabási–Albert via the chunked copy-model: edge e of vertex v = e/d
/// attaches to the endpoint occupying a uniformly random earlier position
/// of the conceptual edge array — equivalent to degree-proportional
/// attachment, and resolvable per-edge from hashes alone. The first
/// vertex's own edges are self-loops by construction and are removed, so
/// vertex 0's degree comes entirely from later attachments; the graph is
/// connected w.h.p. for d >= 2 but not guaranteed (pair with lcc).
/// Requires d >= 1, n >= 2.
[[nodiscard]] graph::Graph barabasi_albert(std::uint32_t n, std::uint32_t d,
                                           std::uint64_t seed,
                                           const GenOptions& opts = {});

/// Random d-regular simple graph: configuration-model pairing through a
/// sort-by-hashed-key stub permutation, then edge-swap repair of the
/// self-loops and parallel edges (up to `max_passes` passes). The stub
/// sort, the CSR scatter with its row sort, and the defect scan (one pass
/// over the edges for the few keys a sorted row shows twice) run in
/// parallel; the repair's swaps are serial, O(defects), and patch the
/// four rows each one touches. Requires n*d even, d < n; throws
/// std::runtime_error when repair fails (d too large for n). W.h.p. the
/// result is connected and an expander for d >= 3.
[[nodiscard]] graph::Graph random_regular(std::uint32_t n, std::uint32_t d,
                                          std::uint64_t seed,
                                          const GenOptions& opts = {},
                                          std::uint32_t max_passes = 200);

/// Random geometric graph: n points uniform in the unit square, edges at
/// Euclidean distance <= radius, found by grid-bucketed neighbor search in
/// O(n + m) expected. Requires radius in (0, 1.5]. Not necessarily
/// connected; the connectivity threshold is radius ~ sqrt(ln n / (pi n)).
[[nodiscard]] graph::Graph random_geometric(std::uint32_t n, double radius,
                                            std::uint64_t seed,
                                            const GenOptions& opts = {});

/// Chung–Lu graph with expected power-law degree sequence of exponent
/// `gamma` (typically 2 < gamma < 3) and minimum expected degree `min_deg`:
/// edge {u,v} appears with probability min(1, w_u w_v / sum_w). Serial,
/// drawing from one rng::Xoshiro256(seed). Requires gamma > 1, n >= 2.
/// Simple; not necessarily connected.
[[nodiscard]] graph::Graph chung_lu(std::uint32_t n, double gamma,
                                    double min_deg, std::uint64_t seed);

}  // namespace cobra::gen
