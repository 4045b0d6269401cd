#include "gen/families.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>
#include <ranges>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "parallel/bucket_sort.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::gen {

par::ThreadPool* usable_pool(const GenOptions& opts) {
  if (opts.serial) return nullptr;
  par::ThreadPool* pool =
      opts.pool != nullptr ? opts.pool : &par::global_pool();
  return pool->size() <= 1 || pool->on_worker_thread() ? nullptr : pool;
}

namespace {

using graph::Edge;
using graph::EdgeIndex;
using graph::EdgeKey;
using graph::Graph;
using graph::Vertex;
using graph::edge_key;
using ChunkEngine = rng::Xoshiro256;

// Fixed chunk-granularity constants. These are part of the determinism
// contract (they fix the RNG-stream-to-work assignment), NOT tuning knobs:
// changing one changes the graph a given seed produces.
constexpr std::uint64_t kGnpEdgesPerChunk = 1u << 16;
constexpr std::uint64_t kGnpMaxChunks = 1u << 16;
constexpr std::uint64_t kGnmEdgesPerChunk = 1u << 16;
constexpr std::uint64_t kRmatEdgesPerChunk = 1u << 16;
constexpr std::uint64_t kWsVerticesPerChunk = 1u << 14;
constexpr std::uint64_t kBaEdgesPerChunk = 1u << 16;
constexpr std::uint64_t kGeoPointsPerChunk = 1u << 16;
constexpr std::uint64_t kGeoScanVerticesPerChunk = 1u << 14;

// Work split of rreg's edge and row scans. rreg draws no per-chunk RNG
// stream, so its graphs do not depend on this one.
constexpr std::uint64_t kRregItemsPerChunk = 1u << 16;

/// Evenly split [0, total) into n_chunks ranges; boundary of chunk c.
std::uint64_t range_start(std::uint64_t total, std::uint64_t n_chunks,
                          std::uint64_t c) {
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint64_t>(static_cast<u128>(total) * c / n_chunks);
}

/// Run body(c) for every chunk, across the pool when one is usable. The
/// parallel and serial paths produce identical side effects because each
/// chunk writes only its own buffer/slice.
template <typename Body>
void run_chunks(const GenOptions& opts, std::size_t n_chunks, Body&& body) {
  par::for_each_index(n_chunks > 1 ? usable_pool(opts) : nullptr, n_chunks,
                      body);
}

/// One edge buffer per chunk: body(c, out) appends chunk c's edges to
/// `out`, a worker-local buffer moved into place at the end. Appending
/// straight into chunks[c] would put neighbouring chunks' vector headers,
/// rewritten on every append, on one cache line shared across workers.
template <typename Body>
std::vector<std::vector<Edge>> chunked_edges(const GenOptions& opts,
                                             std::size_t n_chunks,
                                             const Body& body) {
  std::vector<std::vector<Edge>> chunks(n_chunks);
  run_chunks(opts, n_chunks, [&](std::size_t c) {
    std::vector<Edge> out;
    body(c, out);
    chunks[c] = std::move(out);
  });
  return chunks;
}

/// Row of linear pair index t: the unique r >= 1 with
/// r(r-1)/2 <= t < r(r+1)/2. The double sqrt is a guess (its rounding
/// error at t ~ 2^60 is far below 1 after the division); the loops settle
/// the exact value.
std::uint64_t pair_row(std::uint64_t t) {
  auto r = static_cast<std::uint64_t>(
      (1.0 + std::sqrt(1.0 + 8.0 * static_cast<double>(t))) / 2.0);
  if (r < 1) r = 1;
  while (r * (r - 1) / 2 > t) --r;
  while (r * (r + 1) / 2 <= t) ++r;
  return r;
}

}  // namespace

Graph gnp(std::uint32_t n, double p, std::uint64_t seed,
          const GenOptions& opts) {
  if (!(p >= 0.0) || p > 1.0) {
    throw std::invalid_argument("gnp: p in [0, 1]");
  }
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n > 0 ? n - 1 : 0) / 2;
  if (p <= 0.0 || total_pairs == 0) return graph::from_edges(n, {}, false);

  const double expected_edges = static_cast<double>(total_pairs) * p;
  const auto n_chunks = static_cast<std::uint64_t>(std::clamp(
      std::ceil(expected_edges / static_cast<double>(kGnpEdgesPerChunk)), 1.0,
      static_cast<double>(kGnpMaxChunks)));

  std::vector<std::vector<Edge>> chunks;
  const double log_q = std::log1p(-p);  // -inf when p == 1
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.gnp.sample");
    obs::ScopedTimer timed(timer);
#endif
    chunks = chunked_edges(opts, n_chunks, [&](std::size_t c,
                                               std::vector<Edge>& out) {
      const std::uint64_t s0 = range_start(total_pairs, n_chunks, c);
      const std::uint64_t s1 = range_start(total_pairs, n_chunks, c + 1);
      out.reserve(static_cast<std::size_t>(
          expected_edges / static_cast<double>(n_chunks) * 1.2) + 16);
      auto emit = [&](std::uint64_t t) {
        const std::uint64_t r = pair_row(t);
        out.emplace_back(static_cast<Vertex>(r),
                         static_cast<Vertex>(t - r * (r - 1) / 2));
      };
      if (p >= 1.0) {
        for (std::uint64_t t = s0; t < s1; ++t) emit(t);
        return;
      }
      // Batagelj–Brandes geometric skipping over this chunk's pair range.
      ChunkEngine eng(rng::derive_seed(seed, c));
      std::uint64_t t = s0;
      for (;;) {
        const double u = rng::uniform_unit(eng);
        const double skip = std::floor(std::log1p(-u) / log_q);
        if (t >= s1 || skip >= static_cast<double>(s1 - t)) break;
        t += static_cast<std::uint64_t>(skip);
        emit(t);
        ++t;
      }
    });
  }
  return graph::from_edges(n, chunks, false, usable_pool(opts));
}

Graph gnm(std::uint32_t n, std::uint64_t m, std::uint64_t seed,
          const GenOptions& opts) {
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n > 0 ? n - 1 : 0) / 2;
  if (m > total_pairs) {
    throw std::invalid_argument("gnm: m exceeds n*(n-1)/2");
  }

  // Keyed 4-round Feistel over 2*half_bits >= ceil(log2(total_pairs))
  // bits, cycle-walked into [0, total_pairs): a pseudorandom PERMUTATION
  // of the pair space, so slots 0..m-1 name m distinct pairs and every
  // slot resolves from hashes alone — the same property that makes ba's
  // copy model chunkable. The walk revisits the domain within the
  // permutation cycle of its seed value, so it terminates; the domain is
  // under 4x the pair count, so the expected walk length is < 4.
  const int half_bits = std::max(
      1, (static_cast<int>(std::bit_width(total_pairs - 1)) + 1) / 2);
  const std::uint64_t half_mask = (1ULL << half_bits) - 1;
  std::array<std::uint64_t, 4> round_key{};
  for (std::size_t r = 0; r < round_key.size(); ++r) {
    round_key[r] = rng::derive_seed(seed, 0xFE157E1ULL + r);
  }
  const auto permute = [&](std::uint64_t slot) {
    std::uint64_t x = slot;
    do {
      std::uint64_t left = x >> half_bits;
      std::uint64_t right = x & half_mask;
      for (const std::uint64_t key : round_key) {
        const std::uint64_t f = rng::splitmix64_mix(key ^ right) & half_mask;
        const std::uint64_t swapped = right;
        right = left ^ f;
        left = swapped;
      }
      x = (left << half_bits) | right;
    } while (x >= total_pairs);
    return x;
  };

  const std::uint64_t n_chunks =
      std::max<std::uint64_t>(1, (m + kGnmEdgesPerChunk - 1) /
                                     kGnmEdgesPerChunk);
  auto chunks = chunked_edges(opts, n_chunks, [&](std::size_t c,
                                                  std::vector<Edge>& out) {
    const std::uint64_t lo = range_start(m, n_chunks, c);
    const std::uint64_t hi = range_start(m, n_chunks, c + 1);
    out.reserve(static_cast<std::size_t>(hi - lo));
    for (std::uint64_t slot = lo; slot < hi; ++slot) {
      const std::uint64_t t = permute(slot);
      const std::uint64_t r = pair_row(t);
      out.emplace_back(static_cast<Vertex>(r),
                       static_cast<Vertex>(t - r * (r - 1) / 2));
    }
  });
  return graph::from_edges(n, chunks, false, usable_pool(opts));
}

Graph rmat(std::uint32_t levels, std::uint64_t num_edges, double a, double b,
           double c, std::uint64_t seed, const GenOptions& opts) {
  if (levels < 1 || levels > 31) {
    throw std::invalid_argument("rmat: 1 <= levels <= 31");
  }
  if (a < 0.0 || b < 0.0 || c < 0.0 || a + b + c > 1.0 + 1e-12) {
    throw std::invalid_argument("rmat: need a, b, c >= 0 and a + b + c <= 1");
  }
  const std::uint32_t n = 1u << levels;
  const std::uint64_t n_chunks =
      std::max<std::uint64_t>(1, (num_edges + kRmatEdgesPerChunk - 1) /
                                     kRmatEdgesPerChunk);
  const double t_ab = a + b;
  const double t_abc = a + b + c;

  auto chunks = chunked_edges(opts, n_chunks, [&](std::size_t chunk,
                                                  std::vector<Edge>& out) {
    const std::uint64_t lo = range_start(num_edges, n_chunks, chunk);
    const std::uint64_t hi = range_start(num_edges, n_chunks, chunk + 1);
    ChunkEngine eng(rng::derive_seed(seed, chunk));
    out.reserve(static_cast<std::size_t>(hi - lo));
    for (std::uint64_t e = lo; e < hi; ++e) {
      std::uint32_t row = 0, col = 0;
      for (std::uint32_t level = 0; level < levels; ++level) {
        const double u = rng::uniform_unit(eng);
        // Quadrant thresholds a | b | c | d; d = 1 - a - b - c.
        const std::uint32_t down = u >= t_ab ? 1u : 0u;
        const std::uint32_t right = (u >= a && u < t_ab) || u >= t_abc ? 1u : 0u;
        row = (row << 1) | down;
        col = (col << 1) | right;
      }
      out.emplace_back(static_cast<Vertex>(row), static_cast<Vertex>(col));
    }
  });
  return graph::from_edges(n, chunks, true, usable_pool(opts));
}

Graph watts_strogatz(std::uint32_t n, std::uint32_t k, double beta,
                     std::uint64_t seed, const GenOptions& opts) {
  if (n < 3) throw std::invalid_argument("watts_strogatz: n >= 3");
  if (k < 2 || k % 2 != 0 || k >= n) {
    throw std::invalid_argument("watts_strogatz: k even, 2 <= k < n");
  }
  if (beta < 0.0 || beta > 1.0) {
    throw std::invalid_argument("watts_strogatz: beta in [0, 1]");
  }
  const std::uint32_t half_k = k / 2;
  const std::uint64_t n_chunks =
      std::max<std::uint64_t>(1, (n + kWsVerticesPerChunk - 1) /
                                     kWsVerticesPerChunk);
  auto chunks = chunked_edges(opts, n_chunks, [&](std::size_t c,
                                                  std::vector<Edge>& out) {
    const std::uint64_t lo = static_cast<std::uint64_t>(c) *
                             kWsVerticesPerChunk;
    const std::uint64_t hi =
        std::min<std::uint64_t>(n, lo + kWsVerticesPerChunk);
    ChunkEngine eng(rng::derive_seed(seed, c));
    out.reserve(static_cast<std::size_t>((hi - lo) * half_k));
    for (std::uint64_t u = lo; u < hi; ++u) {
      // Each vertex owns its half_k forward lattice edges, so every lattice
      // edge has exactly one owner and one rewiring decision.
      for (std::uint32_t j = 1; j <= half_k; ++j) {
        Vertex target = static_cast<Vertex>((u + j) % n);
        if (beta > 0.0 && rng::bernoulli(eng, beta)) {
          auto w = static_cast<Vertex>(rng::uniform_below(eng, n - 1));
          if (w >= u) ++w;  // uniform over all non-self endpoints
          target = w;
        }
        out.emplace_back(static_cast<Vertex>(u), target);
      }
    }
  });
  return graph::from_edges(n, chunks, true, usable_pool(opts));
}

Graph barabasi_albert(std::uint32_t n, std::uint32_t d, std::uint64_t seed,
                      const GenOptions& opts) {
  if (d < 1) throw std::invalid_argument("barabasi_albert: d >= 1");
  if (n < 2) throw std::invalid_argument("barabasi_albert: n >= 2");
  const std::uint64_t num_edges = static_cast<std::uint64_t>(n) * d;
  const std::uint64_t n_chunks =
      std::max<std::uint64_t>(1, (num_edges + kBaEdgesPerChunk - 1) /
                                     kBaEdgesPerChunk);

  // draw(j): the uniformly random earlier position edge j's target copies.
  // A pure hash of (seed, j), so any edge resolves without global state —
  // this is what makes the copy-model chunkable.
  const auto draw = [seed](std::uint64_t j) {
    rng::SplitMix64 sm(rng::derive_seed(seed, j));
    return rng::uniform_below(sm, 2 * j + 1);
  };
  auto chunks = chunked_edges(opts, n_chunks, [&](std::size_t chunk,
                                                  std::vector<Edge>& out) {
    const std::uint64_t lo = range_start(num_edges, n_chunks, chunk);
    const std::uint64_t hi = range_start(num_edges, n_chunks, chunk + 1);
    out.reserve(static_cast<std::size_t>(hi - lo));
    for (std::uint64_t e = lo; e < hi; ++e) {
      // Chase target slots (odd positions) until landing on a source slot
      // (even position 2j holds vertex j/d). Position indices strictly
      // decrease, so the chase terminates; expected length is O(1).
      std::uint64_t pos = draw(e);
      while (pos % 2 != 0) pos = draw(pos / 2);
      out.emplace_back(static_cast<Vertex>(e / d),
                       static_cast<Vertex>(pos / 2 / d));
    }
  });
  return graph::from_edges(n, chunks, true, usable_pool(opts));
}

Graph random_regular(std::uint32_t n, std::uint32_t d, std::uint64_t seed,
                     const GenOptions& opts, std::uint32_t max_passes) {
  if (d >= n) throw std::invalid_argument("random_regular: d < n");
  if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("random_regular: n*d must be even");
  }
  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * d;
  const std::size_t num_edges = num_stubs / 2;
  const auto chunks_of = [](std::uint64_t total) {
    return std::max<std::uint64_t>(
        1, (total + kRregItemsPerChunk - 1) / kRregItemsPerChunk);
  };
  const auto for_ranges = [&](std::uint64_t total, auto&& body) {
    const std::uint64_t chunks = chunks_of(total);
    run_chunks(opts, chunks, [&](std::size_t c) {
      body(c, range_start(total, chunks, c),
           range_start(total, chunks, c + 1));
    });
  };

  // Uniform stub permutation: stub i gets the hashed key
  // derive_seed(seed, i), and consecutive stubs in (key, i) order pair up,
  // so edge i joins stubs stub[2i] and stub[2i + 1] (ties, astronomically
  // unlikely, break by index). Stub s belongs to vertex s / d.
  std::vector<std::uint64_t> stub;
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.rreg.permute");
    obs::ScopedTimer timed(timer);
#endif
    stub = par::bucket_sorted(
        num_stubs, ~std::uint64_t{0},
        [](std::size_t i) { return std::uint64_t{i}; },
        [seed](std::uint64_t i) { return rng::derive_seed(seed, i); },
        num_stubs > par::kSortChunk ? usable_pool(opts) : nullptr);
  }
  const auto vertex_of = [d](std::uint64_t s) {
    return static_cast<Vertex>(s / d);
  };
  const auto edge_at = [&](std::size_t i) {
    return Edge{vertex_of(stub[2 * i]), vertex_of(stub[2 * i + 1])};
  };

  // The pairing is the CSR: stub s = v * d + k is slot s, in row v, so
  // each edge writes its two slots and every slot is written once. Sorting
  // a row puts a self-loop's two copies of v, and a repeated neighbour's
  // copies, side by side; `doubled` collects their keys.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<Vertex> targets(num_stubs);
  std::vector<EdgeKey> doubled;
  const auto row = [&](Vertex v) {
    return targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
  };
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.rreg.csr");
    obs::ScopedTimer timed(timer);
#endif
    for_ranges(num_edges,
               [&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
                 for (std::uint64_t i = lo; i < hi; ++i) {
                   targets[stub[2 * i]] = vertex_of(stub[2 * i + 1]);
                   targets[stub[2 * i + 1]] = vertex_of(stub[2 * i]);
                 }
               });
    std::vector<std::vector<EdgeKey>> found(chunks_of(n));
    for_ranges(n, [&](std::size_t c, std::uint64_t lo, std::uint64_t hi) {
      for (auto v = static_cast<Vertex>(lo); v < hi; ++v) {
        offsets[v] = static_cast<EdgeIndex>(v) * d;
        std::sort(row(v), row(v) + d);
        for (std::uint32_t k = 1; k < d; ++k) {
          const Vertex w = row(v)[k];
          if (w >= v && w == row(v)[k - 1]) {
            found[c].push_back(edge_key(v, w));
          }
        }
      }
    });
    offsets[n] = num_stubs;
    for (const auto& keys : found) {
      doubled.insert(doubled.end(), keys.begin(), keys.end());
    }
    std::sort(doubled.begin(), doubled.end());
    doubled.erase(std::unique(doubled.begin(), doubled.end()), doubled.end());
  }

  // Edge-swap repair: defective (u,v) + random clean (x,y) -> (u,x) +
  // (v,y), accepted when both results are loop-free and new. A raw
  // uniform stub pairing contains Θ(d^2) self-loops and parallel edges in
  // expectation, so retry-until-simple is hopeless beyond small d; the
  // double-swap preserves the degree sequence exactly and (by the
  // standard switching argument) leaves the distribution asymptotically
  // uniform over simple d-regular graphs. Serial by design — its work is
  // O(defects) draws plus O(d) row updates each, and a serial pass with a
  // derived seed keeps the result a pure function of (n, d, seed).
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.rreg.repair");
    obs::ScopedTimer timed(timer);
#endif
    // Defects, ascending: every self-loop, and every copy of an edge after
    // its lowest-index one — exactly the edges a set of present edges,
    // filled in index order, would reject. Only doubled keys have any, so
    // one scan over the edges collects those keys' copies. A bitmap of
    // their vertices' stubs passes over the other edges without a division.
    std::vector<std::size_t> defective;
    if (!doubled.empty()) {
      std::vector<bool> marked(num_stubs, false);
      for (const EdgeKey key : doubled) {
        for (const std::uint64_t v : {key >> 32, key & 0xFFFFFFFFu}) {
          std::fill_n(marked.begin() + static_cast<std::ptrdiff_t>(v * d), d,
                      true);
        }
      }
      std::vector<std::vector<std::size_t>> copies(chunks_of(num_edges));
      for_ranges(num_edges,
                 [&](std::size_t c, std::uint64_t lo, std::uint64_t hi) {
                   for (std::uint64_t i = lo; i < hi; ++i) {
                     if (!marked[stub[2 * i]] || !marked[stub[2 * i + 1]]) {
                       continue;
                     }
                     const auto [a, b] = edge_at(i);
                     if (std::binary_search(doubled.begin(), doubled.end(),
                                            edge_key(a, b))) {
                       copies[c].push_back(i);
                     }
                   }
                 });
      std::vector<char> seen(doubled.size(), 0);
      for (const std::size_t i : copies | std::views::join) {
        const auto [a, b] = edge_at(i);
        const auto k = static_cast<std::size_t>(
            std::lower_bound(doubled.begin(), doubled.end(), edge_key(a, b)) -
            doubled.begin());
        if (a == b || std::exchange(seen[k], 1) != 0) defective.push_back(i);
      }
    }
    obs::count("gen.rreg.defects", defective.size());

    // The clean edges' keys are distinct, so key k names a clean edge iff
    // its copies in the rows outnumber the defects still pending with key k.
    std::multiset<EdgeKey> pending_keys;
    for (const std::size_t i : defective) {
      const auto [a, b] = edge_at(i);
      pending_keys.insert(edge_key(a, b));
    }
    const auto contains = [&](EdgeKey key) {
      const auto a = static_cast<Vertex>(key >> 32);
      const auto [lo, hi] =
          std::equal_range(row(a), row(a) + d, static_cast<Vertex>(key));
      return static_cast<std::size_t>(hi - lo) > pending_keys.count(key);
    };
    // Row r's entry `from` becomes `to`, and the row is sorted again.
    const auto relink = [&](Vertex r, Vertex from, Vertex to) {
      *std::lower_bound(row(r), row(r) + d, from) = to;
      std::sort(row(r), row(r) + d);
    };

    ChunkEngine repair_eng(rng::derive_seed(~seed, 0x5e9a1));
    for (std::uint32_t pass = 0; pass < max_passes && !defective.empty();
         ++pass) {
      // Pending: the defects this pass kept, and the ones it has not
      // reached yet; both lists are ascending.
      std::vector<std::size_t> still_bad;
      for (auto at = defective.begin(); at != defective.end(); ++at) {
        const std::size_t i = *at;
        const auto [u, v] = edge_at(i);
        const auto j = static_cast<std::size_t>(
            rng::uniform_below(repair_eng, num_edges));
        const auto [x, y] = edge_at(j);
        if (std::binary_search(at, defective.end(), j) ||
            std::binary_search(still_bad.begin(), still_bad.end(), j) ||
            u == x || v == y || edge_key(u, x) == edge_key(v, y) ||
            contains(edge_key(u, x)) || contains(edge_key(v, y))) {
          still_bad.push_back(i);
          continue;
        }
        // Trading stubs 2i + 1 and 2j makes edge i (u, x) and edge j (v, y).
        std::swap(stub[2 * i + 1], stub[2 * j]);
        relink(u, v, x);
        relink(v, u, y);
        relink(x, y, u);
        relink(y, x, v);
        pending_keys.erase(pending_keys.find(edge_key(u, v)));
      }
      defective.swap(still_bad);
    }
    if (!defective.empty()) {
      throw std::runtime_error(
          "random_regular: repair failed; degree too large for n?");
    }
  }
  return Graph(n, std::move(offsets), std::move(targets));
}

Graph random_geometric(std::uint32_t n, double radius, std::uint64_t seed,
                       const GenOptions& opts) {
  if (radius <= 0.0 || radius > 1.5) {
    throw std::invalid_argument("random_geometric: radius in (0, 1.5]");
  }
  std::vector<double> xs(n), ys(n);
  const std::uint64_t point_chunks =
      std::max<std::uint64_t>(1, (n + kGeoPointsPerChunk - 1) /
                                     kGeoPointsPerChunk);
  run_chunks(opts, point_chunks, [&](std::size_t c) {
    const std::uint64_t lo = static_cast<std::uint64_t>(c) *
                             kGeoPointsPerChunk;
    const std::uint64_t hi = std::min<std::uint64_t>(n, lo + kGeoPointsPerChunk);
    ChunkEngine eng(rng::derive_seed(seed, c));
    for (std::uint64_t i = lo; i < hi; ++i) {
      xs[i] = rng::uniform_unit(eng);
      ys[i] = rng::uniform_unit(eng);
    }
  });

  // Cell grid of side >= radius: only the 3x3 cell neighborhood of a point
  // can contain neighbors. Bucket fill is serial (by vertex id, so bucket
  // order is deterministic); the edge scan is chunk-parallel.
  const auto cells_per_axis =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(1.0 / radius));
  const double cell_width = 1.0 / cells_per_axis;
  std::vector<std::vector<Vertex>> cells(
      static_cast<std::size_t>(cells_per_axis) * cells_per_axis);
  auto cell_of = [&](std::uint32_t i) {
    auto cx = static_cast<std::uint32_t>(xs[i] / cell_width);
    auto cy = static_cast<std::uint32_t>(ys[i] / cell_width);
    cx = std::min(cx, cells_per_axis - 1);
    cy = std::min(cy, cells_per_axis - 1);
    return std::pair{cx, cy};
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto [cx, cy] = cell_of(i);
    cells[static_cast<std::size_t>(cy) * cells_per_axis + cx].push_back(i);
  }

  const double r2 = radius * radius;
  const std::uint64_t scan_chunks =
      std::max<std::uint64_t>(1, (n + kGeoScanVerticesPerChunk - 1) /
                                     kGeoScanVerticesPerChunk);
  auto chunks = chunked_edges(opts, scan_chunks, [&](std::size_t c,
                                                     std::vector<Edge>& out) {
    const std::uint64_t lo = static_cast<std::uint64_t>(c) *
                             kGeoScanVerticesPerChunk;
    const std::uint64_t hi =
        std::min<std::uint64_t>(n, lo + kGeoScanVerticesPerChunk);
    for (std::uint64_t i = lo; i < hi; ++i) {
      const auto iv = static_cast<std::uint32_t>(i);
      const auto [cx, cy] = cell_of(iv);
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
          const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
          if (nx < 0 || ny < 0 || nx >= cells_per_axis ||
              ny >= cells_per_axis) {
            continue;
          }
          for (const Vertex j :
               cells[static_cast<std::size_t>(ny) * cells_per_axis +
                     static_cast<std::size_t>(nx)]) {
            if (j <= iv) continue;  // emit each pair once
            const double ddx = xs[i] - xs[j];
            const double ddy = ys[i] - ys[j];
            if (ddx * ddx + ddy * ddy <= r2) out.emplace_back(iv, j);
          }
        }
      }
    }
  });
  return graph::from_edges(n, chunks, false, usable_pool(opts));
}

Graph chung_lu(std::uint32_t n, double gamma, double min_deg,
               std::uint64_t seed) {
  if (gamma <= 1.0) throw std::invalid_argument("chung_lu: gamma > 1");
  if (n < 2) throw std::invalid_argument("chung_lu: n >= 2");

  // Expected weights w_i = min_deg * (n / (i+1))^{1/(gamma-1)}, the standard
  // Chung-Lu power-law parameterization. Cap at sqrt(sum_w) so that
  // probabilities min(1, w_u w_v / W) stay proper.
  std::vector<double> weights(n);
  const double inv_exp = 1.0 / (gamma - 1.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    weights[i] = min_deg * std::pow(static_cast<double>(n) /
                                        static_cast<double>(i + 1),
                                    inv_exp);
  }
  double total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double cap = std::sqrt(total_weight);
  for (double& w : weights) w = std::min(w, cap);
  total_weight = std::accumulate(weights.begin(), weights.end(), 0.0);

  // Miller–Hagberg skip sampling (efficient Chung–Lu): weights are
  // non-increasing, so for fixed u the pair probability p(u, v) is
  // non-increasing in v. Walk v with geometric skips under the current
  // majorizer p, thinning each candidate by the exact ratio q/p.
  rng::Xoshiro256 eng(seed);
  std::vector<Edge> edges;
  for (std::uint32_t u = 0; u + 1 < n; ++u) {
    const double base = weights[u] / total_weight;
    std::uint32_t v = u + 1;
    double p = std::min(1.0, base * weights[v]);
    while (v < n && p > 0.0) {
      if (p < 1.0) {
        const double r = rng::uniform_unit(eng);
        const double skip = std::floor(std::log1p(-r) / std::log1p(-p));
        if (skip >= static_cast<double>(n)) break;
        v += static_cast<std::uint32_t>(skip);
      }
      if (v >= n) break;
      const double q = std::min(1.0, base * weights[v]);
      if (rng::uniform_unit(eng) < q / p) edges.emplace_back(u, v);
      p = q;
      ++v;
    }
  }
  return graph::from_edges(n, {&edges, 1}, true);
}

}  // namespace cobra::gen
