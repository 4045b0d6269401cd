#include "gen/families.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

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

using graph::EdgeIndex;
using graph::Graph;
using graph::Vertex;
using Edge = std::pair<Vertex, Vertex>;
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

// Work split of rreg's edge scans. rreg draws no per-chunk RNG stream, so
// its graphs do not depend on this one.
constexpr std::uint64_t kRregEdgesPerChunk = 1u << 16;

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

/// par::bucket_sorted of value_at(0..n) on `opts`' pool. `lead(value)` is
/// the value's leading sort component, at most `lead_max`; its top bits
/// pick the bucket, which keeps the buckets monotone in the value.
template <typename ValueAt, typename Lead>
auto parallel_sorted(const GenOptions& opts, std::size_t n,
                     std::uint64_t lead_max, const ValueAt& value_at,
                     const Lead& lead) {
  const std::size_t n_buckets = par::sort_buckets(n);
  const int bits = static_cast<int>(std::countr_zero(n_buckets));
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(lead_max)) - bits);
  return par::bucket_sorted(
      n, n_buckets, value_at,
      [&](const auto& value) {
        return bits == 0 ? 0 : static_cast<std::size_t>(lead(value) >> shift);
      },
      n > par::kSortChunk ? usable_pool(opts) : nullptr);
}

/// The chunks' elements in chunk order; the chunks are left empty.
template <typename T>
std::vector<T> concat(std::vector<std::vector<T>>& chunks) {
  if (chunks.size() == 1) return std::move(chunks[0]);
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  std::vector<T> out;
  out.reserve(total);
  for (auto& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
    std::vector<T>().swap(chunk);
  }
  return out;
}

/// Compile the chunks' edges, taken in chunk order, into CSR; the chunks
/// are left empty. With `simplify`, self-loops and duplicate undirected
/// edges are removed first (canonicalize per chunk, then one parallel
/// sort + unique: a deterministic function of the edge multiset).
///
/// The fill is owner-computes: [0, n) splits into one vertex range per
/// pool worker (one range in-line, and for phases of at most
/// par::kSortChunk edges), and each owner scans every chunk twice —
/// counting, then placing — the arcs whose source it owns, with plain
/// stores into rows no other owner touches. Every row receives its arcs
/// in chunk order whatever the owner count, so the rows (and after the
/// per-vertex sort, parallel over fixed vertex chunks) are bit-identical
/// at any thread count.
Graph assemble(std::uint32_t n, std::vector<std::vector<Edge>>& chunks,
               bool simplify, const GenOptions& opts) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("gen.assemble");
  obs::ScopedTimer timed(timer);
#endif
  if (simplify) {
    run_chunks(opts, chunks.size(), [&](std::size_t c) {
      std::erase_if(chunks[c],
                    [](const Edge& e) { return e.first == e.second; });
      for (auto& [u, v] : chunks[c]) {
        if (u > v) std::swap(u, v);
      }
    });
    std::vector<Edge> edges = concat(chunks);
    edges = parallel_sorted(
        opts, edges.size(), n - 1, [&](std::size_t i) { return edges[i]; },
        [](const Edge& e) { return e.first; });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    chunks.assign(1, std::move(edges));
  }

  std::size_t num_edges = 0;
  for (const auto& chunk : chunks) num_edges += chunk.size();
  par::ThreadPool* pool =
      num_edges > par::kSortChunk ? usable_pool(opts) : nullptr;
  const std::size_t owners =
      std::clamp<std::size_t>(pool != nullptr ? pool->size() : 1, 1,
                              std::max<std::uint32_t>(n, 1));
  const auto owner_start = [&](std::size_t o) {
    return static_cast<std::size_t>(range_start(n, owners, o));
  };
  // body(x, y) for every arc (x, y) of the chunks, in chunk order.
  const auto for_each_arc = [&](const auto& body) {
    for (const auto& chunk : chunks) {
      for (const auto& [u, v] : chunk) {
        body(u, v);
        body(v, u);
      }
    }
  };

  // Count: offsets[x + 1] = deg(x), then each owner's running sum over its
  // slots [lo + 1, hi]; a scan over the owners turns each owner's last slot
  // into a running total, so slot lo holds the owner's base.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  run_chunks(opts, owners, [&](std::size_t o) {
    const std::size_t lo = owner_start(o);
    const std::size_t hi = owner_start(o + 1);
    for_each_arc([&](Vertex x, Vertex) {
      if (x - lo < hi - lo) ++offsets[x + 1];
    });
    for (std::size_t v = lo + 2; v <= hi; ++v) offsets[v] += offsets[v - 1];
  });
  for (std::size_t o = 1; o < owners; ++o) {
    offsets[owner_start(o + 1)] += offsets[owner_start(o)];
  }

  // Place: add the base to the owner's inner slots, then write each arc at
  // its row's cursor. The cursors are a separate n-sized array allocated
  // after `targets`, as in a serial counting sort. Placing through
  // `offsets` itself saves that array, but then glibc kept a freed graph
  // resident, and repeated 2^20 rreg builds peaked ~25 MB higher.
  std::vector<Vertex> targets(offsets.back());
  std::vector<EdgeIndex> cursor(n);
  run_chunks(opts, owners, [&](std::size_t o) {
    const std::size_t lo = owner_start(o);
    const std::size_t hi = owner_start(o + 1);
    for (std::size_t v = lo + 1; v < hi; ++v) offsets[v] += offsets[lo];
    std::copy(offsets.begin() + static_cast<std::ptrdiff_t>(lo),
              offsets.begin() + static_cast<std::ptrdiff_t>(hi),
              cursor.begin() + static_cast<std::ptrdiff_t>(lo));
    for_each_arc([&](Vertex x, Vertex y) {
      if (x - lo < hi - lo) targets[cursor[x]++] = y;
    });
  });
  for (auto& chunk : chunks) std::vector<Edge>().swap(chunk);

  const std::size_t sort_chunks =
      (static_cast<std::size_t>(n) + kWsVerticesPerChunk - 1) /
      kWsVerticesPerChunk;
  run_chunks(opts, std::max<std::size_t>(sort_chunks, 1), [&](std::size_t c) {
    const std::size_t lo = c * kWsVerticesPerChunk;
    const std::size_t hi =
        std::min<std::size_t>(n, lo + kWsVerticesPerChunk);
    for (std::size_t v = lo; v < hi; ++v) {
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  });

  return Graph(n, std::move(offsets), std::move(targets));
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

/// Canonical key of the undirected edge {a, b}: (min << 32) | max, so keys
/// order like (min, max) pairs. A key with min < max is never 0 and never
/// all ones.
using EdgeKey = std::uint64_t;
constexpr EdgeKey edge_key(Vertex a, Vertex b) {
  return a < b ? (EdgeKey{a} << 32) | b : (EdgeKey{b} << 32) | a;
}
constexpr bool is_loop(EdgeKey key) {
  return (key >> 32) == (key & 0xFFFFFFFFu);
}

/// The pairing's edges as (key, index) pairs, sorted.
using KeyedEdges = std::vector<std::pair<EdgeKey, std::uint64_t>>;

/// rreg's set of clean edges during repair. Its base is the pairing's
/// KeyedEdges, where each key's first pair is its clean copy; `absent_`
/// flags the base slots outside the set (defects, and clean edges that
/// swaps removed). Keys that swaps added live in an open-addressing table
/// (linear probing, power-of-two size); swaps touch O(defects) keys, so
/// it stays small.
class CleanEdges {
 public:
  CleanEdges(KeyedEdges sorted, std::vector<char> absent)
      : base_(std::move(sorted)), absent_(std::move(absent)) {}

  [[nodiscard]] bool contains(EdgeKey key) const {
    const std::size_t at = base_slot(key);
    if (at != kNone) return absent_[at] == 0;
    if (added_.empty()) return false;
    for (std::size_t s = home(key);; s = next(s)) {
      if (added_[s] == key) return true;
      if (added_[s] == kEmpty) return false;
    }
  }

  /// Requires !contains(key) and min < max.
  void insert(EdgeKey key) {
    const std::size_t at = base_slot(key);
    if (at != kNone) {
      absent_[at] = 0;
      return;
    }
    if (2 * (used_ + 1) > added_.size()) rehash();
    std::size_t s = home(key);
    while (added_[s] != kEmpty && added_[s] != kErased) s = next(s);
    if (added_[s] == kEmpty) ++used_;
    added_[s] = key;
  }

  /// Requires contains(key).
  void erase(EdgeKey key) {
    const std::size_t at = base_slot(key);
    if (at != kNone) {
      absent_[at] = 1;
      return;
    }
    std::size_t s = home(key);
    while (added_[s] != key) s = next(s);
    added_[s] = kErased;
  }

 private:
  static constexpr EdgeKey kEmpty = 0;
  static constexpr EdgeKey kErased = ~EdgeKey{0};
  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Slot of the key's first (clean) base pair, or kNone.
  [[nodiscard]] std::size_t base_slot(EdgeKey key) const {
    const auto it = std::lower_bound(
        base_.begin(), base_.end(), key,
        [](const auto& pair, EdgeKey k) { return pair.first < k; });
    return it != base_.end() && it->first == key
               ? static_cast<std::size_t>(it - base_.begin())
               : kNone;
  }
  [[nodiscard]] std::size_t home(EdgeKey key) const {
    return static_cast<std::size_t>(rng::splitmix64_mix(key)) &
           (added_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t s) const {
    return (s + 1) & (added_.size() - 1);
  }
  void rehash() {
    std::vector<EdgeKey> live;
    for (const EdgeKey key : added_) {
      if (key != kEmpty && key != kErased) live.push_back(key);
    }
    added_.assign(std::bit_ceil(4 * live.size() + 16), kEmpty);
    used_ = live.size();
    for (const EdgeKey key : live) {
      std::size_t s = home(key);
      while (added_[s] != kEmpty) s = next(s);
      added_[s] = key;
    }
  }

  KeyedEdges base_;
  std::vector<char> absent_;
  std::vector<EdgeKey> added_;
  std::size_t used_ = 0;  // non-empty slots of added_, erased ones included
};

}  // namespace

Graph gnp(std::uint32_t n, double p, std::uint64_t seed,
          const GenOptions& opts) {
  if (!(p >= 0.0) || p > 1.0) {
    throw std::invalid_argument("gnp: p in [0, 1]");
  }
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n > 0 ? n - 1 : 0) / 2;
  if (p <= 0.0 || total_pairs == 0) {
    std::vector<std::vector<Edge>> none;
    return assemble(n, none, false, opts);
  }

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
  return assemble(n, chunks, false, opts);
}

Graph gnm(std::uint32_t n, std::uint64_t m, std::uint64_t seed,
          const GenOptions& opts) {
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n > 0 ? n - 1 : 0) / 2;
  if (m > total_pairs) {
    throw std::invalid_argument("gnm: m exceeds n*(n-1)/2");
  }
  if (m == 0) {
    std::vector<std::vector<Edge>> none;
    return assemble(n, none, false, opts);
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
  return assemble(n, chunks, false, opts);
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
  return assemble(n, chunks, true, opts);
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
  return assemble(n, chunks, true, opts);
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
  return assemble(n, chunks, true, opts);
}

Graph random_regular(std::uint32_t n, std::uint32_t d, std::uint64_t seed,
                     const GenOptions& opts, std::uint32_t max_passes) {
  if (d >= n) throw std::invalid_argument("random_regular: d < n");
  if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("random_regular: n*d must be even");
  }
  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * d;
  const std::size_t num_edges = num_stubs / 2;
  const std::uint64_t edge_chunks = std::max<std::uint64_t>(
      1, (num_edges + kRregEdgesPerChunk - 1) / kRregEdgesPerChunk);
  const auto for_edge_ranges = [&](auto&& body) {
    run_chunks(opts, edge_chunks, [&](std::size_t c) {
      body(c, range_start(num_edges, edge_chunks, c),
           range_start(num_edges, edge_chunks, c + 1));
    });
  };

  // Uniform stub permutation: stub i gets the hashed key
  // derive_seed(seed, i), and consecutive stubs in (key, i) order pair up
  // (ties, astronomically unlikely, break by index).
  std::vector<Edge> edges(num_edges);
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.rreg.permute");
    obs::ScopedTimer timed(timer);
#endif
    const auto keyed = parallel_sorted(
        opts, num_stubs, ~std::uint64_t{0},
        [seed](std::size_t i) {
          return std::pair{rng::derive_seed(seed, i), std::uint64_t{i}};
        },
        [](const auto& k) { return k.first; });
    for_edge_ranges([&](std::size_t, std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t i = lo; i < hi; ++i) {
        edges[i] = {static_cast<Vertex>(keyed[2 * i].second / d),
                    static_cast<Vertex>(keyed[2 * i + 1].second / d)};
      }
    });
  }

  // Defects, ascending: every self-loop, and every copy of an edge after
  // its lowest-index one — exactly the edges a set of present edges,
  // filled in index order, would reject. Sorting (key, index) pairs puts
  // each edge's copies side by side, lowest index first.
  std::vector<char> bad(num_edges, 0);
  std::vector<std::size_t> defective;
  KeyedEdges by_key;
  std::vector<char> absent(num_edges, 0);  // by_key slots that are defects
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.rreg.dedup");
    obs::ScopedTimer timed(timer);
#endif
    by_key = parallel_sorted(
        opts, num_edges, n - 1,
        [&](std::size_t i) {
          return std::pair{edge_key(edges[i].first, edges[i].second),
                           std::uint64_t{i}};
        },
        [](const auto& k) { return k.first >> 32; });
    std::vector<std::vector<std::size_t>> found(edge_chunks);
    for_edge_ranges([&](std::size_t c, std::uint64_t lo, std::uint64_t hi) {
      for (std::uint64_t p = lo; p < hi; ++p) {
        const auto [key, i] = by_key[p];
        if (is_loop(key) || (p > 0 && by_key[p - 1].first == key)) {
          bad[i] = 1;
          absent[p] = 1;
          found[c].push_back(i);
        }
      }
    });
    defective = concat(found);
    std::sort(defective.begin(), defective.end());
  }
  obs::count("gen.rreg.defects", defective.size());

  // Edge-swap repair: defective (u,v) + random clean (x,y) -> (u,x) +
  // (v,y), accepted when both results are loop-free and new. A raw
  // uniform stub pairing contains Θ(d^2) self-loops and parallel edges in
  // expectation, so retry-until-simple is hopeless beyond small d; the
  // double-swap preserves the degree sequence exactly and (by the
  // standard switching argument) leaves the distribution asymptotically
  // uniform over simple d-regular graphs. Serial by design — its work is
  // O(defects) draws plus O(log m) lookups each, and a serial pass with a
  // derived seed keeps the result a pure function of (n, d, seed).
  {
#if COBRA_OBS_LEVEL >= 1
    static obs::Timer& timer = obs::registry().timer("gen.rreg.repair");
    obs::ScopedTimer timed(timer);
#endif
    CleanEdges present(std::move(by_key), std::move(absent));
    ChunkEngine repair_eng(rng::derive_seed(~seed, 0x5e9a1));
    for (std::uint32_t pass = 0; pass < max_passes && !defective.empty();
         ++pass) {
      std::vector<std::size_t> still_bad;
      for (const std::size_t i : defective) {
        const auto [u, v] = edges[i];
        const auto j = static_cast<std::size_t>(
            rng::uniform_below(repair_eng, num_edges));
        const auto [x, y] = edges[j];
        if (j == i || bad[j] != 0 || u == x || v == y ||
            edge_key(u, x) == edge_key(v, y) ||
            present.contains(edge_key(u, x)) ||
            present.contains(edge_key(v, y))) {
          still_bad.push_back(i);
          continue;
        }
        present.erase(edge_key(x, y));
        present.insert(edge_key(u, x));
        present.insert(edge_key(v, y));
        edges[i] = {u, x};
        edges[j] = {v, y};
        bad[i] = 0;
      }
      defective.swap(still_bad);
    }
  }
  if (!defective.empty()) {
    throw std::runtime_error(
        "random_regular: repair failed; degree too large for n?");
  }

  std::vector<std::vector<Edge>> chunks(1);
  chunks[0] = std::move(edges);
  return assemble(n, chunks, false, opts);
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
  return assemble(n, chunks, false, opts);
}

}  // namespace cobra::gen
