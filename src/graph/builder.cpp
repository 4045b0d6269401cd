#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "parallel/bucket_sort.hpp"
#include "parallel/parallel_for.hpp"

namespace cobra::graph {

/// With `simplify`, each chunk drops its loops and canonicalizes its edges
/// as (min, max), then one parallel sort + unique over all of them leaves
/// a deterministic function of the edge multiset.
///
/// The fill is owner-computes: [0, n) splits into one vertex range per
/// pool worker (one range in-line, and for phases of at most
/// par::kSortChunk edges), and each owner scans every chunk twice —
/// counting, then placing — the arcs whose source it owns, with plain
/// stores into rows no other owner touches. Every row receives its arcs
/// in chunk order whatever the owner count, so the rows (and after the
/// per-vertex sort, parallel over fixed vertex chunks) are bit-identical
/// at any thread count. No owner counts an arc whose source is >= n, so a
/// count short of 2 * edges rejects every out-of-range endpoint.
Graph from_edges(std::uint32_t n, std::span<std::vector<Edge>> chunks,
                 bool simplify, par::ThreadPool* pool) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("gen.assemble");
  obs::ScopedTimer timed(timer);
#endif
  std::size_t num_edges = 0;
  for (const auto& chunk : chunks) num_edges += chunk.size();
  std::vector<Edge> simple;
  if (simplify) {
    // A loop at a vertex >= n stays, for the count below to reject.
    par::for_each_index(pool, chunks.size(), [&](std::size_t c) {
      std::erase_if(chunks[c], [n](const Edge& e) {
        return e.first == e.second && e.first < n;
      });
      for (auto& [u, v] : chunks[c]) {
        if (u > v) std::swap(u, v);
      }
    });
    simple.reserve(num_edges);
    for (auto& chunk : chunks) {
      simple.insert(simple.end(), chunk.begin(), chunk.end());
      std::vector<Edge>().swap(chunk);
    }
    // Keys past key_max (an endpoint >= n, rejected below) are clamped so
    // that they cannot index past the sort's last bucket.
    const EdgeKey key_max = edge_key(n - 1, n - 1);
    simple = par::bucket_sorted(
        simple.size(), key_max, [&](std::size_t i) { return simple[i]; },
        [key_max](const Edge& e) {
          return std::min(edge_key(e.first, e.second), key_max);
        },
        simple.size() > par::kSortChunk ? pool : nullptr);
    simple.erase(std::unique(simple.begin(), simple.end()), simple.end());
    chunks = {&simple, 1};
    num_edges = simple.size();
  }

  par::ThreadPool* fill_pool = num_edges > par::kSortChunk ? pool : nullptr;
  const std::size_t owners =
      std::clamp<std::size_t>(fill_pool != nullptr ? fill_pool->size() : 1, 1,
                              std::max<std::uint32_t>(n, 1));
  const auto owner_start = [&](std::size_t o) {
    return static_cast<std::size_t>(std::uint64_t{n} * o / owners);
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
  par::for_each_index(fill_pool, owners, [&](std::size_t o) {
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
  if (offsets.back() != 2 * EdgeIndex{num_edges}) {
    throw std::invalid_argument("from_edges: endpoint out of range");
  }

  // Place: add the base to the owner's inner slots, then write each arc at
  // its row's cursor. The cursors are a separate n-sized array allocated
  // after `targets`, as in a serial counting sort. Placing through
  // `offsets` itself saves that array, but then glibc kept a freed graph
  // resident, and repeated 2^20 rreg builds peaked ~25 MB higher.
  std::vector<Vertex> targets(offsets.back());
  std::vector<EdgeIndex> cursor(n);
  par::for_each_index(fill_pool, owners, [&](std::size_t o) {
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

  // Rows per sort task: the rows end sorted whatever the split.
  constexpr std::size_t kRows = std::size_t{1} << 14;
  const std::size_t row_tasks = (std::size_t{n} + kRows - 1) / kRows;
  par::for_each_index(pool, row_tasks, [&](std::size_t c) {
    const std::size_t lo = c * kRows;
    const std::size_t hi = std::min<std::size_t>(n, lo + kRows);
    for (std::size_t v = lo; v < hi; ++v) {
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }
  });

  return Graph(n, std::move(offsets), std::move(targets));
}

}  // namespace cobra::graph
