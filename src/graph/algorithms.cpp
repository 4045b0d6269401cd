#include "graph/algorithms.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parallel/bucket_sort.hpp"
#include "parallel/parallel_for.hpp"

namespace cobra::graph {

namespace {

/// Shared BFS core filling distances and optionally parents.
void bfs_core(const Graph& g, Vertex source, std::vector<std::uint32_t>& dist,
              std::vector<Vertex>* parents) {
  if (source >= g.num_vertices()) {
    throw std::out_of_range("bfs: source out of range");
  }
  dist.assign(g.num_vertices(), kUnreachable);
  if (parents != nullptr) parents->assign(g.num_vertices(), kUnreachable);

  std::vector<Vertex> frontier{source};
  std::vector<Vertex> next;
  dist[source] = 0;
  if (parents != nullptr) (*parents)[source] = source;

  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (const Vertex v : frontier) {
      for (const Vertex u : g.neighbors(v)) {
        if (dist[u] == kUnreachable) {
          dist[u] = level;
          if (parents != nullptr) (*parents)[u] = v;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
}

/// Vertices per work range of the component passes. Only the work split
/// depends on it, never a label or an extracted graph.
constexpr std::size_t kRangeVertices = std::size_t{1} << 14;

std::size_t num_ranges(std::uint32_t n) {
  return (n + kRangeVertices - 1) / kRangeVertices;
}

/// body(r, lo, hi) for every vertex range [lo, hi) of [0, n), across `pool`
/// when one is given.
template <typename Body>
void for_ranges(par::ThreadPool* pool, std::uint32_t n, const Body& body) {
  par::for_each_index(pool, num_ranges(n), [&](std::size_t r) {
    const std::size_t lo = r * kRangeVertices;
    body(r, static_cast<Vertex>(lo),
         static_cast<Vertex>(std::min<std::size_t>(n, lo + kRangeVertices)));
  });
}

/// Root of x's tree in the union-find forest `parent`, halving the path on
/// the way. Every non-root points at a smaller vertex in its own set, so a
/// stale read still lands in the right tree and a halving store can only
/// shorten a path.
Vertex find_root(std::vector<Vertex>& parent, Vertex x) {
  for (;;) {
    const Vertex p = std::atomic_ref(parent[x]).load(std::memory_order_relaxed);
    if (p == x) return x;
    const Vertex up =
        std::atomic_ref(parent[p]).load(std::memory_order_relaxed);
    if (up != p) {
      std::atomic_ref(parent[x]).store(up, std::memory_order_relaxed);
    }
    x = up;
  }
}

/// Each vertex's component label: the component's minimum vertex. A
/// union-find over every arc (v, u) with u < v, where a link hangs the
/// larger root under the smaller one by CAS, so each tree's root is its
/// smallest member under every schedule and the labels do not depend on
/// the pool (nullptr runs in-line).
std::vector<Vertex> min_vertex_labels(const Graph& g, par::ThreadPool* pool) {
  const std::uint32_t n = g.num_vertices();
  std::vector<Vertex> parent(n);
  std::iota(parent.begin(), parent.end(), Vertex{0});
  for_ranges(pool, n, [&](std::size_t, Vertex lo, Vertex hi) {
    for (Vertex v = lo; v < hi; ++v) {
      for (const Vertex u : g.neighbors(v)) {
        if (u >= v) continue;
        Vertex a = v;
        Vertex b = u;
        for (;;) {
          a = find_root(parent, a);
          b = find_root(parent, b);
          if (a == b) break;
          if (a < b) std::swap(a, b);
          Vertex expected = a;
          if (std::atomic_ref(parent[a]).compare_exchange_strong(
                  expected, b, std::memory_order_relaxed)) {
            break;
          }
        }
      }
    }
  });
  // Flatten: each range stores only its own slots, and walks without
  // halving — a halving store could overwrite a slot its owner already
  // pointed at the root.
  for_ranges(pool, n, [&](std::size_t, Vertex lo, Vertex hi) {
    for (Vertex v = lo; v < hi; ++v) {
      Vertex root = v;
      for (Vertex p; (p = std::atomic_ref(parent[root]).load(
                          std::memory_order_relaxed)) != root;) {
        root = p;
      }
      std::atomic_ref(parent[v]).store(root, std::memory_order_relaxed);
    }
  });
  return parent;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  std::vector<std::uint32_t> dist;
  bfs_core(g, source, dist, nullptr);
  return dist;
}

std::vector<Vertex> bfs_parents(const Graph& g, Vertex source) {
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> parents;
  bfs_core(g, source, dist, &parents);
  return parents;
}

std::vector<Vertex> shortest_path(const Graph& g, Vertex source, Vertex target) {
  const auto parents = bfs_parents(g, source);
  if (target >= g.num_vertices() || parents[target] == kUnreachable) return {};
  std::vector<Vertex> path{target};
  Vertex cur = target;
  while (cur != source) {
    cur = parents[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

bool is_connected(const Graph& g) {
  if (g.num_vertices() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::vector<std::uint32_t> connected_components(const Graph& g) {
  // A vertex's label is its component's minimum vertex, so label[v] <= v:
  // by the time the scan reaches v, its root already holds the root's id.
  std::vector<std::uint32_t> component = min_vertex_labels(g, nullptr);
  std::uint32_t next_id = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    component[v] = component[v] == v ? next_id++ : component[component[v]];
  }
  return component;
}

std::uint32_t num_components(const Graph& g) {
  const auto label = min_vertex_labels(g, nullptr);
  std::uint32_t count = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (label[v] == v) ++count;
  }
  return count;
}

ComponentExtraction largest_component(const Graph& g, par::ThreadPool* pool) {
  const std::uint32_t n = g.num_vertices();
  if (g.num_edges() <= par::kSortChunk) pool = nullptr;
  const std::vector<Vertex> label = min_vertex_labels(g, pool);

  // Ties go to the smaller minimum vertex: the first maximum in root order.
  std::vector<std::uint32_t> size(n, 0);
  for (const Vertex root : label) ++size[root];
  const auto best = static_cast<Vertex>(
      std::max_element(size.begin(), size.end()) - size.begin());
  std::vector<std::uint32_t>().swap(size);

  // Per range: kept vertices and their arcs, then the ranges' bases.
  const std::size_t ranges = num_ranges(n);
  std::vector<std::pair<Vertex, EdgeIndex>> base(ranges + 1);
  for_ranges(pool, n, [&](std::size_t r, Vertex lo, Vertex hi) {
    for (Vertex v = lo; v < hi; ++v) {
      if (label[v] != best) continue;
      ++base[r + 1].first;
      base[r + 1].second += g.degree(v);
    }
  });
  for (std::size_t r = 0; r < ranges; ++r) {
    base[r + 1].first += base[r].first;
    base[r + 1].second += base[r].second;
  }

  // The old -> new map is monotone, so relabelled sorted rows stay sorted,
  // and a kept vertex keeps every arc (its neighbours share its component).
  ComponentExtraction out;
  const Vertex kept = base[ranges].first;
  out.old_to_new.resize(n);
  out.new_to_old.resize(kept);
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(kept) + 1, 0);
  for_ranges(pool, n, [&](std::size_t r, Vertex lo, Vertex hi) {
    auto [next, arcs] = base[r];
    for (Vertex v = lo; v < hi; ++v) {
      if (label[v] != best) {
        out.old_to_new[v] = kUnreachable;
        continue;
      }
      out.old_to_new[v] = next;
      out.new_to_old[next] = v;
      arcs += g.degree(v);
      offsets[++next] = arcs;
    }
  });
  std::vector<Vertex> targets(offsets.back());
  for_ranges(pool, n, [&](std::size_t, Vertex lo, Vertex hi) {
    for (Vertex v = lo; v < hi; ++v) {
      if (label[v] != best) continue;
      const auto row = targets.begin() + static_cast<std::ptrdiff_t>(
                                             offsets[out.old_to_new[v]]);
      auto end = row;
      for (const Vertex u : g.neighbors(v)) *end++ = out.old_to_new[u];
      if (!std::is_sorted(row, end)) std::sort(row, end);
    }
  });
  out.graph = Graph(kept, std::move(offsets), std::move(targets));
  return out;
}

std::uint32_t eccentricity(const Graph& g, Vertex v) {
  const auto dist = bfs_distances(g, v);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t exact_diameter(const Graph& g) {
  std::uint32_t diameter = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const std::uint32_t ecc = eccentricity(g, v);
    if (ecc == kUnreachable) return kUnreachable;
    diameter = std::max(diameter, ecc);
  }
  return diameter;
}

std::uint32_t double_sweep_diameter_lb(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  const auto dist0 = bfs_distances(g, 0);
  Vertex far = 0;
  std::uint32_t best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (dist0[v] != kUnreachable && dist0[v] > best) {
      best = dist0[v];
      far = v;
    }
  }
  // Second sweep from the farthest vertex; ignore unreachable vertices so
  // the heuristic still returns the component-local diameter bound.
  const auto dist1 = bfs_distances(g, far);
  std::uint32_t lb = 0;
  for (const std::uint32_t d : dist1) {
    if (d != kUnreachable) lb = std::max(lb, d);
  }
  return lb;
}

std::uint64_t path_degree_sum(const Graph& g, const std::vector<Vertex>& path) {
  std::uint64_t total = 0;
  for (const Vertex v : path) total += g.degree(v);
  return total;
}

}  // namespace cobra::graph
