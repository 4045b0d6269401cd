#pragma once

/// Test-only reference for gen::random_regular: the set-based serial
/// generator that gen::random_regular replaced. Its pairing, defect
/// detection and repair are the straightforward reading of the algorithm
/// (std::sort of the keyed stubs, a std::set of present edges, swaps that
/// consult the set), so the production generator must reproduce its CSR
/// exactly. Kept out of the library; only tests include it.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::gen::reference {

inline graph::Graph random_regular(std::uint32_t n, std::uint32_t d,
                                   std::uint64_t seed,
                                   std::uint32_t max_passes = 200) {
  using graph::EdgeIndex;
  using graph::Vertex;
  using Edge = std::pair<Vertex, Vertex>;
  using ChunkEngine = rng::Xoshiro256;

  if (d >= n) throw std::invalid_argument("random_regular: d < n");
  if ((static_cast<std::uint64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("random_regular: n*d must be even");
  }
  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * d;

  std::vector<std::pair<std::uint64_t, std::uint64_t>> keyed(num_stubs);
  for (std::uint64_t i = 0; i < num_stubs; ++i) {
    keyed[i] = {rng::derive_seed(seed, i), i};
  }
  std::sort(keyed.begin(), keyed.end());

  const std::size_t num_edges = num_stubs / 2;
  std::vector<Edge> edges(num_edges);
  std::set<Edge> present;
  std::vector<char> bad(num_edges, 0);
  auto canonical = [](Vertex a, Vertex b) {
    return a < b ? Edge{a, b} : Edge{b, a};
  };
  std::vector<std::size_t> defective;
  for (std::size_t i = 0; i < num_edges; ++i) {
    edges[i] = {static_cast<Vertex>(keyed[2 * i].second / d),
                static_cast<Vertex>(keyed[2 * i + 1].second / d)};
    const auto [a, b] = edges[i];
    if (a == b || !present.insert(canonical(a, b)).second) {
      bad[i] = 1;
      defective.push_back(i);
    }
  }

  ChunkEngine repair_eng(rng::derive_seed(~seed, 0x5e9a1));
  for (std::uint32_t pass = 0; pass < max_passes && !defective.empty();
       ++pass) {
    std::vector<std::size_t> still_bad;
    for (const std::size_t i : defective) {
      const auto [u, v] = edges[i];
      const auto j =
          static_cast<std::size_t>(rng::uniform_below(repair_eng, num_edges));
      const auto [x, y] = edges[j];
      if (j == i || bad[j] != 0 || u == x || v == y ||
          canonical(u, x) == canonical(v, y) ||
          present.contains(canonical(u, x)) ||
          present.contains(canonical(v, y))) {
        still_bad.push_back(i);
        continue;
      }
      present.erase(canonical(x, y));
      present.insert(canonical(u, x));
      present.insert(canonical(v, y));
      edges[i] = {u, x};
      edges[j] = {v, y};
      bad[i] = 0;
    }
    defective.swap(still_bad);
  }
  if (!defective.empty()) {
    throw std::runtime_error(
        "random_regular: repair failed; degree too large for n?");
  }

  // CSR by counting sort, each adjacency list sorted.
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++offsets[static_cast<std::size_t>(u) + 1];
    ++offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<Vertex> targets(offsets.back());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    targets[cursor[u]++] = v;
    targets[cursor[v]++] = u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
  }
  return graph::Graph(n, std::move(offsets), std::move(targets));
}

}  // namespace cobra::gen::reference
