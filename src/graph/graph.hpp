#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file graph.hpp
/// The immutable CSR (compressed sparse row) graph — the substrate every
/// process in this library walks on. Design constraints, in priority order:
///
///   1. Neighbor scans must be contiguous: `neighbors(v)` returns a span
///      into one flat array, so the cobra-walk hot loop touches exactly one
///      cache line stream per vertex.
///   2. Vertices are 32-bit ids. The paper's experiments top out around
///      10^6-10^7 vertices; 32-bit ids halve memory traffic vs 64-bit.
///   3. Graphs are undirected and static. Edge lists compile through
///      `from_edges` (builder.hpp); once built, a `Graph` never changes,
///      making it trivially shareable across Monte-Carlo worker threads.
///
/// Multi-edges are permitted (the configuration model produces them before
/// simplification); self-loops are permitted but every generator in
/// generators.hpp avoids them unless documented otherwise.

namespace cobra::graph {

using Vertex = std::uint32_t;
using EdgeIndex = std::uint64_t;

class Graph {
 public:
  /// An empty graph with zero vertices.
  Graph() = default;

  /// Construct directly from CSR arrays. `offsets` must have size
  /// `num_vertices + 1`, be non-decreasing, start at 0 and end at
  /// `targets.size()`; every target must be < num_vertices. Each undirected
  /// edge {u, v} appears twice: v in u's list and u in v's. Violations
  /// throw std::invalid_argument. Prefer from_edges over calling this.
  Graph(std::uint32_t num_vertices, std::vector<EdgeIndex> offsets,
        std::vector<Vertex> targets);

  [[nodiscard]] std::uint32_t num_vertices() const noexcept { return n_; }

  /// Number of undirected edges (half the stored directed arcs). Self-loops
  /// count once and contribute 2 to their endpoint's degree, matching the
  /// standard convention vol(V) = 2|E|.
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return targets_.size() / 2;
  }

  /// Number of stored directed arcs (= 2 |E|).
  [[nodiscard]] std::uint64_t num_arcs() const noexcept { return targets_.size(); }

  [[nodiscard]] std::uint32_t degree(Vertex v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Contiguous view of v's neighbor list (with multiplicity for
  /// multi-edges). Never dangles while the Graph is alive.
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return {targets_.data() + offsets_[v],
            targets_.data() + offsets_[v + 1]};
  }

  /// The i-th neighbor of v, 0 <= i < degree(v), unchecked in release.
  [[nodiscard]] Vertex neighbor(Vertex v, std::uint32_t i) const {
    return targets_[offsets_[v] + i];
  }

  [[nodiscard]] std::uint32_t min_degree() const noexcept;
  [[nodiscard]] std::uint32_t max_degree() const noexcept;
  [[nodiscard]] double average_degree() const noexcept;

  /// True when every vertex has the same degree; `regular_degree` returns
  /// that degree (0 for the empty graph, meaningless when not regular).
  [[nodiscard]] bool is_regular() const noexcept;

  /// True if no self-loops and no parallel edges.
  [[nodiscard]] bool is_simple() const;

  /// True if u and v are adjacent (O(deg) scan; fine for tests/assertions).
  [[nodiscard]] bool has_edge(Vertex u, Vertex v) const;

  /// Full CSR invariant check, INCLUDING the arc symmetry the constructor
  /// deliberately skips: offsets shape/monotonicity, targets in range, and
  /// every arc (u, v) matched by a (v, u) with equal multiplicity (checked
  /// via a sort-free +/-1 keyed-hash tally, O(m) expected). Returns false
  /// and describes the first violation in `*error` (when non-null). This
  /// is the debug-mode safety net behind every generator build (see
  /// gen/registry.cpp) — a generator bug that emits an asymmetric CSR
  /// would otherwise surface as a wrong STATISTIC, not a crash.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

  /// Sum of degrees of all vertices (= num_arcs).
  [[nodiscard]] std::uint64_t volume() const noexcept { return targets_.size(); }

  /// Raw CSR access for algorithms that want to iterate arcs directly.
  [[nodiscard]] const std::vector<EdgeIndex>& offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] const std::vector<Vertex>& targets() const noexcept {
    return targets_;
  }

 private:
  std::uint32_t n_ = 0;
  std::vector<EdgeIndex> offsets_ = {0};
  std::vector<Vertex> targets_;
};

}  // namespace cobra::graph
