#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <map>
#include <unordered_set>

namespace cobra::graph {

Graph::Graph(std::uint32_t num_vertices, std::vector<EdgeIndex> offsets,
             std::vector<Vertex> targets)
    : n_(num_vertices), offsets_(std::move(offsets)), targets_(std::move(targets)) {
  if (offsets_.size() != static_cast<std::size_t>(n_) + 1) {
    throw std::invalid_argument("Graph: offsets size must be n + 1");
  }
  if (offsets_.front() != 0 || offsets_.back() != targets_.size()) {
    throw std::invalid_argument("Graph: offsets must span [0, targets.size()]");
  }
  for (std::size_t i = 0; i + 1 < offsets_.size(); ++i) {
    if (offsets_[i] > offsets_[i + 1]) {
      throw std::invalid_argument("Graph: offsets must be non-decreasing");
    }
  }
  for (const Vertex t : targets_) {
    if (t >= n_) throw std::invalid_argument("Graph: target vertex out of range");
  }
  // Undirectedness (arc symmetry) is the caller's job: GraphBuilder, gen's
  // CSR assembly and largest_component all emit both arcs of every edge.
  // Re-verifying here would cost a full pass on every build; build_graph
  // audits it with validate() in debug builds.
}

std::uint32_t Graph::min_degree() const noexcept {
  std::uint32_t best = n_ == 0 ? 0 : ~0U;
  for (Vertex v = 0; v < n_; ++v) best = std::min(best, degree(v));
  return best;
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (Vertex v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::average_degree() const noexcept {
  if (n_ == 0) return 0.0;
  return static_cast<double>(targets_.size()) / static_cast<double>(n_);
}

bool Graph::is_regular() const noexcept {
  if (n_ == 0) return true;
  const std::uint32_t d = degree(0);
  for (Vertex v = 1; v < n_; ++v) {
    if (degree(v) != d) return false;
  }
  return true;
}

bool Graph::is_simple() const {
  for (Vertex v = 0; v < n_; ++v) {
    // cobra-lint: allow(D2-unordered) membership probe only — never
    // iterated, and the boolean result is insertion-order invariant.
    std::unordered_set<Vertex> seen;
    for (const Vertex u : neighbors(v)) {
      if (u == v) return false;                  // self-loop
      if (!seen.insert(u).second) return false;  // parallel edge
    }
  }
  return true;
}

bool Graph::validate(std::string* error) const {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (offsets_.size() != static_cast<std::size_t>(n_) + 1) {
    return fail("offsets size is " + std::to_string(offsets_.size()) +
                ", expected n + 1 = " + std::to_string(n_ + 1));
  }
  if (offsets_.front() != 0) return fail("offsets[0] != 0");
  if (offsets_.back() != targets_.size()) {
    return fail("offsets[n] = " + std::to_string(offsets_.back()) +
                " != num arcs " + std::to_string(targets_.size()));
  }
  for (std::size_t i = 0; i + 1 < offsets_.size(); ++i) {
    if (offsets_[i] > offsets_[i + 1]) {
      return fail("offsets decrease at vertex " + std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i] >= n_) {
      return fail("arc " + std::to_string(i) + " targets vertex " +
                  std::to_string(targets_[i]) + " >= n = " +
                  std::to_string(n_));
    }
  }
  // Arc symmetry with multiplicity: tally +1 for each arc (u, v) with
  // u < v and -1 for each (v, u); every key must net to zero. Self-loop
  // arcs (u, u) tally separately — a loop is stored as TWO arcs (it
  // contributes 2 to its endpoint's degree), so each vertex's loop-arc
  // count must be even. An ordered map so the FIRST defect reported is
  // the smallest (u, v) on every run/host — a hash map here made the
  // validate() diagnostic text iteration-order dependent.
  std::map<std::uint64_t, std::int64_t> balance;
  for (Vertex u = 0; u < n_; ++u) {
    for (const Vertex v : neighbors(u)) {
      if (u == v) {
        balance[(static_cast<std::uint64_t>(u) << 32) | u] += 1;
      } else if (u < v) {
        balance[(static_cast<std::uint64_t>(u) << 32) | v] += 1;
      } else {
        balance[(static_cast<std::uint64_t>(v) << 32) | u] -= 1;
      }
    }
  }
  for (const auto& [key, delta] : balance) {
    const auto u = static_cast<Vertex>(key >> 32);
    const auto v = static_cast<Vertex>(key & 0xFFFFFFFFu);
    if (u == v) {
      if (delta % 2 != 0) {
        return fail("odd self-loop arc count at vertex " + std::to_string(u));
      }
    } else if (delta != 0) {
      return fail("asymmetric edge {" + std::to_string(u) + ", " +
                  std::to_string(v) + "}: arc multiplicities differ by " +
                  std::to_string(delta < 0 ? -delta : delta));
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (u >= n_ || v >= n_) return false;
  const auto nbrs = neighbors(u);
  return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
}

}  // namespace cobra::graph
