#include "core/exact_cobra.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "numeric/dense.hpp"

namespace cobra::core {

namespace {

/// Sparse distribution of the sample-set mask emitted by one active vertex.
struct SampleDist {
  std::vector<std::pair<std::uint32_t, double>> entries;  // (mask, prob)
};

/// Distribution of the set of distinct vertices among k uniform neighbor
/// samples of v (k = 1: singletons; k = 2: singletons and pairs).
SampleDist vertex_sample_dist(const Graph& g, Vertex v, std::uint32_t k) {
  SampleDist dist;
  const auto nbrs = g.neighbors(v);
  const double d = static_cast<double>(nbrs.size());
  if (k == 1) {
    for (const Vertex u : nbrs) {
      dist.entries.push_back({1u << u, 1.0 / d});
    }
    return dist;
  }
  // k = 2: every ordered pair of samples has probability 1/d^2; its mask
  // is the pair's union. Push all ordered pairs and merge duplicates below
  // (d <= 10 here, so at most 100 entries) — multigraph-safe, since
  // parallel edges simply contribute their mask multiple times.
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const std::uint32_t mask = (1u << nbrs[i]) | (1u << nbrs[j]);
      dist.entries.push_back({mask, 1.0 / (d * d)});
    }
  }
  // Merge duplicate masks.
  std::vector<std::pair<std::uint32_t, double>> merged;
  for (const auto& [mask, p] : dist.entries) {
    bool found = false;
    for (auto& [m2, p2] : merged) {
      if (m2 == mask) {
        p2 += p;
        found = true;
        break;
      }
    }
    if (!found) merged.push_back({mask, p});
  }
  dist.entries = std::move(merged);
  return dist;
}

}  // namespace

ExactCobra::ExactCobra(const Graph& g, std::uint32_t branching)
    : g_(&g), k_(branching), n_(g.num_vertices()) {
  if (branching < 1 || branching > 2) {
    throw std::invalid_argument("ExactCobra: branching must be 1 or 2");
  }
  if (n_ == 0 || n_ > 10) {
    throw std::invalid_argument("ExactCobra: requires 1 <= n <= 10");
  }
  if (g.min_degree() == 0 || !graph::is_connected(g)) {
    throw std::invalid_argument("ExactCobra: connected graph required");
  }

  std::vector<SampleDist> per_vertex(n_);
  for (Vertex v = 0; v < n_; ++v) per_vertex[v] = vertex_sample_dist(g, v, k_);

  const std::uint32_t subsets = 1u << n_;
  trans_.assign(subsets, {});
  std::vector<double> buffer(subsets);
  for (std::uint32_t a = 1; a < subsets; ++a) {
    std::vector<double> dist(subsets, 0.0);
    dist[0] = 1.0;
    for (Vertex v = 0; v < n_; ++v) {
      if (((a >> v) & 1u) == 0) continue;
      std::fill(buffer.begin(), buffer.end(), 0.0);
      for (std::uint32_t m = 0; m < subsets; ++m) {
        const double p = dist[m];
        if (p == 0.0) continue;
        for (const auto& [sv, psv] : per_vertex[v].entries) {
          buffer[m | sv] += p * psv;
        }
      }
      dist.swap(buffer);
    }
    trans_[a] = std::move(dist);
  }
}

double ExactCobra::expected_hitting_time(Vertex start, Vertex target) const {
  if (start >= n_ || target >= n_) {
    throw std::out_of_range("ExactCobra::expected_hitting_time");
  }
  if (start == target) return 0.0;
  const std::uint32_t subsets = 1u << n_;
  const std::uint32_t target_bit = 1u << target;

  // Unknowns: T(A) for nonempty A not containing the target. Index map.
  std::vector<std::uint32_t> states;
  std::vector<std::int32_t> index(subsets, -1);
  for (std::uint32_t a = 1; a < subsets; ++a) {
    if ((a & target_bit) == 0) {
      index[a] = static_cast<std::int32_t>(states.size());
      states.push_back(a);
    }
  }
  const std::size_t m = states.size();
  numeric::Matrix system(m);
  std::vector<double> rhs(m, 1.0);
  for (std::size_t row = 0; row < m; ++row) {
    const std::uint32_t a = states[row];
    system.at(row, row) += 1.0;
    const auto& dist = trans_[a];
    for (std::uint32_t b = 1; b < subsets; ++b) {
      const double p = dist[b];
      if (p == 0.0 || (b & target_bit) != 0) continue;  // absorbed
      system.at(row, static_cast<std::size_t>(index[b])) -= p;
    }
  }
  const auto solution = numeric::solve_linear(system, rhs);
  return solution[static_cast<std::size_t>(index[1u << start])];
}

double ExactCobra::expected_cover_time(Vertex start) const {
  if (start >= n_) throw std::out_of_range("ExactCobra::expected_cover_time");
  if (n_ > 8) {
    throw std::invalid_argument("ExactCobra::expected_cover_time: n <= 8");
  }
  const std::uint32_t subsets = 1u << n_;
  const std::uint32_t full = subsets - 1;
  if (n_ == 1) return 0.0;

  // expected[C * subsets + A] = E[T | active A, covered C], for A subseteq
  // C, A nonempty. Layers processed in decreasing |C|; C = full is 0.
  std::vector<double> expected(static_cast<std::size_t>(subsets) * subsets, 0.0);

  // Group covered-masks by popcount, descending (skip C = full: all zero).
  std::vector<std::vector<std::uint32_t>> by_count(n_ + 1);
  for (std::uint32_t c = 1; c < full; ++c) {
    by_count[static_cast<std::size_t>(std::popcount(c))].push_back(c);
  }

  for (std::uint32_t count = n_ - 1; count >= 1; --count) {
    for (const std::uint32_t c : by_count[count]) {
      // Unknowns: nonempty A subseteq C. Enumerate subsets of C.
      std::vector<std::uint32_t> states;
      std::vector<std::int32_t> index(subsets, -1);
      for (std::uint32_t a = c; a != 0; a = (a - 1) & c) {
        index[a] = static_cast<std::int32_t>(states.size());
        states.push_back(a);
      }
      const std::size_t m = states.size();
      numeric::Matrix system(m);
      std::vector<double> rhs(m, 1.0);
      for (std::size_t row = 0; row < m; ++row) {
        const std::uint32_t a = states[row];
        system.at(row, row) += 1.0;
        const auto& dist = trans_[a];
        for (std::uint32_t b = 1; b < subsets; ++b) {
          const double p = dist[b];
          if (p == 0.0) continue;
          const std::uint32_t c_next = c | b;
          if (c_next == c) {
            system.at(row, static_cast<std::size_t>(index[b])) -= p;
          } else if (c_next != full) {
            rhs[row] += p * expected[static_cast<std::size_t>(c_next) * subsets + b];
          }
          // c_next == full: remaining expectation 0.
        }
      }
      const auto solution = numeric::solve_linear(system, rhs);
      for (std::size_t row = 0; row < m; ++row) {
        expected[static_cast<std::size_t>(c) * subsets + states[row]] =
            solution[row];
      }
    }
    if (count == 1) break;  // avoid unsigned underflow in the loop update
  }

  const std::uint32_t start_mask = 1u << start;
  return expected[static_cast<std::size_t>(start_mask) * subsets + start_mask];
}

}  // namespace cobra::core
