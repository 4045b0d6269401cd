/// Cross-RNG validation: key statistical results must agree under two
/// structurally different generators (xoshiro256++ vs PCG32x64). This is
/// the standard hygiene test for Monte-Carlo code — agreement rules out
/// generator artifacts in the headline numbers.

#include <gtest/gtest.h>

#include <cmath>

#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "rng/distributions.hpp"
#include "rng/pcg32.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra {
namespace {

using graph::Graph;
using graph::Vertex;

/// A generator-generic single-source cobra cover (the library's production
/// CobraWalk fixes Engine = Xoshiro256; this mirror exercises the identical
/// algorithm under any full-range generator).
template <rng::Uint64Generator G>
std::uint64_t generic_cobra_cover(const Graph& g, Vertex start, G& gen,
                                  std::uint64_t max_steps) {
  std::vector<Vertex> frontier{start};
  std::vector<Vertex> next;
  std::vector<std::uint32_t> stamp(g.num_vertices(), 0);
  std::vector<std::uint8_t> covered(g.num_vertices(), 0);
  std::uint32_t epoch = 0;
  std::uint32_t covered_count = 1;
  covered[start] = 1;
  std::uint64_t steps = 0;
  while (covered_count < g.num_vertices() && steps < max_steps) {
    ++epoch;
    next.clear();
    for (const Vertex v : frontier) {
      const auto nbrs = g.neighbors(v);
      for (int i = 0; i < 2; ++i) {
        const Vertex u = nbrs[static_cast<std::size_t>(
            rng::uniform_below(gen, nbrs.size()))];
        if (stamp[u] != epoch) {
          stamp[u] = epoch;
          next.push_back(u);
          if (covered[u] == 0) {
            covered[u] = 1;
            ++covered_count;
          }
        }
      }
    }
    frontier.swap(next);
    ++steps;
  }
  return steps;
}

TEST(CrossRng, CobraCoverMeansAgreeOnGrid) {
  const Graph g = graph::make_grid(2, 8);
  constexpr int kTrials = 200;
  double xo_total = 0, pcg_total = 0;
  for (int t = 0; t < kTrials; ++t) {
    rng::Xoshiro256 xo(rng::derive_seed(1, static_cast<std::uint64_t>(t)));
    xo_total += static_cast<double>(generic_cobra_cover(g, 0, xo, 1u << 22));
    rng::Pcg32x64 pcg(rng::derive_seed(2, static_cast<std::uint64_t>(t)), 54u);
    pcg_total += static_cast<double>(generic_cobra_cover(g, 0, pcg, 1u << 22));
  }
  const double xo_mean = xo_total / kTrials;
  const double pcg_mean = pcg_total / kTrials;
  EXPECT_NEAR(xo_mean / pcg_mean, 1.0, 0.15)
      << "xoshiro " << xo_mean << " vs pcg " << pcg_mean;
}

TEST(CrossRng, CobraCoverMeansAgreeOnExpander) {
  rng::Xoshiro256 graph_gen(5);
  const Graph g = gen::random_regular(128, 4, graph_gen());
  constexpr int kTrials = 300;
  double xo_total = 0, pcg_total = 0;
  for (int t = 0; t < kTrials; ++t) {
    rng::Xoshiro256 xo(rng::derive_seed(3, static_cast<std::uint64_t>(t)));
    xo_total += static_cast<double>(generic_cobra_cover(g, 0, xo, 1u << 22));
    rng::Pcg32x64 pcg(rng::derive_seed(4, static_cast<std::uint64_t>(t)), 99u);
    pcg_total += static_cast<double>(generic_cobra_cover(g, 0, pcg, 1u << 22));
  }
  EXPECT_NEAR((xo_total / kTrials) / (pcg_total / kTrials), 1.0, 0.15);
}

TEST(CrossRng, UniformBelowAgreesAcrossEngines) {
  // First-moment agreement of the bounded sampler across engines.
  rng::Xoshiro256 xo(7);
  rng::Pcg32x64 pcg(7, 3);
  constexpr int kDraws = 500000;
  constexpr std::uint64_t kBound = 1000;
  double xo_total = 0, pcg_total = 0;
  for (int i = 0; i < kDraws; ++i) {
    xo_total += static_cast<double>(rng::uniform_below(xo, kBound));
    pcg_total += static_cast<double>(rng::uniform_below(pcg, kBound));
  }
  EXPECT_NEAR(xo_total / kDraws, 499.5, 2.0);
  EXPECT_NEAR(pcg_total / kDraws, 499.5, 2.0);
}

}  // namespace
}  // namespace cobra
