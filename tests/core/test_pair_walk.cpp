#include "core/pair_walk.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "graph/generators.hpp"
#include "graph/tensor_product.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_hypercube;

TEST(PairWalk, MovesAlongEdges) {
  const Graph g = make_cycle(10);
  Engine gen(1);
  PairWalk walk(g, 0, 5, /*lazy=*/false);
  Vertex prev_i = walk.position_i(), prev_j = walk.position_j();
  for (int t = 0; t < 300; ++t) {
    walk.step(gen);
    EXPECT_TRUE(g.has_edge(prev_i, walk.position_i()));
    EXPECT_TRUE(g.has_edge(prev_j, walk.position_j()));
    prev_i = walk.position_i();
    prev_j = walk.position_j();
  }
}

TEST(PairWalk, LazyFreezesBothTogether) {
  const Graph g = make_cycle(8);
  Engine gen(2);
  PairWalk walk(g, 0, 4, /*lazy=*/true);
  int frozen = 0;
  constexpr int kSteps = 8000;
  for (int t = 0; t < kSteps; ++t) {
    const auto before = walk.positions();
    walk.step(gen);
    // On C8 a non-lazy move always changes both positions (no self loops).
    if (walk.positions() == before) ++frozen;
  }
  EXPECT_NEAR(static_cast<double>(frozen) / kSteps, 0.5, 0.03);
}

TEST(PairWalk, CopyProbabilityWhenColocated) {
  // Co-located on K_n: j ends at i's destination w.p. 1/2 + 1/2(n-1).
  const Graph g = make_complete(11);  // d = 10
  Engine gen(3);
  int together = 0;
  constexpr int kTrials = 50000;
  for (int t = 0; t < kTrials; ++t) {
    PairWalk walk(g, 4, 4, /*lazy=*/false);
    walk.step(gen);
    if (walk.collided()) ++together;
  }
  EXPECT_NEAR(static_cast<double>(together) / kTrials, 0.5 + 0.05, 0.01);
}

TEST(PairWalk, IndependentWhenApart) {
  // Apart on K11 (d = 10): both move to independent uniform neighbors;
  // the neighborhoods of 0 and 5 share 9 vertices, so the collision
  // probability is 9 * (1/10)^2 = 0.09.
  const Graph g = make_complete(11);
  Engine gen(4);
  int together = 0;
  constexpr int kTrials = 50000;
  for (int t = 0; t < kTrials; ++t) {
    PairWalk walk(g, 0, 5, false);
    walk.step(gen);
    if (walk.collided()) ++together;
  }
  EXPECT_NEAR(static_cast<double>(together) / kTrials, 0.09, 0.01);
}

TEST(PairWalk, LongRunCollisionMatchesLemma11Stationary) {
  // After mixing, Pr[i and j at the same vertex] = n * pi(S1 vertex)
  // = 2n/(n^2+n) = 2/(n+1). Measure on K8 (well-mixing).
  const Graph g = make_complete(8);
  Engine gen(5);
  PairWalk walk(g, 0, 0, /*lazy=*/true);
  // Burn-in.
  for (int t = 0; t < 2000; ++t) walk.step(gen);
  std::uint64_t collided = 0;
  constexpr int kSteps = 300000;
  for (int t = 0; t < kSteps; ++t) {
    walk.step(gen);
    if (walk.collided()) ++collided;
  }
  EXPECT_NEAR(static_cast<double>(collided) / kSteps, 2.0 / 9.0, 0.01);
}

TEST(PairWalk, EmpiricalDistributionMatchesDigraphStationary) {
  // The simulated pair walk and the D(G x G) matrix walk are the same
  // process: long-run occupancy of each product state must match the
  // Eulerian closed form (diagonal states twice as likely).
  const Graph g = make_complete(5);
  const auto closed = graph::walt_pair_stationary(5);
  Engine gen(6);
  PairWalk walk(g, 0, 3, /*lazy=*/true);
  for (int t = 0; t < 2000; ++t) walk.step(gen);
  std::vector<std::uint64_t> visits(25, 0);
  constexpr int kSteps = 2000000;
  for (int t = 0; t < kSteps; ++t) {
    walk.step(gen);
    ++visits[walk.product_id()];
  }
  for (Vertex pv = 0; pv < 25; ++pv) {
    const double expected =
        graph::is_diagonal(pv, 5) ? closed.diagonal : closed.off_diagonal;
    EXPECT_NEAR(static_cast<double>(visits[pv]) / kSteps, expected, 0.004)
        << "pv=" << pv;
  }
}

TEST(PairWalk, CopyEventsCounted) {
  const Graph g = make_complete(6);
  Engine gen(7);
  PairWalk walk(g, 2, 2, false);
  walk.step(gen);
  // First step from co-location: copy happened or not; counter <= rounds.
  EXPECT_LE(walk.copy_events(), walk.round());
}

TEST(PairWalk, ProcessViewTracksTheProductState) {
  // The sim::Process view: active() is the one product-space state, n() is
  // the product-space size, and the cached id follows every transition
  // (ctor, step).
  const Graph g = make_cycle(6);
  Engine gen(8);
  PairWalk walk(g, 2, 5, /*lazy=*/false);
  EXPECT_EQ(walk.n(), 36u);
  ASSERT_EQ(walk.active().size(), 1u);
  EXPECT_EQ(walk.active()[0], walk.product_id());
  EXPECT_EQ(walk.active()[0], 2u * 6u + 5u);
  for (int t = 0; t < 200; ++t) {
    walk.step(gen);
    ASSERT_EQ(walk.active()[0], walk.product_id()) << "round " << t;
  }
}

TEST(PairWalk, InvalidConstruction) {
  const Graph g = make_cycle(5);
  EXPECT_THROW(PairWalk(g, 9, 0), std::out_of_range);
  EXPECT_THROW(PairWalk(g, 0, 9), std::out_of_range);
  EXPECT_THROW(PairWalk(Graph{}, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace cobra::core
