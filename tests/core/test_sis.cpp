// The §1 SIS reading of a cobra walk, measured with sim observers: the
// infected set at round t is the walk's active set S_t, prevalence is
// sim::GrowthCurve, the ever-infected count is sim::CoverStop's covered
// count (incidence is its per-round growth), and "everyone exposed" is
// cover.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cobra_walk.hpp"
#include "graph/generators.hpp"
#include "sim/observers.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;

/// Ever-infected count per round, read off `exposed` after it absorbed
/// the round (the Runner feeds the stop rule before the observers).
auto ever_infected_of(const sim::CoverStop& exposed) {
  return sim::record_of([&exposed](const CobraWalk&) {
    return static_cast<double>(exposed.covered_count());
  });
}

TEST(Sis, PatientZeroInitialState) {
  const Graph g = make_grid(2, 5);
  const CobraWalk epi(g, 7, 2);
  sim::CoverStop exposed;
  sim::GrowthCurve prevalence;
  exposed.start(epi);
  prevalence.start(epi);
  EXPECT_EQ(epi.active().size(), 1u);
  EXPECT_EQ(exposed.covered_count(), 1u);
  EXPECT_FALSE(exposed.complete());
  ASSERT_EQ(prevalence.sizes().size(), 1u);
  EXPECT_EQ(prevalence.sizes()[0], 1u);
}

TEST(Sis, EverInfectedIsMonotone) {
  // Incidence (the growth of the ever-infected count) equals the number of
  // never-before-infected vertices in S_t, counted here by hand.
  const Graph g = make_grid(2, 6);
  Engine gen(1);
  CobraWalk epi(g, 0, 2);
  sim::CoverStop exposed;
  auto ever = ever_infected_of(exposed);
  std::vector<bool> seen(g.num_vertices(), false);
  auto incidence = sim::record_of([&seen](const CobraWalk& w) {
    double fresh = 0;
    for (const Vertex v : w.active()) {
      if (!seen[v]) {
        seen[v] = true;
        ++fresh;
      }
    }
    return fresh;
  });
  sim::Runner().run(epi, gen, sim::FixedRounds(200), exposed, ever, incidence);
  ASSERT_EQ(ever.values().size(), 201u);
  EXPECT_EQ(incidence.values()[0], 1.0);  // patient zero
  for (std::size_t t = 1; t < ever.values().size(); ++t) {
    EXPECT_GE(ever.values()[t], ever.values()[t - 1]);
    EXPECT_EQ(ever.values()[t] - ever.values()[t - 1], incidence.values()[t]);
  }
}

TEST(Sis, AttackRateReachesOne) {
  const Graph g = make_complete(30);
  Engine gen(2);
  CobraWalk epi(g, 0, 2);
  sim::CoverStop exposed;
  const auto r = sim::Runner(100000).run(epi, gen, exposed);
  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(exposed.complete());
  EXPECT_LT(r.rounds, 100000u);
  EXPECT_DOUBLE_EQ(static_cast<double>(exposed.covered_count()) /
                       g.num_vertices(),
                   1.0);
}

TEST(Sis, HistoryMatchesRounds) {
  const Graph g = make_cycle(20);
  Engine gen(3);
  CobraWalk epi(g, 0, 2);
  sim::CoverStop exposed;
  sim::GrowthCurve prevalence;
  auto ever = ever_infected_of(exposed);
  auto rounds = sim::record_of(
      [](const CobraWalk& w) { return static_cast<double>(w.round()); });
  sim::Runner().run(epi, gen, sim::FixedRounds(50), exposed, prevalence, ever,
                    rounds);
  ASSERT_EQ(prevalence.sizes().size(), 51u);
  ASSERT_EQ(ever.values().size(), 51u);
  ASSERT_EQ(rounds.values().size(), 51u);
  for (std::size_t i = 0; i < rounds.values().size(); ++i) {
    EXPECT_EQ(rounds.values()[i], static_cast<double>(i));
  }
}

TEST(Sis, PrevalenceMatchesInfectedSpan) {
  const Graph g = make_grid(2, 4);
  Engine gen(4);
  CobraWalk epi(g, 0, 3);
  sim::GrowthCurve prevalence;
  auto infected = sim::record_of([](const CobraWalk& w) {
    return static_cast<double>(w.active().size());
  });
  sim::Runner().run(epi, gen, sim::FixedRounds(30), prevalence, infected);
  ASSERT_EQ(prevalence.sizes().size(), 31u);
  for (std::size_t t = 0; t < prevalence.sizes().size(); ++t) {
    EXPECT_EQ(static_cast<double>(prevalence.sizes()[t]),
              infected.values()[t]);
  }
}

TEST(Sis, ResetRestartsOutbreak) {
  // One walk and one set of observer values serve a second outbreak:
  // reset() restarts the walk, start() restarts the records.
  const Graph g = make_complete(12);
  Engine gen(5);
  CobraWalk epi(g, 0, 2);
  sim::CoverStop exposed;
  sim::GrowthCurve prevalence;
  sim::Runner(10000).run(epi, gen, exposed, prevalence);
  ASSERT_TRUE(exposed.complete());
  epi.reset(5);
  exposed.start(epi);
  prevalence.start(epi);
  EXPECT_EQ(epi.active().size(), 1u);
  EXPECT_EQ(exposed.covered_count(), 1u);
  EXPECT_EQ(prevalence.sizes().size(), 1u);
  EXPECT_EQ(epi.active()[0], 5u);
}

TEST(Sis, MoreContactsSpreadFaster) {
  const Graph g = make_grid(2, 8);
  Engine gen(6);
  double k2_total = 0, k5_total = 0;
  constexpr int kTrials = 30;
  for (int t = 0; t < kTrials; ++t) {
    CobraWalk slow(g, 0, 2);
    k2_total += static_cast<double>(sim::run_cover(slow, gen, 1u << 22).rounds);
    CobraWalk fast(g, 0, 5);
    k5_total += static_cast<double>(sim::run_cover(fast, gen, 1u << 22).rounds);
  }
  EXPECT_LT(k5_total, k2_total);
}

}  // namespace
}  // namespace cobra::core
