// Tests for sim::Runner composition: stop rules, observers, budget
// semantics, zero-observer equivalence with the raw step loop, and
// bit-identical trajectories through the Runner at 1/2/8 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/grid_drift.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "gen/registry.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/observers.hpp"
#include "sim/process.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cobra;

// Every shipped process models the concept (GridDrift via its adapter).
static_assert(sim::Process<core::CobraWalk>);
static_assert(sim::Process<core::Gossip>);
static_assert(sim::Process<core::RandomWalk>);
static_assert(sim::Process<core::Walt>);
static_assert(sim::Process<sim::GridDriftProcess>);

TEST(Runner, ZeroObserverCoverMatchesRawStepLoop) {
  const graph::Graph g = gen::build_graph("rreg:n=128,d=4,seed=11");
  // Reference: the bare step loop with a hand-rolled coverage set.
  core::Engine gen_raw(77);
  core::CobraWalk raw(g, 0, 2);
  std::vector<bool> seen(g.num_vertices(), false);
  std::uint32_t covered = 0;
  const auto absorb = [&] {
    for (const core::Vertex v : raw.active()) {
      if (!seen[v]) {
        seen[v] = true;
        ++covered;
      }
    }
  };
  std::uint64_t steps = 0;
  absorb();
  while (covered < g.num_vertices() && steps < (1u << 20)) {
    raw.step(gen_raw);
    ++steps;
    absorb();
  }
  // Runner with no observers.
  core::Engine gen_sim(77);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const auto r = sim::Runner(1u << 20).run(walk, gen_sim, cover);
  EXPECT_EQ(covered, g.num_vertices());
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(steps, r.rounds);
  EXPECT_EQ(covered, cover.covered_count());
  // Identical engine state afterwards: the Runner consumed exactly the
  // same randomness as the raw loop.
  EXPECT_EQ(gen_raw(), gen_sim());
}

TEST(Runner, HitTargetMatchesRawHitLoop) {
  const graph::Graph g = gen::build_graph("ring:n=64");
  // Reference: step until the walker stands on the target.
  core::Engine gen_raw(5);
  core::RandomWalk raw(g, 0);
  std::uint64_t steps = 0;
  while (raw.position() != 32 && steps < (1u << 22)) {
    raw.step(gen_raw);
    ++steps;
  }
  core::Engine gen_sim(5);
  core::RandomWalk walk(g, 0);
  const auto r = sim::run_hit(walk, 32, gen_sim, 1u << 22);
  ASSERT_EQ(raw.position(), 32u);
  ASSERT_TRUE(r.stopped);
  EXPECT_EQ(steps, r.rounds);
  EXPECT_EQ(gen_raw(), gen_sim());
}

TEST(Runner, HitTargetAlreadyActiveStopsAtZeroRounds) {
  const graph::Graph g = gen::build_graph("ring:n=16");
  core::Engine gen(1);
  core::RandomWalk walk(g, 7);
  const auto r = sim::run_hit(walk, 7, gen, 100);
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(walk.round(), 0u);  // never stepped
}

TEST(Runner, BudgetExhaustionReportsNotStopped) {
  const graph::Graph g = gen::build_graph("ring:n=256");
  core::Engine gen(3);
  core::RandomWalk walk(g, 0);
  sim::CoverStop cover;
  const auto r = sim::Runner(5).run(walk, gen, cover);
  EXPECT_FALSE(r.stopped);
  EXPECT_EQ(r.rounds, 5u);
  EXPECT_FALSE(cover.complete());
  EXPECT_GT(cover.covered_count(), 0u);
}

TEST(Runner, FixedRoundsCountsFromRunStartNotProcessBirth) {
  const graph::Graph g = gen::build_graph("ring:n=32");
  core::Engine gen(9);
  core::RandomWalk walk(g, 0);
  const sim::Runner runner;
  runner.run(walk, gen, sim::FixedRounds(10));
  EXPECT_EQ(walk.round(), 10u);
  // Second run on the same (already-stepped) process: 10 MORE rounds.
  runner.run(walk, gen, sim::FixedRounds(10));
  EXPECT_EQ(walk.round(), 20u);
}

TEST(Runner, ExtinctionStopsFaultySchedules) {
  const graph::Graph g = gen::build_graph("ring:n=64");
  // Always-zero branching: extinct after the very first step.
  core::CobraWalk walk(
      g, 0, [](core::Vertex, std::uint64_t, core::Engine&) { return 0u; });
  core::Engine gen(4);
  sim::CoverStop cover;
  sim::Extinction extinct;
  const auto r =
      sim::Runner(1000).run(walk, gen, sim::any_of(cover, extinct));
  EXPECT_TRUE(r.stopped);
  EXPECT_TRUE(walk.extinct());
  EXPECT_FALSE(cover.complete());
  EXPECT_EQ(r.rounds, 1u);
}

TEST(Runner, MultipleObserversAndStopRulesCompose) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=21");
  core::Engine gen(13);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  sim::FixedRounds horizon(1u << 14);
  sim::GrowthCurve curve;
  sim::FirstVisitTimes visits;
  auto sizes = sim::record_of([](const core::CobraWalk& w) {
    return static_cast<double>(sim::active_size(w));
  });
  sim::CollisionDetector collisions;
  const auto r = sim::Runner(1u << 15).run(
      walk, gen, sim::any_of(cover, horizon), curve, visits, sizes, collisions);
  ASSERT_TRUE(r.stopped);
  ASSERT_TRUE(cover.complete());
  // One entry per round incl. the initial state, everywhere.
  EXPECT_EQ(curve.sizes().size(), r.rounds + 1);
  EXPECT_EQ(sizes.values().size(), r.rounds + 1);
  EXPECT_EQ(curve.sizes().front(), 1u);  // the start vertex
  // The recorded sizes bin into a histogram holding every round.
  EXPECT_EQ(stats::Histogram::of(sizes.values(), 8).total(), r.rounds + 1);
  // First-visit view agrees with the cover stop: every vertex visited and
  // the last first-visit IS the cover round.
  for (core::Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(visits.visited(v));
  }
  EXPECT_EQ(visits.last_first_visit(), r.rounds);
  EXPECT_EQ(visits.time_of(0), 0u);
}

TEST(Runner, GrowthCurveMatchesManualStepSizes) {
  const graph::Graph g = gen::build_graph("rreg:n=64,d=4,seed=3");
  core::Engine gen_a(42), gen_b(42);
  core::CobraWalk manual(g, 0, 2);
  std::vector<std::size_t> expected = {manual.active().size()};
  for (int t = 0; t < 20; ++t) {
    manual.step(gen_a);
    expected.push_back(manual.active().size());
  }
  core::CobraWalk walk(g, 0, 2);
  sim::GrowthCurve curve;
  sim::Runner().run(walk, gen_b, sim::FixedRounds(20), curve);
  EXPECT_EQ(curve.sizes(), expected);
}

TEST(Runner, BitIdenticalTrajectoriesAcrossThreadCounts) {
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  constexpr std::size_t kChunk = 64;
  struct Trace {
    std::uint64_t rounds = 0;
    std::vector<std::size_t> sizes;
    std::vector<std::uint64_t> visits;
  };
  auto run_with = [&](par::ThreadPool* pool) {
    core::CobraWalk walk(g, 0, 2);
    if (pool != nullptr) {
      // Pinned pool + threshold 1: every round takes the parallel path.
      walk.engine().options() = {kChunk, 1, pool};
    } else {
      // Same chunking, forced in-line path — trajectories are a function
      // of the chunk size, so the serial reference must pin it too.
      walk.engine().options() = {kChunk, static_cast<std::size_t>(-1),
                                 nullptr};
    }
    core::Engine gen(1234);
    sim::CoverStop cover;
    sim::GrowthCurve curve;
    sim::FirstVisitTimes visits;
    const auto r = sim::Runner(1u << 18).run(walk, gen, cover, curve, visits);
    EXPECT_TRUE(r.stopped);
    return Trace{r.rounds, curve.sizes(), visits.times()};
  };
  const Trace serial = run_with(nullptr);
  par::ThreadPool pool1(1), pool2(2), pool8(8);
  for (par::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    const Trace t = run_with(pool);
    EXPECT_EQ(serial.rounds, t.rounds);
    EXPECT_EQ(serial.sizes, t.sizes);
    EXPECT_EQ(serial.visits, t.visits);
  }
}

TEST(Runner, GridDriftAdapterHitsOriginLikeRunToOrigin) {
  core::Engine gen_raw(6), gen_sim(6);
  core::GridDriftWalk raw(3, 8, 64);
  const std::uint64_t expected = raw.run_to_origin(gen_raw, 1u << 20);
  sim::GridDriftProcess process(3, 8, 64);
  const auto r = sim::run_hit(process, 0, gen_sim, 1u << 20);
  ASSERT_TRUE(r.stopped);
  EXPECT_EQ(expected, r.rounds);
  EXPECT_TRUE(process.walk().at_origin());
}

TEST(Runner, UntilPredicateStopsSis) {
  // The SIS reading of a cobra walk: stop once prevalence (the infected
  // set S_t) first reaches half the population.
  const graph::Graph g = gen::build_graph("complete:n=32");
  core::Engine gen(8);
  core::CobraWalk epi(g, 0, 2);
  sim::GrowthCurve prevalence;
  const auto r = sim::Runner(1u << 16).run(
      epi, gen,
      sim::until([](const core::CobraWalk& w) {
        return 2 * w.active().size() >= w.n();
      }),
      prevalence);
  EXPECT_TRUE(r.stopped);
  EXPECT_GE(2 * epi.active().size(), g.num_vertices());
  EXPECT_EQ(epi.round(), r.rounds);
  // The predicate fired at the first such round, not later.
  ASSERT_EQ(prevalence.sizes().size(), r.rounds + 1);
  for (std::size_t t = 0; t < r.rounds; ++t) {
    EXPECT_LT(2 * prevalence.sizes()[t], g.num_vertices()) << "round " << t;
  }
}

TEST(Runner, OccupancyCounterCountsPostStepRounds) {
  const graph::Graph g = gen::build_graph("complete:n=4");
  core::Engine gen(2);
  core::RandomWalk walk(g, 0);
  sim::OccupancyCounter occupancy(1);
  sim::Runner().run(walk, gen, sim::FixedRounds(3000), occupancy);
  EXPECT_EQ(occupancy.rounds(), 3000u);
  // K_4 stationary mass at any one vertex is 1/4.
  EXPECT_NEAR(occupancy.fraction(), 0.25, 0.05);
}

TEST(Runner, ReplicateMatchesMonteCarloContract) {
  const graph::Graph g = gen::build_graph("ring:n=32");
  const auto trial = [&](core::Engine& gen) {
    core::CobraWalk walk(g, 0, 2);
    return static_cast<double>(sim::run_cover(walk, gen).rounds);
  };
  // sim::replicate summarizes par::run_trials on the global pool (trial i
  // seeded derive_seed(seed, i)): the same trials drawn serially give the
  // same summary.
  const auto a = sim::replicate(16, 999, trial);
  par::MonteCarloOptions opts;
  opts.base_seed = 999;
  opts.trials = 16;
  const auto b = stats::summarize(par::run_trials_serial(
      opts, [&](core::Engine& gen, std::uint32_t) { return trial(gen); }));
  EXPECT_EQ(a.count, 16u);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.ci95_half, b.ci95_half);
}

TEST(Runner, CollisionDetectorSeesCoalescence) {
  // Coalescing walks (a 1-cobra walk from a start set) on a tiny complete
  // graph must eventually merge into one walker.
  const graph::Graph g = gen::build_graph("complete:n=4");
  core::Engine gen(3);
  std::vector<core::Vertex> starts = {0, 1, 2, 3};
  core::CobraWalk walks(g, 0, 1);
  walks.reset(starts);
  sim::CollisionDetector collisions;
  sim::Runner().run(
      walks, gen,
      sim::until([](const core::CobraWalk& w) {
        return w.frontier().size() == 1;
      }),
      collisions);
  EXPECT_TRUE(collisions.collided());
  EXPECT_EQ(collisions.total_losses(), 3u);
  EXPECT_EQ(collisions.total_losses(),
            starts.size() - walks.frontier().size());
}

}  // namespace
