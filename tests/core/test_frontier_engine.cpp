#include "core/frontier_engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/cobra_walk.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"

namespace cobra::core {
namespace {

using graph::make_complete;
using graph::make_cycle;
using graph::make_grid;
using graph::make_hypercube;
using graph::make_path;

constexpr std::size_t kChunk = 256;  // shared by every compared config

/// k=2 cobra-style sampler over `g` (the engine's canonical workload).
struct TwoSampler {
  const Graph* g;
  NeighborSampler pick;
  template <typename Rng, typename Sink>
  void operator()(Vertex v, Rng& rng, Sink&& sink) const {
    const auto nbrs = g->neighbors(v);
    sink(pick(nbrs, rng));
    sink(pick(nbrs, rng));
  }
};

/// Run `rounds` rounds from the full vertex set, feeding each round the
/// previous output as a sorted span (the list a client keeps, as Gossip
/// does) and returning the last output's vertices.
std::vector<Vertex> run_rounds(const Graph& g, FrontierOptions opts,
                               std::uint64_t rounds) {
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> frontier(g.num_vertices());
  std::iota(frontier.begin(), frontier.end(), 0u);
  Frontier next;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.expand(std::span<const Vertex>(frontier), next,
                  /*round_seed=*/0x5EED0000ULL + r, sampler);
    const auto vs = next.vertices();
    frontier.assign(vs.begin(), vs.end());
  }
  return frontier;
}

/// Rounds that ran in-line: every counted round took one of the two paths.
std::uint64_t inline_rounds(const FrontierEngine& engine) {
  return engine.dense_rounds() + engine.sparse_rounds() -
         engine.parallel_rounds();
}

TEST(FrontierEngine, ParallelBitIdenticalToSerialAcrossThreadCounts) {
  Engine graph_gen(21);
  const Graph g = gen::random_regular(20000, 4, graph_gen());

  FrontierOptions serial;
  serial.chunk_size = kChunk;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  const std::vector<Vertex> reference = run_rounds(g, serial, 6);
  ASSERT_GT(reference.size(), 1000u);  // k=2 on an expander keeps Θ(n) alive

  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    FrontierOptions opts;
    opts.chunk_size = kChunk;
    opts.parallel_threshold = 1;
    opts.pool = &pool;
    EXPECT_EQ(run_rounds(g, opts, 6), reference) << threads << " threads";
  }
}

TEST(FrontierEngine, ParallelPathActuallyRuns) {
  Engine graph_gen(22);
  const Graph g = gen::random_regular(20000, 4, graph_gen());
  par::ThreadPool pool(2);
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.parallel_threshold = 1;
  opts.pool = &pool;
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);
  engine.expand(frontier, next, 7, sampler);
  EXPECT_EQ(engine.parallel_rounds(), 1u);
  EXPECT_EQ(inline_rounds(engine), 0u);
}

TEST(FrontierEngine, ParallelDenseOpsBitIdenticalToSerialOps) {
  // The dense rounds' parallelized bitmap clear is value-independent, so
  // toggling parallel_dense_ops or the pool size must never change a
  // frontier. The cycle is large enough (words >= the clear's engagement
  // threshold) that the parallel clear actually runs.
  const Graph g = make_cycle(1u << 21);
  const auto run = [&](FrontierOptions opts) {
    opts.chunk_size = kChunk;
    opts.mode = FrontierMode::ForceDense;
    FrontierEngine engine(g, opts);
    const TwoSampler sampler{&g, NeighborSampler(g)};
    std::vector<Vertex> starts(64);
    std::iota(starts.begin(), starts.end(), 0u);
    Frontier frontier, next;
    engine.dedupe(starts, frontier);
    for (std::uint64_t r = 0; r < 5; ++r) {
      engine.expand(frontier, next, /*round_seed=*/0xD05E + r, sampler);
      frontier.swap(next);
    }
    EXPECT_EQ(engine.dense_rounds(), 5u);
    const auto vs = frontier.vertices();
    return std::vector<Vertex>(vs.begin(), vs.end());
  };

  FrontierOptions serial;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  const std::vector<Vertex> reference = run(serial);
  ASSERT_FALSE(reference.empty());

  par::ThreadPool pool2(2), pool8(8);
  for (par::ThreadPool* pool : {&pool2, &pool8}) {
    for (const bool parallel_ops : {true, false}) {
      FrontierOptions opts;
      opts.parallel_threshold = 1;
      opts.pool = pool;
      opts.parallel_dense_ops = parallel_ops;
      EXPECT_EQ(run(opts), reference)
          << pool->size() << " threads, parallel_dense_ops=" << parallel_ops;
    }
  }
}

TEST(FrontierEngine, CobraWalkBitIdenticalAcrossPools) {
  Engine graph_gen(23);
  const Graph g = gen::random_regular(8192, 4, graph_gen());

  CobraWalk serial_walk(g, 0, 3);
  serial_walk.engine().options().chunk_size = kChunk;
  serial_walk.engine().options().parallel_threshold =
      static_cast<std::size_t>(-1);

  par::ThreadPool pool2(2), pool8(8);
  CobraWalk walk2(g, 0, 3), walk8(g, 0, 3);
  walk2.engine().options() = {kChunk, 1, &pool2};
  walk8.engine().options() = {kChunk, 1, &pool8};

  Engine e_serial(99), e2(99), e8(99);
  for (int t = 0; t < 25; ++t) {
    serial_walk.step(e_serial);
    walk2.step(e2);
    walk8.step(e8);
    const auto expected = std::vector<Vertex>(serial_walk.active().begin(),
                                              serial_walk.active().end());
    ASSERT_EQ(std::vector<Vertex>(walk2.active().begin(), walk2.active().end()),
              expected)
        << "round " << t << " (2 threads)";
    ASSERT_EQ(std::vector<Vertex>(walk8.active().begin(), walk8.active().end()),
              expected)
        << "round " << t << " (8 threads)";
  }
  EXPECT_GT(walk2.engine().parallel_rounds(), 0u);
  EXPECT_GT(walk8.engine().parallel_rounds(), 0u);
}

TEST(NeighborSampler, FastPathBitIdenticalToLemire) {
  // Q_4 is 4-regular: power-of-two degree, fast path armed.
  const Graph g = make_hypercube(4);
  const NeighborSampler pick(g);
  ASSERT_TRUE(pick.fast_path());

  Engine fast_gen(1234), generic_gen(1234);
  const auto nbrs = g.neighbors(5);
  for (int i = 0; i < 50000; ++i) {
    const Vertex fast = pick(nbrs, fast_gen);
    const Vertex generic = nbrs[static_cast<std::size_t>(
        rng::uniform_below(generic_gen, nbrs.size()))];
    ASSERT_EQ(fast, generic) << "draw " << i;
  }
  // Identical draw counts too: the engines stay in lock-step.
  EXPECT_EQ(fast_gen.state(), generic_gen.state());
}

TEST(NeighborSampler, FastPathIsUniform) {
  const Graph g = make_grid(2, 64, /*torus=*/true);  // 4-regular
  const NeighborSampler pick(g);
  ASSERT_TRUE(pick.fast_path());
  Engine gen(77);
  const auto nbrs = g.neighbors(0);
  std::vector<int> counts(nbrs.size(), 0);
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    const Vertex u = pick(nbrs, gen);
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (nbrs[j] == u) {
        ++counts[j];
        break;
      }
    }
  }
  const double expect = kDraws / static_cast<double>(nbrs.size());
  for (const int c : counts) {
    EXPECT_NEAR(c, expect, 5.0 * std::sqrt(expect));  // ~5 sigma
  }
}

TEST(NeighborSampler, GenericPathForNonPow2AndDegreeOne) {
  Engine graph_gen(24);
  EXPECT_FALSE(NeighborSampler(make_hypercube(3)).fast_path());  // 3-regular
  EXPECT_FALSE(
      NeighborSampler(gen::random_regular(100, 6, graph_gen())).fast_path());
  EXPECT_FALSE(NeighborSampler(make_path(2)).fast_path());  // 1-regular
  EXPECT_FALSE(NeighborSampler(make_path(5)).fast_path());  // irregular
}

TEST(FrontierEngine, EmptyFrontierIsFreeAndKeepsEpoch) {
  const Graph g = make_cycle(16);
  FrontierEngine engine(g);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  Frontier next;
  engine.dedupe(std::vector<Vertex>{3, 4}, next);  // stale: must be cleared
  engine.expand(std::span<const Vertex>(), next, 1, sampler);
  EXPECT_TRUE(next.empty());
  EXPECT_TRUE(next.vertices().empty());
  EXPECT_EQ(inline_rounds(engine), 0u);
  EXPECT_EQ(engine.parallel_rounds(), 0u);
}

TEST(FrontierEngine, ExtinctScheduleWalkStepsAreCheapNoOps) {
  const Graph g = make_cycle(16);
  CobraWalk walk(g, 0, schedules::faulty(2, 1.0));  // always drop
  Engine gen(5);
  walk.step(gen);
  ASSERT_TRUE(walk.extinct());
  const auto state_before = gen.state();
  for (int t = 0; t < 100; ++t) walk.step(gen);
  EXPECT_TRUE(walk.extinct());
  EXPECT_EQ(walk.round(), 101u);
  // No randomness consumed, no round run: the step is a pure counter.
  EXPECT_EQ(gen.state(), state_before);
}

/// Run `rounds` rounds through the Frontier-object API, recording the
/// materialized frontier after every round.
std::vector<std::vector<Vertex>> run_trajectory(const Graph& g,
                                                FrontierOptions opts,
                                                std::uint64_t rounds) {
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);
  std::vector<std::vector<Vertex>> trajectory;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    // Same seed schedule as run_rounds, so span-input and Frontier-input
    // trajectories are directly comparable.
    engine.expand(frontier, next, /*round_seed=*/0x5EED0000ULL + r, sampler);
    frontier.swap(next);
    const auto vs = frontier.vertices();
    trajectory.emplace_back(vs.begin(), vs.end());
  }
  return trajectory;
}

TEST(FrontierEngine, SparseAndDensePathsProduceIdenticalTrajectories) {
  Engine graph_gen(31);
  const Graph g = gen::random_regular(4096, 4, graph_gen());

  FrontierOptions sparse;
  sparse.chunk_size = kChunk;
  sparse.parallel_threshold = static_cast<std::size_t>(-1);
  sparse.mode = FrontierMode::ForceSparse;
  FrontierOptions dense = sparse;
  dense.mode = FrontierMode::ForceDense;
  FrontierOptions automatic = sparse;
  automatic.mode = FrontierMode::Auto;

  const auto ref = run_trajectory(g, sparse, 8);
  EXPECT_EQ(run_trajectory(g, dense, 8), ref);
  EXPECT_EQ(run_trajectory(g, automatic, 8), ref);
  // Span inputs (gossip's path) must agree as well — they share the chunk
  // streams, only the input plumbing differs.
  EXPECT_EQ(run_rounds(g, dense, 8), ref.back());
}

TEST(FrontierEngine, ForcedDenseBitIdenticalAcrossThreadCounts) {
  Engine graph_gen(32);
  const Graph g = gen::random_regular(20000, 4, graph_gen());

  FrontierOptions serial;
  serial.chunk_size = kChunk;
  serial.parallel_threshold = static_cast<std::size_t>(-1);
  serial.mode = FrontierMode::ForceDense;
  const auto reference = run_trajectory(g, serial, 6);
  ASSERT_GT(reference.back().size(), 1000u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    FrontierOptions opts = serial;
    opts.parallel_threshold = 1;
    opts.pool = &pool;
    EXPECT_EQ(run_trajectory(g, opts, 6), reference)
        << threads << " threads (forced dense)";
  }
}

TEST(FrontierEngine, DenseRoundsAreTakenAndCountedInAutoMode) {
  Engine graph_gen(33);
  const Graph g = gen::random_regular(20000, 4, graph_gen());
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.parallel_threshold = static_cast<std::size_t>(-1);
  FrontierEngine engine(g, opts);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);  // Θ(n) frontier: must run dense
  engine.expand(frontier, next, 9, sampler);
  EXPECT_EQ(engine.dense_rounds(), 1u);
  EXPECT_EQ(engine.sparse_rounds(), 0u);
  EXPECT_TRUE(next.dense());
  // The materialized view is sorted and duplicate-free by construction.
  const auto vs = next.vertices();
  EXPECT_EQ(next.size(), vs.size());
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end()));
  EXPECT_TRUE(std::adjacent_find(vs.begin(), vs.end()) == vs.end());
}

TEST(FrontierEngine, SwitchHysteresisAcrossACoalescenceRun) {
  // Coalescing walks from every vertex of K_n: the walker set starts at
  // Θ(n) (dense) and shrinks to 1 (sparse), crossing the switch band on
  // the way down; a cobra walk from one vertex crosses it upward. With
  // dense_alpha = 8 on n = 1024 the engine enters dense above 128 and
  // leaves below 64 — inside that band the PREVIOUS representation must
  // stick (hysteresis), and the run must record exactly the transitions.
  const Graph g = make_complete(1024);
  std::vector<Vertex> all(1024);
  std::iota(all.begin(), all.end(), 0u);
  CobraWalk walks(g, 0, 1);
  walks.reset(all);
  auto& opts = walks.engine().options();
  opts.parallel_threshold = static_cast<std::size_t>(-1);
  opts.dense_alpha = 8.0;

  Engine gen(77);
  bool saw_band_round = false;
  while (walks.frontier().size() > 1 && walks.round() < 100000) {
    const std::size_t before = walks.frontier().size();
    const std::uint64_t dense_before = walks.engine().dense_rounds();
    walks.step(gen);
    if (before >= 64 && before <= 128) {
      // Inside the hysteresis band coming down from dense: stays dense.
      EXPECT_EQ(walks.engine().dense_rounds(), dense_before + 1)
          << "band round at walker count " << before;
      saw_band_round = true;
    }
  }
  EXPECT_EQ(walks.frontier().size(), 1u);
  EXPECT_TRUE(saw_band_round);
  EXPECT_GT(walks.engine().dense_rounds(), 0u);
  EXPECT_GT(walks.engine().sparse_rounds(), 0u);
  EXPECT_EQ(walks.engine().switches(), 1u);  // dense -> sparse exactly once

  // And the trajectory is representation-independent: a forced-sparse twin
  // reproduces the identical walker sets round for round.
  CobraWalk sparse_twin(g, 0, 1);
  sparse_twin.reset(all);
  sparse_twin.engine().options().parallel_threshold =
      static_cast<std::size_t>(-1);
  sparse_twin.engine().options().mode = FrontierMode::ForceSparse;
  Engine gen2(77);
  for (std::uint64_t r = 0; r < walks.round(); ++r) sparse_twin.step(gen2);
  EXPECT_EQ(std::vector<Vertex>(sparse_twin.active().begin(),
                                sparse_twin.active().end()),
            std::vector<Vertex>(walks.active().begin(), walks.active().end()));
}

TEST(FrontierEngine, InterleavedRepresentationsMatchAllSparse) {
  // A round keeps no dedup state beyond its output, so alternating
  // representations round by round on one engine must match the
  // all-sparse reference exactly, including with a reset-path dedupe()
  // spliced between rounds.
  Engine graph_gen(34);
  const Graph g = gen::random_regular(4096, 4, graph_gen());
  const TwoSampler sampler{&g, NeighborSampler(g)};

  auto run = [&](bool alternate) {
    FrontierOptions opts;
    opts.chunk_size = kChunk;
    opts.parallel_threshold = static_cast<std::size_t>(-1);
    opts.mode = FrontierMode::ForceSparse;
    FrontierEngine engine(g, opts);
    std::vector<Vertex> all(g.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    Frontier frontier, next;
    engine.dedupe(all, frontier);
    std::vector<std::vector<Vertex>> trajectory;
    for (std::uint64_t r = 0; r < 10; ++r) {
      engine.options().mode = (alternate && r % 2 == 1)
                                  ? FrontierMode::ForceDense
                                  : FrontierMode::ForceSparse;
      engine.expand(frontier, next, 0xAB0BAULL + r, sampler);
      frontier.swap(next);
      const auto vs = frontier.vertices();
      trajectory.emplace_back(vs.begin(), vs.end());
      if (r == 5) {
        // An interleaved reset-path dedupe must leave round results alone.
        Frontier scratch_out;
        engine.dedupe(std::vector<Vertex>{1, 2, 1, 3}, scratch_out);
        EXPECT_EQ(std::vector<Vertex>(scratch_out.vertices().begin(),
                                      scratch_out.vertices().end()),
                  (std::vector<Vertex>{1, 2, 3}));
      }
    }
    return trajectory;
  };

  EXPECT_EQ(run(/*alternate=*/true), run(/*alternate=*/false));
}

TEST(FrontierEngine, ParallelThresholdIsAWorkEstimate) {
  // 300 active vertices with branching_hint 8 is 2400 estimated samples:
  // above a threshold of 1000 even though the raw frontier is below it.
  Engine graph_gen(35);
  const Graph g = gen::random_regular(2048, 4, graph_gen());
  par::ThreadPool pool(2);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  std::vector<Vertex> starts(300);
  std::iota(starts.begin(), starts.end(), 0u);
  Frontier frontier, next;

  FrontierOptions opts;
  opts.chunk_size = kChunk;
  opts.parallel_threshold = 1000;
  opts.pool = &pool;
  opts.branching_hint = 8.0;
  FrontierEngine hinted(g, opts);
  hinted.dedupe(starts, frontier);
  hinted.expand(frontier, next, 3, sampler);
  EXPECT_EQ(hinted.parallel_rounds(), 1u);

  opts.branching_hint = 1.0;  // same frontier, honest hint: stays in-line
  FrontierEngine unhinted(g, opts);
  unhinted.expand(frontier, next, 3, sampler);
  EXPECT_EQ(inline_rounds(unhinted), 1u);
  EXPECT_EQ(unhinted.parallel_rounds(), 0u);
}

TEST(FrontierEngine, DedupeKeepsFirstOccurrence) {
  // Each vertex survives once, and the frontier comes out canonical:
  // sorted ascending, a sparse list, whatever the input order.
  const Graph g = make_cycle(8);
  FrontierEngine engine(g);
  const std::vector<Vertex> in{3, 1, 3, 2, 1, 7};
  Frontier out;
  engine.dedupe(in, out);
  EXPECT_FALSE(out.dense());
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(std::vector<Vertex>(out.vertices().begin(), out.vertices().end()),
            (std::vector<Vertex>{1, 2, 3, 7}));
  // Calls are independent: a second dedupe into a used frontier starts
  // fresh.
  engine.dedupe(std::vector<Vertex>{7, 7, 0}, out);
  EXPECT_EQ(std::vector<Vertex>(out.vertices().begin(), out.vertices().end()),
            (std::vector<Vertex>{0, 7}));
  engine.dedupe({}, out);
  EXPECT_TRUE(out.empty());
  // Sorted input skips the sort but still drops the repeats; canonical
  // input comes back unchanged.
  engine.dedupe(std::vector<Vertex>{0, 0, 2, 2, 2, 5}, out);
  EXPECT_EQ(std::vector<Vertex>(out.vertices().begin(), out.vertices().end()),
            (std::vector<Vertex>{0, 2, 5}));
  engine.dedupe(std::vector<Vertex>{1, 4, 6}, out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(std::vector<Vertex>(out.vertices().begin(), out.vertices().end()),
            (std::vector<Vertex>{1, 4, 6}));
}

/// Run `run(opts)` in-line and on 2, 4 and 8 pool threads (parallel
/// threshold 1, so every multi-chunk round takes the pool); every pool
/// run must reproduce the in-line result exactly.
template <typename Run>
void expect_pools_match_inline(const Run& run, FrontierOptions base) {
  FrontierOptions inline_opts = base;
  inline_opts.parallel_threshold = static_cast<std::size_t>(-1);
  const auto reference = run(inline_opts);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    FrontierOptions opts = base;
    opts.parallel_threshold = 1;
    opts.pool = &pool;
    EXPECT_EQ(run(opts), reference) << threads << " threads";
  }
}

/// Emits one draw per vertex, always inside the last bitmap word of [0, n).
struct LastWordSampler {
  Vertex n;
  template <typename Rng, typename Sink>
  void operator()(Vertex /*v*/, Rng& rng, Sink&& sink) const {
    const Vertex first = (n - 1) / 64 * 64;
    sink(first + static_cast<Vertex>(rng() % (n - first)));
  }
};

TEST(FrontierEngine, PoolRoundsMatchInlineWithATailWord) {
  Engine graph_gen(41);
  const Graph g = gen::random_regular(4133, 4, graph_gen());
  ASSERT_NE(g.num_vertices() % 64, 0u);
  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense,
        FrontierMode::Auto}) {
    FrontierOptions base;
    base.chunk_size = 64;
    base.mode = mode;
    expect_pools_match_inline(
        [&](FrontierOptions opts) { return run_trajectory(g, opts, 6); },
        base);
  }
}

TEST(FrontierEngine, PoolRoundsMatchInlineWithMoreWorkersThanChunks) {
  // 300 vertices in 64-id chunks is 5 chunks: the 8-thread pool has idle
  // workers whose private bitmaps and claim lists stay empty.
  Engine graph_gen(42);
  const Graph g = gen::random_regular(300, 4, graph_gen());
  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense}) {
    FrontierOptions base;
    base.chunk_size = 64;
    base.mode = mode;
    expect_pools_match_inline(
        [&](FrontierOptions opts) {
          FrontierEngine engine(g, opts);
          const TwoSampler sampler{&g, NeighborSampler(g)};
          std::vector<Vertex> all(g.num_vertices());
          std::iota(all.begin(), all.end(), 0u);
          Frontier frontier, next;
          engine.dedupe(all, frontier);
          for (std::uint64_t r = 0; r < 6; ++r) {
            engine.expand(frontier, next, 0x3000 + r, sampler);
            frontier.swap(next);
          }
          EXPECT_EQ(engine.parallel_rounds() > 0, opts.pool != nullptr);
          const auto vs = frontier.vertices();
          return std::vector<Vertex>(vs.begin(), vs.end());
        },
        base);
  }
}

TEST(FrontierEngine, PoolRoundsMatchInlineWithOffspringOnlyInTheLastWord) {
  // Every offspring lands in the tail word, so every worker's private
  // bitmap collides on one word. The next round draws everywhere again:
  // a private word the merge failed to zero would resurface there.
  Engine graph_gen(43);
  const Graph g = gen::random_regular(4133, 4, graph_gen());
  const LastWordSampler last_word{g.num_vertices()};
  const TwoSampler two{&g, NeighborSampler(g)};
  FrontierOptions base;
  base.chunk_size = 64;
  base.mode = FrontierMode::ForceDense;
  expect_pools_match_inline(
      [&](FrontierOptions opts) {
        FrontierEngine engine(g, opts);
        std::vector<Vertex> all(g.num_vertices());
        std::iota(all.begin(), all.end(), 0u);
        Frontier frontier, next;
        std::vector<std::vector<Vertex>> trajectory;
        for (std::uint64_t r = 0; r < 4; ++r) {
          engine.dedupe(all, frontier);
          engine.expand(frontier, next, 0x4000 + r, last_word);
          const auto tail = next.vertices();
          EXPECT_FALSE(tail.empty());
          EXPECT_GE(tail.front(), (g.num_vertices() - 1) / 64 * 64);
          trajectory.emplace_back(tail.begin(), tail.end());
          engine.expand(frontier, next, 0x5000 + r, two);
          trajectory.emplace_back(next.vertices().begin(),
                                  next.vertices().end());
        }
        return trajectory;
      },
      base);
}

TEST(FrontierEngine, PoolRoundsMatchInlineRightAfterADenseToSparseSwitch) {
  // Round 1 collapses a dense frontier onto multiples of 1024, so round 2
  // is a sparse round walking a dense input — the first round after the
  // switch — and round 3 runs sparse on pool claim lists (its input stays
  // below the n / dense_alpha entry threshold).
  Engine graph_gen(44);
  const Graph g = gen::random_regular(20000, 4, graph_gen());
  const TwoSampler two{&g, NeighborSampler(g)};
  const auto collapse = [&two](Vertex v, auto& rng, const auto& sink) {
    two(v, rng, [&sink](Vertex u) { sink(u & ~Vertex{1023}); });
  };
  FrontierOptions base;
  base.chunk_size = kChunk;
  expect_pools_match_inline(
      [&](FrontierOptions opts) {
        FrontierEngine engine(g, opts);
        std::vector<Vertex> all(g.num_vertices());
        std::iota(all.begin(), all.end(), 0u);
        Frontier frontier, next;
        engine.dedupe(all, frontier);
        std::vector<std::vector<Vertex>> trajectory;
        for (std::uint64_t r = 0; r < 4; ++r) {
          if (r == 1) {
            engine.expand(frontier, next, 0x6000 + r, collapse);
          } else {
            engine.expand(frontier, next, 0x6000 + r, two);
          }
          frontier.swap(next);
          if (r == 1) {
            EXPECT_TRUE(frontier.dense());
          }
          if (r == 2) {
            EXPECT_FALSE(frontier.dense());
          }
          trajectory.emplace_back(frontier.vertices().begin(),
                                  frontier.vertices().end());
        }
        EXPECT_EQ(engine.dense_rounds(), 2u);
        EXPECT_EQ(engine.switches(), 1u);
        return trajectory;
      },
      base);
}

TEST(FrontierEngine, ThrowingPoolRoundLeavesNoStaleBits) {
  // A sampler that throws mid-round leaves private bitmaps half written;
  // the engine's next pool round must still match a fresh engine's.
  Engine graph_gen(45);
  const Graph g = gen::random_regular(4096, 4, graph_gen());
  const TwoSampler two{&g, NeighborSampler(g)};
  const auto throwing = [&two](Vertex v, auto& rng, const auto& sink) {
    two(v, rng, sink);
    if (v == 3000) throw std::runtime_error("sampler failure");
  };
  par::ThreadPool pool(4);
  FrontierOptions opts;
  opts.chunk_size = 64;
  opts.parallel_threshold = 1;
  opts.pool = &pool;
  opts.mode = FrontierMode::ForceDense;
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;

  FrontierEngine fresh(g, opts);
  fresh.dedupe(all, frontier);
  fresh.expand(frontier, next, 0x7000, two);
  const std::vector<Vertex> expected(next.vertices().begin(),
                                     next.vertices().end());

  FrontierEngine engine(g, opts);
  EXPECT_THROW(engine.expand(frontier, next, 0x7001, throwing),
               std::runtime_error);
  engine.expand(frontier, next, 0x7000, two);
  EXPECT_EQ(std::vector<Vertex>(next.vertices().begin(), next.vertices().end()),
            expected);
}

/// Draws 1 + v % 3 raw values, records them in `draws[v]` (each vertex is
/// visited once per round, so workers write disjoint slots) and emits one
/// neighbor per draw.
struct RecordingSampler {
  const Graph* g;
  std::vector<std::vector<std::uint64_t>>* draws;
  void operator()(Vertex v, Engine& rng, const auto& sink) const {
    const auto nbrs = g->neighbors(v);
    std::vector<std::uint64_t>& mine = (*draws)[v];
    for (Vertex i = 0; i <= v % 3; ++i) {
      mine.push_back(rng());
      sink(nbrs[mine.back() % nbrs.size()]);
    }
  }
};

TEST(FrontierEngine, ChunkDrawsAreTheChunkEngineStreamInVisitOrder) {
  // The draw contract, checked against a plain engine rather than another
  // engine path: the draws of chunk c's active vertices, concatenated in
  // ascending vertex order, are exactly the stream of
  // Engine(derive_seed(round_seed, c)), in every representation, pool size
  // and chunking. Both graphs have a partial last word and several chunks
  // of 1024 ids.
  Engine graph_gen(51);
  const Graph rreg = gen::random_regular(3000, 4, graph_gen());
  const Graph grid = make_grid(2, 55);
  for (const Graph* g : {&rreg, &grid}) {
    ASSERT_NE(g->num_vertices() % 64, 0u);
    for (const std::size_t chunk :
         {std::size_t{64}, FrontierOptions{}.chunk_size}) {
      for (const FrontierMode mode :
           {FrontierMode::ForceSparse, FrontierMode::ForceDense,
            FrontierMode::Auto}) {
        for (const std::size_t threads : {1u, 2u, 4u}) {
          par::ThreadPool pool(threads);
          FrontierOptions opts;
          opts.chunk_size = chunk;
          opts.mode = mode;
          opts.parallel_threshold = 1;
          opts.pool = &pool;
          FrontierEngine engine(*g, opts);
          std::vector<std::vector<std::uint64_t>> draws(g->num_vertices());
          const RecordingSampler sampler{g, &draws};
          std::vector<Vertex> starts;
          for (Vertex v = 0; v < g->num_vertices(); v += 50) {
            starts.push_back(v);
          }
          Frontier frontier, next;
          engine.dedupe(starts, frontier);
          bool saw_dense = false;
          for (std::uint64_t r = 0; r < 12; ++r) {
            const std::uint64_t round_seed = 0xC0B4A000ULL + r;
            for (auto& d : draws) d.clear();
            engine.expand(frontier, next, round_seed, sampler);
            const auto where = ::testing::Message()
                               << "n=" << g->num_vertices()
                               << " chunk=" << chunk
                               << " mode=" << static_cast<int>(mode) << " "
                               << threads << " threads, round " << r;
            // Replay: one engine per chunk, consumed vertex by vertex in
            // ascending order; inactive vertices drew nothing.
            const auto active = frontier.vertices();
            std::size_t a = 0;
            std::size_t chunk_of_engine = static_cast<std::size_t>(-1);
            Engine expected(0);
            for (Vertex v = 0; v < g->num_vertices(); ++v) {
              if (a == active.size() || active[a] != v) {
                ASSERT_TRUE(draws[v].empty()) << where << " v=" << v;
                continue;
              }
              ++a;
              if (v / chunk != chunk_of_engine) {
                chunk_of_engine = v / chunk;
                expected = Engine(rng::derive_seed(round_seed, v / chunk));
              }
              ASSERT_EQ(draws[v].size(), 1u + v % 3) << where << " v=" << v;
              for (const std::uint64_t x : draws[v]) {
                ASSERT_EQ(x, expected()) << where << " v=" << v;
              }
            }
            saw_dense = saw_dense || next.dense();
            frontier.swap(next);
          }
          EXPECT_EQ(saw_dense, mode != FrontierMode::ForceSparse)
              << "n=" << g->num_vertices() << " chunk=" << chunk
              << " mode=" << static_cast<int>(mode);
        }
      }
    }
  }
}

TEST(FrontierEngineDeathTest, SpanFrontierWithDuplicateIsRejected) {
  // Sorted but not duplicate-free: the span contract is strictly
  // ascending, and a plain sortedness check would let this through.
  // Release builds compile the assert out and run the round normally.
  const Graph g = make_cycle(16);
  FrontierEngine engine(g);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  const std::vector<Vertex> frontier{1, 4, 4, 9};
  Frontier next;
  EXPECT_DEBUG_DEATH(
      engine.expand(std::span<const Vertex>(frontier), next, 1, sampler),
      "adjacent_find");
}

#ifndef NDEBUG
TEST(FrontierEngineDeathTest, ExpandIntoItsOwnInputIsRejected) {
  // A round clears its output before it walks its input, so the input may
  // not view the output's storage: not the Frontier itself, and not the
  // span its vertices() hands out. (Debug only: a release build would run
  // the aliased round.)
  const Graph g = make_cycle(16);
  FrontierEngine engine(g);
  const TwoSampler sampler{&g, NeighborSampler(g)};
  Frontier f;
  engine.dedupe(std::vector<Vertex>{1, 4, 9}, f);
  EXPECT_DEATH(engine.expand(f, f, 1, sampler), "views");
  EXPECT_DEATH(engine.expand(f.vertices(), f, 1, sampler), "views");
}
#endif

}  // namespace
}  // namespace cobra::core
