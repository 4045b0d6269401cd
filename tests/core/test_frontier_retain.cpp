/// Tests for the engine's remove-from-frontier round (FrontierEngine::retain,
/// an expand whose per-vertex body emits v when keep(v)): pure predicate
/// filtering with canonical output, bit-identity across thread counts and
/// representations, no RNG draws, and the shared output audit (survivors
/// are claimed through the same sinks as offspring, so every check of an
/// expand round applies unchanged).

#include "core/frontier_engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/audit.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"

namespace cobra::core {
namespace {

using graph::make_cycle;

constexpr std::size_t kChunk = 256;

/// k=2 cobra-style sampler (the expand half of expand/retain round pairs).
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

/// Alternate expand (grow) and retain (shrink to even-parity survivors of
/// a round-dependent predicate) rounds, recording every post-retain
/// frontier. Exercises both directions of the dual representation.
std::vector<std::vector<Vertex>> run_expand_retain(const Graph& g,
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
    engine.expand(frontier, next, /*round_seed=*/0x2E7A1000ULL + r, sampler);
    frontier.swap(next);
    engine.retain(frontier, next,
                  [r](Vertex v) { return (v + static_cast<Vertex>(r)) % 3 != 0; });
    frontier.swap(next);
    const auto vs = frontier.vertices();
    trajectory.emplace_back(vs.begin(), vs.end());
  }
  return trajectory;
}

TEST(FrontierRetain, FiltersByPredicateKeepingCanonicalOrder) {
  const Graph g = make_cycle(100);
  FrontierEngine engine(g);
  std::vector<Vertex> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);
  engine.retain(frontier, next, [](Vertex v) { return v % 7 == 0; });
  std::vector<Vertex> expect;
  for (Vertex v = 0; v < 100; v += 7) expect.push_back(v);
  const auto vs = next.vertices();
  EXPECT_EQ(std::vector<Vertex>(vs.begin(), vs.end()), expect);
  EXPECT_EQ(next.size(), expect.size());
}

TEST(FrontierRetain, KeepAllKeepNoneAndEmptyInput) {
  const Graph g = make_cycle(64);
  FrontierEngine engine(g);
  std::vector<Vertex> all(64);
  std::iota(all.begin(), all.end(), 0u);
  Frontier frontier, next;
  engine.dedupe(all, frontier);

  engine.retain(frontier, next, [](Vertex) { return true; });
  EXPECT_EQ(next.size(), 64u);

  engine.retain(frontier, next, [](Vertex) { return false; });
  EXPECT_TRUE(next.empty());

  // Empty input: output cleared even if it held stale content.
  Frontier empty;
  engine.dedupe(std::vector<Vertex>{5}, next);
  ASSERT_EQ(next.size(), 1u);
  engine.retain(empty, next, [](Vertex) { return true; });
  EXPECT_TRUE(next.empty());
}

TEST(FrontierRetain, SparseAndDenseRepresentationsAgree) {
  Engine graph_gen(41);
  const Graph g = gen::random_regular(4096, 4, graph_gen());

  FrontierOptions sparse;
  sparse.chunk_size = kChunk;
  sparse.parallel_threshold = static_cast<std::size_t>(-1);
  sparse.mode = FrontierMode::ForceSparse;
  FrontierOptions dense = sparse;
  dense.mode = FrontierMode::ForceDense;
  FrontierOptions automatic = sparse;
  automatic.mode = FrontierMode::Auto;

  const auto ref = run_expand_retain(g, sparse, 8);
  ASSERT_FALSE(ref.back().empty());
  EXPECT_EQ(run_expand_retain(g, dense, 8), ref);
  EXPECT_EQ(run_expand_retain(g, automatic, 8), ref);
}

TEST(FrontierRetain, BitIdenticalAcrossThreadCountsBothModes) {
  Engine graph_gen(42);
  const Graph g = gen::random_regular(20000, 4, graph_gen());

  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense}) {
    FrontierOptions serial;
    serial.chunk_size = kChunk;
    serial.parallel_threshold = static_cast<std::size_t>(-1);
    serial.mode = mode;
    const auto reference = run_expand_retain(g, serial, 6);
    ASSERT_GT(reference.back().size(), 100u);

    for (const std::size_t threads : {1u, 2u, 8u}) {
      par::ThreadPool pool(threads);
      FrontierOptions opts = serial;
      opts.parallel_threshold = 1;
      opts.pool = &pool;
      EXPECT_EQ(run_expand_retain(g, opts, 6), reference)
          << threads << " threads, dense=" << (mode == FrontierMode::ForceDense);
    }
  }
}

TEST(FrontierRetain, CountsSurvivors) {
  Engine graph_gen(43);
  const Graph g = gen::random_regular(2048, 4, graph_gen());
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  for (const FrontierMode mode :
       {FrontierMode::ForceSparse, FrontierMode::ForceDense}) {
    opts.mode = mode;
    FrontierEngine engine(g, opts);
    std::vector<Vertex> all(g.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    Frontier frontier, next;
    engine.dedupe(all, frontier);
    engine.retain(frontier, next, [](Vertex v) { return v % 5 != 2; });
    EXPECT_EQ(engine.last_emitted(), next.size());
    EXPECT_EQ(next.size(), 2048u - 410u);  // 410 ids in [0, 2048) are 2 mod 5
  }
}

TEST(FrontierRetain, AuditedRemovalRoundsPassAndObserveOnly) {
  // Retain rounds publish their survivors through the same merges as any
  // expand round, so the one output audit (canonical order, bitmap health)
  // covers
  // them too. Under full auditing with throw-on-violation armed,
  // interleaved expand/retain rounds must run clean and produce the
  // unaudited trajectory.
  audit::set_level(0);
  audit::set_throw_on_violation(true);
  Engine graph_gen(44);
  const Graph g = gen::random_regular(1024, 4, graph_gen());
  FrontierOptions opts;
  opts.chunk_size = kChunk;
  const auto plain = run_expand_retain(g, opts, 8);
  audit::set_level(2);
  std::vector<std::vector<Vertex>> audited;
  EXPECT_NO_THROW(audited = run_expand_retain(g, opts, 8));
  EXPECT_EQ(audited, plain);
  audit::set_level(0);
  audit::set_throw_on_violation(false);
}

}  // namespace
}  // namespace cobra::core
