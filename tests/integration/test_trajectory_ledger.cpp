/// Trajectory ledger: literal fnv1a64 fingerprints of every FrontierEngine
/// client, pinned so that a rewrite of the engine (or of a client's round
/// body) that moves ANY trajectory fails here instead of passing silently.
///
/// Each fingerprint chains, round by round, the bytes of the client's
/// active set (the cobra_chaos fingerprint: fnv1a64 seeded with the FNV
/// offset basis, one link per round), then the client's final state and
/// the next draw of its caller engine. Every client runs on two graphs
/// over {1, 2, 4} pool threads x {ForceSparse, ForceDense, Auto}; the
/// determinism contract says all nine cells of a graph produce the SAME
/// trajectory, so one literal per (client, graph) pins all of them.
///
/// Chunking is fuzz-sized (64 ids) and the parallel threshold is 1, so
/// every multi-thread cell takes the pool path and the 1-thread cell the
/// in-line path. A literal may change only with an intended, documented
/// change of trajectories (e.g. a new chunk-to-stream assignment).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <vector>

#include "core/coalescing_walk.hpp"
#include "core/cobra_walk.hpp"
#include "core/frontier_engine.hpp"
#include "core/generalized_cobra.hpp"
#include "core/gossip.hpp"
#include "core/greedy_mis.hpp"
#include "core/lll_resampler.hpp"
#include "gen/constraints.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "util/checkpoint_io.hpp"

namespace cobra::core {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kRounds = 30;
constexpr std::uint64_t kWalkSeed = 0x1ED6E5ULL;

/// One fingerprint link: chain the bytes of `vs` into `hash`.
std::uint64_t chain(std::uint64_t hash, std::span<const Vertex> vs) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(vs.data());
  return util::fnv1a64({bytes, vs.size() * sizeof(Vertex)}, hash);
}

std::uint64_t chain_u64(std::uint64_t hash, std::uint64_t x) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&x);
  return util::fnv1a64({bytes, sizeof x}, hash);
}

FrontierOptions ledger_options(par::ThreadPool& pool, FrontierMode mode) {
  FrontierOptions opts;
  opts.pool = &pool;
  opts.chunk_size = 64;
  opts.parallel_threshold = 1;
  opts.mode = mode;
  return opts;
}

/// The two ledger graphs: an expander (dense rounds, every chunk busy) and
/// a torus (long sparse phase, few busy chunks per round).
const Graph& ledger_graph(int which) {
  static const Graph rreg = [] {
    rng::Xoshiro256 gen(0x1ED6E0ULL);
    return graph::make_random_regular(gen, 4096, 4);
  }();
  static const Graph torus = graph::make_grid(2, 50, /*torus=*/true);
  return which == 0 ? rreg : torus;
}

/// A client trajectory: (graph, options) -> fingerprint.
using Trajectory = std::function<std::uint64_t(const Graph&, FrontierOptions)>;

std::uint64_t cobra_fp(const Graph& g, FrontierOptions opts) {
  CobraWalk walk(g, 0, 2);
  walk.engine().options() = opts;
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, walk.active());
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    walk.step(gen);
    fp = chain(fp, walk.active());
  }
  return chain_u64(fp, gen());
}

std::uint64_t generalized_fp(const Graph& g, FrontierOptions opts) {
  GeneralizedCobraWalk walk(g, 0, schedules::bernoulli_mixture(1, 0.5));
  walk.engine().options() = opts;
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, walk.active());
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    walk.step(gen);
    fp = chain(fp, walk.active());
  }
  fp = chain_u64(fp, walk.samples_drawn());
  return chain_u64(fp, gen());
}

std::uint64_t coalescing_fp(const Graph& g, FrontierOptions opts) {
  std::vector<Vertex> starts;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) starts.push_back(v);
  CoalescingWalks walks(g, starts);
  walks.engine().options() = opts;
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, walks.active());
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    walks.step(gen);
    fp = chain(fp, walks.active());
  }
  return chain_u64(fp, gen());
}

std::uint64_t gossip_fp(const Graph& g, FrontierOptions opts) {
  Gossip gossip(g, 0, GossipMode::PushPull);
  gossip.engine().options() = opts;
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, gossip.active());
  for (std::uint64_t r = 0; r < kRounds && !gossip.complete(); ++r) {
    gossip.step(gen);
    fp = chain(fp, gossip.active());
    fp = chain(fp, gossip.uninformed());
  }
  return chain_u64(fp, gen());
}

std::uint64_t mis_fp(const Graph& g, FrontierOptions opts) {
  GreedyMIS mis(g, opts);
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, mis.active());
  while (!mis.done()) {
    mis.step(gen);
    fp = chain(fp, mis.active());
  }
  fp = chain(fp, mis.mis());
  return chain_u64(fp, gen());
}

/// LLL runs on a k-SAT system's dependency graph; `g` only selects the
/// system size so the two ledger rows differ.
std::uint64_t lll_fp(const Graph& g, FrontierOptions opts) {
  const std::uint32_t vars = g.num_vertices() / 2;
  const gen::ClauseSystem sys =
      gen::random_ksat(vars, vars + vars / 2, 3, 0x1ED6E1ULL);
  const Graph deps = gen::dependency_graph(sys);
  LLLResampler lll(sys, deps, /*init_seed=*/0x1ED6E2ULL, opts);
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, lll.active());
  for (std::uint64_t r = 0; r < 200 && !lll.satisfied(); ++r) {
    lll.step(gen);
    fp = chain(fp, lll.active());
  }
  fp = chain(fp, lll.witness());
  const auto bits = lll.assignment();
  fp = util::fnv1a64(bits, fp);
  return chain_u64(fp, gen());
}

/// Run `trajectory` on both graphs over every (threads, mode) cell and
/// compare each cell with the pinned literal of its graph.
void expect_pinned(const char* client, const Trajectory& trajectory,
                   const std::uint64_t (&pinned)[2]) {
  for (int which = 0; which < 2; ++which) {
    const Graph& g = ledger_graph(which);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      par::ThreadPool pool(threads);
      for (const FrontierMode mode :
           {FrontierMode::ForceSparse, FrontierMode::ForceDense,
            FrontierMode::Auto}) {
        const std::uint64_t fp = trajectory(g, ledger_options(pool, mode));
        char got[32];
        std::snprintf(got, sizeof got, "0x%016llxULL",
                      static_cast<unsigned long long>(fp));
        EXPECT_EQ(fp, pinned[which])
            << client << " graph=" << (which == 0 ? "rreg" : "torus")
            << " threads=" << threads << " mode=" << static_cast<int>(mode)
            << " fingerprint=" << got;
      }
    }
  }
}

TEST(TrajectoryLedger, CobraWalk) {
  expect_pinned("CobraWalk", cobra_fp,
                {0x8bd76daa4ad2e10aULL, 0xe7ac21b349e82d48ULL});
}

TEST(TrajectoryLedger, GeneralizedCobraWalk) {
  expect_pinned("GeneralizedCobraWalk", generalized_fp,
                {0x1766e606c9e47db8ULL, 0x0bea9c10a4e410e5ULL});
}

TEST(TrajectoryLedger, CoalescingWalks) {
  expect_pinned("CoalescingWalks", coalescing_fp,
                {0x730235cf116f183fULL, 0x1362a2008149b0fbULL});
}

TEST(TrajectoryLedger, GossipPushPull) {
  expect_pinned("Gossip", gossip_fp,
                {0x50079855ecd0db18ULL, 0x6833549538e32d7bULL});
}

TEST(TrajectoryLedger, GreedyMIS) {
  expect_pinned("GreedyMIS", mis_fp,
                {0x667986232cd76be0ULL, 0x8e17d3302521679fULL});
}

TEST(TrajectoryLedger, LLLResampler) {
  expect_pinned("LLLResampler", lll_fp,
                {0xad259f41b3fa4007ULL, 0x9aef1755214871f7ULL});
}

}  // namespace
}  // namespace cobra::core
