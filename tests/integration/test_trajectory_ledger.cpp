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
///
/// The measurement rows pin what the cover/hitting stack (sim::Runner with
/// CoverStop / HitTarget, and sim::estimate_cobra_hmax) reports on the same
/// two graphs under default engine options: rounds, covered count, and the
/// caller engine's next draw.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/frontier_engine.hpp"
#include "core/gossip.hpp"
#include "core/greedy_mis.hpp"
#include "core/biased_walk.hpp"
#include "core/lll_resampler.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "gen/constraints.hpp"
#include "gen/families.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
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
    rng::Xoshiro256 eng(0x1ED6E0ULL);
    return gen::random_regular(4096, 4, eng());
  }();
  static const Graph torus = graph::make_grid(2, 50, /*torus=*/true);
  return which == 0 ? rreg : torus;
}

/// A client trajectory: (graph, options) -> fingerprint.
using Trajectory = std::function<std::uint64_t(const Graph&, FrontierOptions)>;

/// Chain `walk`'s active sets over kRounds rounds, then, when
/// `with_samples`, its sample tally, then the caller engine's next draw.
std::uint64_t walk_fp(CobraWalk& walk, FrontierOptions opts,
                      bool with_samples) {
  walk.engine().options() = opts;
  Engine gen(kWalkSeed);
  std::uint64_t fp = chain(kFnvBasis, walk.active());
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    walk.step(gen);
    fp = chain(fp, walk.active());
  }
  if (with_samples) fp = chain_u64(fp, walk.samples_drawn());
  return chain_u64(fp, gen());
}

std::uint64_t cobra_fp(const Graph& g, FrontierOptions opts) {
  CobraWalk walk(g, 0, 2);
  return walk_fp(walk, opts, false);
}

std::uint64_t generalized_fp(const Graph& g, FrontierOptions opts,
                             BranchingSchedule schedule) {
  CobraWalk walk(g, 0, std::move(schedule));
  return walk_fp(walk, opts, true);
}

/// Coalescing random walks: a 1-cobra walk from every third vertex.
std::uint64_t coalescing_fp(const Graph& g, FrontierOptions opts) {
  std::vector<Vertex> starts;
  for (Vertex v = 0; v < g.num_vertices(); v += 3) starts.push_back(v);
  CobraWalk walks(g, 0, 1);
  walks.reset(starts);
  return walk_fp(walks, opts, false);
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

// The fingerprint every literal below is made of: distinct payloads hash
// apart, and the empty input is the FNV offset basis (pins the
// parameterization).
TEST(TrajectoryLedger, Fnv1a64DistinguishesPayloads) {
  const std::vector<std::uint8_t> a = {1, 2, 3};
  const std::vector<std::uint8_t> b = {1, 2, 4};
  EXPECT_NE(util::fnv1a64(a), util::fnv1a64(b));
  EXPECT_EQ(util::fnv1a64(std::vector<std::uint8_t>{}), 0xcbf29ce484222325ULL);
}

TEST(TrajectoryLedger, CobraWalk) {
  expect_pinned("CobraWalk", cobra_fp,
                {0x8bd76daa4ad2e10aULL, 0xe7ac21b349e82d48ULL});
}

// The schedule and the neighbour picks draw from the one chunk engine, in
// call order.
TEST(TrajectoryLedger, GeneralizedCobraWalk) {
  expect_pinned(
      "GeneralizedCobraWalk",
      [](const Graph& g, FrontierOptions opts) {
        return generalized_fp(g, opts, schedules::bernoulli_mixture(1, 0.5));
      },
      {0x4d3d9c43cd253555ULL, 0x3c5cd09f1f69b8a9ULL});
}

// A schedule that draws nothing: the chunk streams feed only the neighbour
// picks, so this row cannot move with how the schedule's draws interleave.
// The fixed-k constructor must walk the same trajectory and draw the same
// samples, so both step() bodies are pinned to one literal in every cell.
TEST(TrajectoryLedger, GeneralizedCobraWalkFixed) {
  constexpr std::uint64_t kPinned[2] = {0x2548a2e49990f6f2ULL,
                                        0xfaacab0b27a974c6ULL};
  expect_pinned(
      "GeneralizedCobraWalk fixed(2)",
      [](const Graph& g, FrontierOptions opts) {
        return generalized_fp(g, opts, schedules::fixed(2));
      },
      kPinned);
  expect_pinned(
      "CobraWalk k=2 with samples",
      [](const Graph& g, FrontierOptions opts) {
        CobraWalk walk(g, 0, 2);
        return walk_fp(walk, opts, true);
      },
      kPinned);
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

constexpr std::uint64_t kMeasureSeed = 0x1ED6E8ULL;

/// What one measurement leaves behind: rounds run, vertices covered (1 or
/// 0 for "target hit" in hitting runs), and the caller engine's next draw.
struct Measurement {
  std::uint64_t rounds = 0;
  std::uint64_t covered = 0;
  std::uint64_t next_draw = 0;
};

/// Hitting target: a vertex far from the start vertex 0 on both graphs.
Vertex ledger_target(const Graph& g) { return g.num_vertices() / 2 + 25; }

/// Cover run of `process`; `budget` 0 = default budget.
template <typename P>
Measurement measure_cover(P& process, std::uint64_t budget) {
  Engine gen(kMeasureSeed);
  sim::CoverStop cover;
  const sim::RunResult r = sim::Runner(budget).run(process, gen, cover);
  return {r.rounds, cover.covered_count(), gen()};
}

/// Cover run of a fresh `P(g, 0, args...)`; `budget` 0 = default budget.
template <typename P, typename... Args>
Measurement cover_run(std::uint64_t budget, const Graph& g, Args... args) {
  P process(g, Vertex{0}, args...);
  return measure_cover(process, budget);
}

/// Hitting run of a fresh `P(g, 0, args...)` to ledger_target(g).
template <typename P, typename... Args>
Measurement hit_run(std::uint64_t budget, const Graph& g, Args... args) {
  P process(g, Vertex{0}, args...);
  Engine gen(kMeasureSeed);
  const sim::RunResult r =
      sim::run_hit(process, ledger_target(g), gen, budget);
  return {r.rounds, r.stopped ? 1u : 0u, gen()};
}

TEST(TrajectoryLedger, CoverAndHitMeasurements) {
  struct Row {
    const char* name;
    std::function<Measurement(const Graph&)> run;
    Measurement pinned[2];  ///< {rreg, torus}
  };
  const Row rows[] = {
      {"cover CobraWalk k=2",
       [](const Graph& g) { return cover_run<CobraWalk>(0, g, 2u); },
       {{26, 4096, 0x8a94d5bffe233636ULL}, {68, 2500, 0xea3bf087e6dba156ULL}}},
      {"cover CobraWalk k=4",
       [](const Graph& g) { return cover_run<CobraWalk>(0, g, 4u); },
       {{14, 4096, 0xa06748305c080bcbULL}, {53, 2500, 0xde99ad0fe2b0662bULL}}},
      {"cover RandomWalk",
       [](const Graph& g) { return cover_run<RandomWalk>(0, g); },
       {{74515, 4096, 0x278cccdca77b8f7dULL},
        {46614, 2500, 0xca9b73b1453eb0d8ULL}}},
      {"cover RandomWalk, budget 1000",
       [](const Graph& g) { return cover_run<RandomWalk>(1000, g); },
       {{1000, 619, 0x67b96ad85bfd0b5cULL},
        {1000, 330, 0x67b96ad85bfd0b5cULL}}},
      {"cover Gossip push",
       [](const Graph& g) {
         return cover_run<Gossip>(0, g, GossipMode::Push);
       },
       {{31, 4096, 0x741c729068ba8895ULL}, {89, 2500, 0x4c7c8fe81667457eULL}}},
      {"cover ParallelWalks(8)",
       [](const Graph& g) {
         RandomWalk walks(g, std::vector<Vertex>(8, 0));
         return measure_cover(walks, 0);
       },
       {{6034, 4096, 0x44d61dbb85e55a15ULL},
        {5861, 2500, 0x85ae1e5e71ba60a2ULL}}},
      {"cover Walt(10, lazy)",
       [](const Graph& g) { return cover_run<Walt>(0, g, 10u, true); },
       {{8575, 4096, 0xfa67aee942f41e5dULL},
        {11492, 2500, 0x727ed162fc08cf11ULL}}},
      {"hit CobraWalk k=2",
       [](const Graph& g) { return hit_run<CobraWalk>(0, g, 2u); },
       {{18, 1, 0xbb6109df4d863db4ULL}, {60, 1, 0x67b8ecfc8ad4bb17ULL}}},
      {"hit RandomWalk",
       [](const Graph& g) { return hit_run<RandomWalk>(0, g); },
       {{2242, 1, 0xa4ef36967826d3c9ULL}, {8090, 1, 0xff04a0cf45c480dcULL}}},
      {"hit RandomWalk, budget 100",
       [](const Graph& g) { return hit_run<RandomWalk>(100, g); },
       {{100, 0, 0x80b050a7beecc44dULL}, {100, 0, 0x80b050a7beecc44dULL}}},
      {"hit BiasedWalk inverse-degree",
       [](const Graph& g) {
         return hit_run<BiasedWalk>(0, g, ledger_target(g),
                                    BiasSchedule::InverseDegreeBias);
       },
       {{133, 1, 0xb83f294da14fa714ULL}, {146, 1, 0x0fe9bffe9f67d717ULL}}},
  };
  for (const Row& row : rows) {
    for (int which = 0; which < 2; ++which) {
      const Measurement got = row.run(ledger_graph(which));
      const Measurement& want = row.pinned[which];
      char draw[32];
      std::snprintf(draw, sizeof draw, "0x%016llxULL",
                    static_cast<unsigned long long>(got.next_draw));
      const std::string where = std::string(row.name) + " graph=" +
                                (which == 0 ? "rreg" : "torus") +
                                " next_draw=" + draw;
      EXPECT_EQ(got.rounds, want.rounds) << where;
      EXPECT_EQ(got.covered, want.covered) << where;
      EXPECT_EQ(got.next_draw, want.next_draw) << where;
    }
  }
}

TEST(TrajectoryLedger, CobraHmaxEstimate) {
  struct Pinned {
    double hmax;
    Vertex from, to;
    std::uint64_t pairs;
    std::uint64_t next_draw;
  };
  // 8 sampled pairs x 3 trials on each ledger graph, then every ordered
  // pair x 5 trials on a 6-cycle.
  const Pinned pinned[3] = {
      {18.0, 1546, 3051, 8, 0x1f2e3e8b44dc9dc4ULL},
      {146.0 / 3, 1732, 532, 8, 0x206b855a0755fa72ULL},
      {28.0 / 5, 2, 4, 30, 0x4f34ba8fe84a6e9dULL},
  };
  const Graph cycle = graph::make_cycle(6);
  for (int which = 0; which < 3; ++which) {
    Engine gen(kMeasureSeed);
    const sim::HmaxEstimate est =
        which < 2 ? sim::estimate_cobra_hmax(ledger_graph(which), 2, gen, 8, 3)
                  : sim::estimate_cobra_hmax(cycle, 2, gen, 0, 5);
    const Pinned& want = pinned[which];
    EXPECT_TRUE(est.all_hit) << which;
    EXPECT_DOUBLE_EQ(est.hmax, want.hmax) << which;
    EXPECT_EQ(est.argmax_from, want.from) << which;
    EXPECT_EQ(est.argmax_to, want.to) << which;
    EXPECT_EQ(est.pairs, want.pairs) << which;
    EXPECT_EQ(gen(), want.next_draw) << which;
  }
}

}  // namespace
}  // namespace cobra::core
