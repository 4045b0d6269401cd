// Failure-edge tests for the frontier engine: a run continued from its
// active set on a fresh pooled engine, a forced-dense step on an extinct
// process, and allocation failures (dense bitmap, private worker bitmaps)
// degrading without changing results.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/cobra_walk.hpp"
#include "gen/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;

std::vector<core::Vertex> active_of(const core::CobraWalk& w) {
  return {w.active().begin(), w.active().end()};
}

struct EngineFailureTest : ::testing::Test {
  void SetUp() override { util::fault::disarm_all(); }
  void TearDown() override { util::fault::disarm_all(); }
};

TEST_F(EngineFailureTest, FreshPooledEngineContinuesTheTrajectory) {
  // A walk rebuilt from another walk's active set on a fresh engine — here
  // on a pool, the source in-line — continues the source's trajectory
  // exactly, across both representations. Rounds carry no dedup state
  // from call to call, so a fresh engine needs nothing but the set.
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=13");
  core::Engine gen(7);
  core::CobraWalk src(g, 0, 2);
  src.engine().options() = {64, static_cast<std::size_t>(-1), nullptr};
  src.engine().options().mode = core::FrontierMode::ForceSparse;
  for (int i = 0; i < 10; ++i) src.step(gen);

  par::ThreadPool pool(2);
  core::CobraWalk dst(g, 0, 2);
  dst.engine().options() = {64, 1, &pool};
  dst.engine().options().mode = core::FrontierMode::ForceSparse;
  dst.reset(active_of(src));
  ASSERT_EQ(active_of(dst), active_of(src));

  core::Engine ga = gen, gb = gen;
  for (int i = 0; i < 40; ++i) {
    // Half-way, both switch to the bitmap path.
    const auto mode = i < 20 ? core::FrontierMode::ForceSparse
                             : core::FrontierMode::ForceDense;
    src.engine().options().mode = mode;
    dst.engine().options().mode = mode;
    src.step(ga);
    dst.step(gb);
    ASSERT_EQ(active_of(dst), active_of(src))
        << "trajectories diverged " << i << " rounds after the rebuild";
  }
  EXPECT_GT(dst.engine().parallel_rounds(), 0u);
}

TEST_F(EngineFailureTest, ForcedDenseStepOnExtinctProcessIsANoOp) {
  const graph::Graph g = gen::build_graph("ring:n=128");
  core::CobraWalk walk(
      g, 0, [](core::Vertex, std::uint64_t, core::Engine&) { return 0u; });
  walk.engine().options().mode = core::FrontierMode::ForceDense;
  core::Engine gen(4);
  walk.step(gen);  // zero branching: the whole population dies this round
  ASSERT_TRUE(walk.extinct());
  ASSERT_TRUE(walk.active().empty());
  // Stepping the extinct process under ForceDense must not touch the
  // bitmap machinery (expand returns before representation choice) —
  // no crash, no resurrection, and no dense rounds counted for it.
  const std::uint64_t dense_before = walk.engine().dense_rounds();
  for (int i = 0; i < 5; ++i) walk.step(gen);
  EXPECT_TRUE(walk.extinct());
  EXPECT_TRUE(walk.active().empty());
  EXPECT_EQ(walk.engine().dense_rounds(), dense_before);
}

TEST_F(EngineFailureTest, DenseAllocFailureFallsBackToSparseBitIdentically) {
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=9");
  // Reference: the same forced-dense run with no faults.
  core::Engine gen_ref(31);
  core::CobraWalk ref(g, 0, 2);
  ref.engine().options().mode = core::FrontierMode::ForceDense;
  const auto expected = sim::run_cover(ref, gen_ref, 1u << 18);
  ASSERT_TRUE(expected.stopped);

  // Faulty: every dense-bitmap acquisition fails, so every round demotes
  // to sparse. Representation is an optimization — results must be
  // bit-identical, round for round.
  util::fault::arm("frontier.dense_alloc");
  core::Engine gen_faulty(31);
  core::CobraWalk faulty(g, 0, 2);
  faulty.engine().options().mode = core::FrontierMode::ForceDense;
  const auto degraded = sim::run_cover(faulty, gen_faulty, 1u << 18);
  EXPECT_TRUE(degraded.stopped);
  EXPECT_EQ(degraded.rounds, expected.rounds);
  EXPECT_EQ(gen_faulty(), gen_ref());  // same randomness consumed
  EXPECT_EQ(faulty.engine().dense_fallbacks(), degraded.rounds);
  EXPECT_EQ(faulty.engine().dense_rounds(), 0u);
  EXPECT_GT(util::fault::hits("frontier.dense_alloc"), 0u);
}

TEST_F(EngineFailureTest, WorkerBitsAllocFailureRunsInlineBitIdentically) {
  // Pool dense rounds OR per-worker private bitmaps; when those cannot be
  // allocated (frontier.worker_bits_alloc) the round runs in-line as
  // worker 0 into the output bitmap. Same set, so the same cover run.
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=9");
  par::ThreadPool pool(4);
  const auto run = [&](core::CobraWalk& walk) {
    walk.engine().options() = {64, 1, &pool};
    walk.engine().options().mode = core::FrontierMode::ForceDense;
    core::Engine gen(23);
    return sim::run_cover(walk, gen, 1u << 18);
  };
  core::CobraWalk ref(g, 0, 2);
  const auto expected = run(ref);
  ASSERT_TRUE(expected.stopped);
  ASSERT_GT(ref.engine().parallel_rounds(), 0u);

  util::fault::arm("frontier.worker_bits_alloc");
  core::CobraWalk faulty(g, 0, 2);
  const auto degraded = run(faulty);
  EXPECT_TRUE(degraded.stopped);
  EXPECT_EQ(degraded.rounds, expected.rounds);
  EXPECT_EQ(active_of(faulty), active_of(ref));
  EXPECT_EQ(faulty.engine().parallel_rounds(), 0u);
  EXPECT_EQ(util::fault::fired("frontier.worker_bits_alloc"),
            ref.engine().parallel_rounds());
}

TEST_F(EngineFailureTest, MidRunAllocFailureSwitchesRepresentationSafely) {
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=9");
  core::Engine gen_ref(5);
  core::CobraWalk ref(g, 0, 2);
  ref.engine().options().mode = core::FrontierMode::ForceDense;
  const auto expected = sim::run_cover(ref, gen_ref, 1u << 18);
  ASSERT_TRUE(expected.stopped);

  // Dense storage vanishes from the 4th attempt onward — a run that
  // STARTS dense and loses the bitmap mid-flight.
  util::fault::arm("frontier.dense_alloc", 3);
  core::Engine gen_faulty(5);
  core::CobraWalk faulty(g, 0, 2);
  faulty.engine().options().mode = core::FrontierMode::ForceDense;
  const auto degraded = sim::run_cover(faulty, gen_faulty, 1u << 18);
  EXPECT_TRUE(degraded.stopped);
  EXPECT_EQ(degraded.rounds, expected.rounds);
  EXPECT_EQ(faulty.engine().dense_rounds(), 3u);
  EXPECT_GT(faulty.engine().dense_fallbacks(), 0u);
}

}  // namespace
