// The observability contract's keystone: telemetry ON vs OFF yields
// bit-identical trajectories. "On" here arms everything switchable at
// runtime — the JSONL trace sink plus a MetricsObserver — and the
// reference runs bare; sizes, first-visit times, round counts, and the
// post-run engine state must match exactly, at 1, 2, and 8 threads.
// The worst-case variant additionally arms the invariant auditor at its
// loudest level AND a storm of GRACEFUL fault sites: observation and
// graceful degradation may cost speed, never results.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "gen/registry.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/observers.hpp"
#include "sim/process.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;

struct Trajectory {
  std::uint64_t rounds = 0;
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> visits;
  std::uint64_t next_draw = 0;  ///< post-run engine output: RNG stream state

  bool operator==(const Trajectory&) const = default;
};

constexpr std::size_t kChunk = 64;

template <class MakeProcess>
Trajectory run_case(MakeProcess&& make, std::uint64_t seed,
                    par::ThreadPool* pool, bool telemetry) {
  if (telemetry) {
    const std::string path = testing::TempDir() + "cobra_inert.jsonl";
    EXPECT_TRUE(obs::open_global_trace(path));
  }
  auto process = make();
  if (pool != nullptr) {
    process.engine().options() = {kChunk, 1, pool};
  } else {
    process.engine().options() = {kChunk, static_cast<std::size_t>(-1),
                                  nullptr};
  }
  core::Engine gen(seed);
  sim::CoverStop cover;
  sim::GrowthCurve curve;
  sim::FirstVisitTimes visits;
  Trajectory t;
  if (telemetry) {
    obs::MetricsObserver metrics;
    const auto r =
        sim::Runner(1u << 18).run(process, gen, cover, curve, visits, metrics);
    EXPECT_TRUE(r.stopped);
    t.rounds = r.rounds;
  } else {
    const auto r = sim::Runner(1u << 18).run(process, gen, cover, curve, visits);
    EXPECT_TRUE(r.stopped);
    t.rounds = r.rounds;
  }
  t.sizes = curve.sizes();
  t.visits = visits.times();
  t.next_draw = gen();
  obs::close_global_trace();
  return t;
}

template <class MakeProcess>
void expect_inert(MakeProcess&& make, std::uint64_t seed) {
  par::ThreadPool pool1(1), pool2(2), pool8(8);
  const std::vector<par::ThreadPool*> pools = {nullptr, &pool1, &pool2, &pool8};
  // The serial bare run is the one reference every combination must hit.
  const Trajectory reference = run_case(make, seed, nullptr, false);
  for (par::ThreadPool* pool : pools) {
    const Trajectory off = run_case(make, seed, pool, false);
    const Trajectory on = run_case(make, seed, pool, true);
    EXPECT_EQ(off, reference);
    EXPECT_EQ(on, reference);
  }
}

TEST(Inert, CobraWalkCoverTrajectoriesIgnoreTelemetry) {
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  expect_inert([&] { return core::CobraWalk(g, 0, 2); }, 1234);
}

TEST(Inert, GossipCoverTrajectoriesIgnoreTelemetry) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=6,seed=21");
  expect_inert([&] { return core::Gossip(g, 0); }, 4321);
}

TEST(Inert, AuditAndGracefulFaultStormStayInertToo) {
  // The chaos-harness keystone: full telemetry + the auditor at level 2 +
  // every in-engine GRACEFUL fault site armed probabilistically must
  // still reproduce the bare serial trajectory at 1/2/8 threads.
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  const auto make = [&] { return core::CobraWalk(g, 0, 2); };
  const Trajectory reference = run_case(make, 1234, nullptr, false);

  core::audit::set_level(2);
  core::audit::set_throw_on_violation(true);  // a violation fails the test
  util::fault::arm_plan(util::fault::FaultPlan::parse(
      "frontier.dense_alloc@2%0.5,frontier.worker_bits_alloc%0.5,"
      "trace.write@3%0.5"));
  par::ThreadPool pool1(1), pool2(2), pool8(8);
  for (par::ThreadPool* pool : {&pool1, &pool2, &pool8}) {
    EXPECT_EQ(run_case(make, 1234, pool, true), reference);
  }
  // Pool dense rounds reach the private-bitmap site; a storm that never
  // fired it would not cover the in-line fallback.
  EXPECT_GT(util::fault::fired("frontier.worker_bits_alloc"), 0u);
  util::fault::disarm_all();
  core::audit::set_throw_on_violation(false);
  core::audit::set_level(0);
  EXPECT_EQ(run_case(make, 1234, nullptr, false), reference);  // and back off
}

}  // namespace
