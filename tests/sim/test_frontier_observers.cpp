// Tests for the frontier-native stop rules and observers: CoverStop,
// FirstVisitTimes, HitTarget, ExcursionStop and OccupancyCounter read a
// CobraWalk's frontier (bitmap words when dense, the sorted list when
// sparse) and must agree round by round with the same walk seen only
// through active(); FirstVisitTimes and CoverStop count the same covered
// set; and a cover run never materializes the sorted vertex list.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/cobra_walk.hpp"
#include "gen/registry.hpp"
#include "obs/metrics.hpp"
#include "sim/observers.hpp"
#include "sim/process.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace {

using namespace cobra;

/// A CobraWalk seen only through the sim::Process concept: no frontier(),
/// so every helper takes its active() fallback.
class ListOnly {
 public:
  explicit ListOnly(core::CobraWalk& walk) : walk_(walk) {}
  void step(core::Engine& gen) { walk_.step(gen); }
  [[nodiscard]] std::span<const core::Vertex> active() const {
    return walk_.active();
  }
  [[nodiscard]] std::uint64_t round() const { return walk_.round(); }
  [[nodiscard]] std::uint32_t n() const { return walk_.n(); }

 private:
  core::CobraWalk& walk_;
};

static_assert(sim::Process<ListOnly>);
static_assert(!sim::detail::BitmapFrontier<ListOnly>);

/// Every rule and observer that reads the active set, driven by hand.
struct Readers {
  Readers(core::Vertex target, core::Vertex home)
      : hit(target), excursions(home, ~std::uint64_t{0}), occupancy(target) {}

  template <typename P>
  void start(const P& p) {
    cover.start(p);
    visits.start(p);
    hit.start(p);
    excursions.start(p);
    occupancy.start(p);
  }
  template <typename P>
  void observe(const P& p) {
    cover.observe(p);
    visits.observe(p);
    hit.observe(p);
    excursions.observe(p);
    occupancy.observe(p);
  }

  sim::CoverStop cover;
  sim::FirstVisitTimes visits;
  sim::HitTarget hit;
  sim::ExcursionStop excursions;
  sim::OccupancyCounter occupancy;
};

std::uint32_t visited_count(const sim::FirstVisitTimes& visits) {
  std::uint32_t count = 0;
  for (const std::uint64_t t : visits.times()) {
    if (t != sim::FirstVisitTimes::kNever) ++count;
  }
  return count;
}

TEST(FrontierObservers, AgreeWithTheActiveListInEveryMode) {
  // n % 64 != 0: the last bitmap word is partial.
  const graph::Graph g = gen::build_graph("rreg:n=1000,d=4,seed=5");
  const std::uint32_t n = g.num_vertices();
  ASSERT_NE(n % 64, 0u);
  const core::Vertex target = n - 1;  // in the partial word
  const core::Vertex home = 3;        // the start vertex's own word
  for (const core::FrontierMode mode :
       {core::FrontierMode::ForceSparse, core::FrontierMode::ForceDense,
        core::FrontierMode::Auto}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::CobraWalk native(g, home, 2), plain(g, home, 2);
    native.engine().options().mode = mode;
    plain.engine().options().mode = mode;
    const ListOnly listed(plain);
    core::Engine gen_native(17), gen_plain(17);
    Readers a(target, home), b(target, home);
    a.start(native);
    b.start(listed);
    bool saw_dense = false, saw_sparse = false;
    for (int round = 0; round < 400 && !a.cover.complete(); ++round) {
      native.step(gen_native);
      plain.step(gen_plain);
      a.observe(native);
      b.observe(listed);
      (native.frontier().dense() ? saw_dense : saw_sparse) = true;

      ASSERT_EQ(a.cover.covered_count(), b.cover.covered_count());
      ASSERT_EQ(visited_count(a.visits), a.cover.covered_count());
      ASSERT_EQ(visited_count(b.visits), b.cover.covered_count());
      ASSERT_EQ(a.hit.hit(), b.hit.hit());
      ASSERT_EQ(a.excursions.completed(), b.excursions.completed());
      ASSERT_EQ(a.occupancy.hits(), b.occupancy.hits());
      // is_active on every vertex (and past n) against the listed set.
      std::vector<bool> in(n + 64, false);
      for (const core::Vertex v : listed.active()) in[v] = true;
      for (core::Vertex v = 0; v < n + 64; ++v) {
        ASSERT_EQ(sim::is_active(native, v), in[v]) << "vertex " << v;
      }
    }
    EXPECT_TRUE(a.cover.complete());
    EXPECT_TRUE(b.cover.complete());
    EXPECT_EQ(a.visits.times(), b.visits.times());
    EXPECT_GT(a.occupancy.hits(), 0u);
    EXPECT_GT(a.excursions.completed(), 0u);
    EXPECT_EQ(saw_dense, mode != core::FrontierMode::ForceSparse);
    EXPECT_EQ(saw_sparse, mode != core::FrontierMode::ForceDense);
  }
}

TEST(FrontierObservers, CoverAcrossAWordBoundaryIsTheSameInBothModes) {
  // Six rounds of a 2-cobra walk from 62 on C_70 cover exactly 58..66,
  // across the first bitmap word boundary, in either representation.
  const graph::Graph g = gen::build_graph("ring:n=70");
  for (const core::FrontierMode mode :
       {core::FrontierMode::ForceSparse, core::FrontierMode::ForceDense}) {
    SCOPED_TRACE(static_cast<int>(mode));
    core::CobraWalk walk(g, 62, 2);
    walk.engine().options().mode = mode;
    core::Engine gen(11);
    sim::CoverStop cover;
    sim::FirstVisitTimes visits;
    cover.start(walk);
    visits.start(walk);
    for (int i = 0; i < 6; ++i) {
      walk.step(gen);
      cover.observe(walk);
      visits.observe(walk);
    }
    EXPECT_EQ(cover.covered_count(), 9u);
    EXPECT_FALSE(cover.complete());
    for (core::Vertex v = 0; v < 70; ++v) {
      EXPECT_EQ(visits.visited(v), v >= 58 && v <= 66) << "vertex " << v;
    }
  }
}

TEST(FrontierObservers, AutoCoverRunNeverMaterializesTheFrontier) {
  if constexpr (obs::kLevel == 0) GTEST_SKIP() << "COBRA_OBS_LEVEL=0";
  const graph::Graph g = gen::build_graph("rreg:n=2^14,d=4,seed=1");
  const obs::Timer& decodes = obs::registry().timer("frontier.materialize");
  core::CobraWalk walk(g, 0, 2);
  core::Engine gen(5);
  sim::CoverStop cover;
  sim::FirstVisitTimes visits;
  const std::uint64_t before = decodes.count();
  const sim::RunResult r = sim::Runner(1u << 16).run(walk, gen, cover, visits);
  ASSERT_TRUE(r.stopped);
  EXPECT_TRUE(cover.complete());
  EXPECT_GT(walk.engine().dense_rounds(), 0u);
  EXPECT_EQ(decodes.count(), before);
  // The timer does see the lazy decode, so the check above is not vacuous.
  ASSERT_TRUE(walk.frontier().dense());
  (void)walk.active();
  EXPECT_EQ(decodes.count(), before + 1);
}

}  // namespace
