// Compile-time conformance ledger: every process type in the repo,
// asserted against the concept it claims to model. Concepts fail SILENTLY
// — a signature drift (say `round()` losing const) doesn't error where
// the process is defined; it just stops the type from matching
// `sim::Process`, and the first symptom is a cryptic overload-resolution
// failure (or worse, a Runner call compiling against a different branch)
// far from the edit. The static_asserts below turn that drift into an
// immediate, named compile error: building this test is the test.
//
// When you add a process: add its static_assert here. See CONTRIBUTING.md.

#include <gtest/gtest.h>

#include "core/biased_walk.hpp"
#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/greedy_mis.hpp"
#include "core/lll_resampler.hpp"
#include "core/metropolis_walk.hpp"
#include "core/pair_walk.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "sim/process.hpp"

namespace cobra::sim {

// ----------------------------------------------------- sim::Process -----
// "Advance one round, read the active set" — the shape sim::Runner drives.

static_assert(Process<core::RandomWalk>);
static_assert(Process<core::BiasedWalk>);
static_assert(Process<core::MetropolisWalk>);
static_assert(Process<core::PairWalk>);
static_assert(Process<core::CobraWalk>);
static_assert(Process<core::Walt>);
static_assert(Process<core::Gossip>);
static_assert(Process<core::GreedyMIS>);
static_assert(Process<core::LLLResampler>);
static_assert(Process<GridDriftProcess>);

// Deliberate NON-members, pinned so a refactor that accidentally makes
// them model Process (or starts relying on them doing so) is flagged:
// GridDriftWalk is a chain on per-dimension distances with no vertex
// active set — GridDriftProcess is its adapter.
static_assert(!Process<core::GridDriftWalk>);

// ------------------------------------------ frontier-native readers -----
// Processes whose frontier() the stop rules and observers read as bitmap
// words or a sorted list (sim/process.hpp). A drift here is slow, not
// wrong: the readers would silently fall back to materializing active().

static_assert(detail::BitmapFrontier<core::CobraWalk>);
static_assert(detail::BitmapFrontier<core::GreedyMIS>);

}  // namespace cobra::sim

// The runtime checks below pin the concept's behavior on shapes that are
// easy to get wrong, so a loosened concept fails a test and not only a
// code review.

namespace {

using cobra::sim::Process;

struct NotAProcess {};

// Each missing/broken requirement must individually break conformance.
struct NoStep {
  [[nodiscard]] std::span<const cobra::core::Vertex> active() const {
    return {};
  }
  [[nodiscard]] std::uint64_t round() const { return 0; }
  [[nodiscard]] std::uint32_t n() const { return 0; }
};

struct NonConstActive {
  void step(cobra::core::Engine&) {}
  [[nodiscard]] std::span<const cobra::core::Vertex> active() { return {}; }
  [[nodiscard]] std::uint64_t round() const { return 0; }
  [[nodiscard]] std::uint32_t n() const { return 0; }
};

struct Minimal {
  void step(cobra::core::Engine&) {}
  [[nodiscard]] std::span<const cobra::core::Vertex> active() const {
    return {};
  }
  [[nodiscard]] std::uint64_t round() const { return 0; }
  [[nodiscard]] std::uint32_t n() const { return 0; }
};

TEST(Conformance, ConceptShape) {
  static_assert(!Process<NotAProcess>);
  static_assert(!Process<NoStep>);
  static_assert(!Process<NonConstActive>);
  static_assert(Process<Minimal>);
  SUCCEED();
}

TEST(Conformance, LedgerIsIncluded) {
  // Compiling this TU evaluated every assert of the ledger above.
  SUCCEED();
}

}  // namespace
