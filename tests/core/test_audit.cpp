// Tests for the runtime invariant auditor (core/audit.*): the pure checks
// against hand-built good and corrupted inputs, the sampling policy, the
// COBRA_AUDIT arming path, and the engine hook end-to-end — audited walks
// produce trajectories bit-identical to unaudited ones, and a planted
// contract breach trips a structured violation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "core/audit.hpp"
#include "core/cobra_walk.hpp"
#include "gen/registry.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace cobra;
namespace audit = core::audit;

struct AuditTest : ::testing::Test {
  void SetUp() override {
    audit::set_level(0);
    audit::set_throw_on_violation(true);
  }
  void TearDown() override {
    audit::set_level(0);
    audit::set_throw_on_violation(false);
    ::unsetenv("COBRA_AUDIT");
  }
};

// ------------------------------------------------------------ pure checks --

TEST_F(AuditTest, CanonicalListAcceptsStrictlyAscendingInRange) {
  const std::vector<graph::Vertex> good = {0, 3, 4, 9};
  std::string why;
  EXPECT_TRUE(audit::check_canonical_list(good, 10, &why)) << why;
  EXPECT_TRUE(audit::check_canonical_list({}, 10, &why)) << why;
}

TEST_F(AuditTest, CanonicalListRejectsDisorderDuplicatesAndRange) {
  std::string why;
  const std::vector<graph::Vertex> unsorted = {3, 1, 4};
  EXPECT_FALSE(audit::check_canonical_list(unsorted, 10, &why));
  const std::vector<graph::Vertex> dup = {1, 1, 4};
  EXPECT_FALSE(audit::check_canonical_list(dup, 10, &why));
  const std::vector<graph::Vertex> oob = {1, 4, 10};
  EXPECT_FALSE(audit::check_canonical_list(oob, 10, &why));
  EXPECT_FALSE(why.empty());
}

TEST_F(AuditTest, BitmapCheckVerifiesSizePopcountAndTail) {
  // n = 70: 2 words, tail bits 70-127 must be clear.
  std::vector<std::uint64_t> words(2, 0);
  words[0] = 0b1011;          // vertices 0, 1, 3
  words[1] = 1ULL << 5;       // vertex 69
  std::string why;
  EXPECT_TRUE(audit::check_bitmap(words, 4, 70, &why)) << why;
  EXPECT_FALSE(audit::check_bitmap(words, 3, 70, &why));  // popcount != count
  words[1] |= 1ULL << 7;  // vertex 71: beyond n, tail dirty
  EXPECT_FALSE(audit::check_bitmap(words, 5, 70, &why));
  EXPECT_FALSE(audit::check_bitmap(words, 4, 200, &why));  // wrong word count
}

// ------------------------------------------------------- arming / sampling --

TEST_F(AuditTest, SamplingPolicyMatchesTheLevel) {
  audit::set_level(0);
  EXPECT_FALSE(audit::enabled());
  audit::set_level(1);
  EXPECT_TRUE(audit::sample_round(0));
  EXPECT_FALSE(audit::sample_round(1));
  EXPECT_FALSE(audit::sample_round(15));
  EXPECT_TRUE(audit::sample_round(16));
  audit::set_level(2);
  for (std::uint64_t s = 0; s < 20; ++s) EXPECT_TRUE(audit::sample_round(s));
}

TEST_F(AuditTest, ArmFromEnvParsesLevelAndIgnoresGarbage) {
  ::setenv("COBRA_AUDIT", "2", 1);
  EXPECT_EQ(audit::arm_from_env(), 2);
  EXPECT_TRUE(audit::enabled());
  audit::set_level(0);
  ::setenv("COBRA_AUDIT", "banana", 1);
  EXPECT_EQ(audit::arm_from_env(), 0);
  EXPECT_FALSE(audit::enabled());
  ::unsetenv("COBRA_AUDIT");
  EXPECT_EQ(audit::arm_from_env(), 0);
}

TEST_F(AuditTest, ReportViolationCountsAndThrowsInTestMode) {
  const std::uint64_t before = obs::registry().counter("audit.violations").value();
  EXPECT_THROW(audit::report_violation("canonical-order", "test breach"),
               std::logic_error);
  EXPECT_EQ(obs::registry().counter("audit.violations").value(), before + 1);
}

// ------------------------------------------------------------ engine hook --

TEST_F(AuditTest, AuditedWalkMatchesUnauditedTrajectory) {
  const graph::Graph g = gen::build_graph("rreg:n=256,d=4,seed=3");
  const auto run = [&](int level) {
    audit::set_level(level);
    core::CobraWalk walk(g, 0, 2);
    core::Engine gen(99);
    std::vector<std::vector<core::Vertex>> rounds;
    for (int i = 0; i < 16; ++i) {
      walk.step(gen);
      rounds.emplace_back(walk.active().begin(), walk.active().end());
    }
    audit::set_level(0);
    return rounds;
  };
  const auto plain = run(0);
  const auto sampled = run(1);
  const auto full = run(2);
  EXPECT_EQ(plain, sampled);
  EXPECT_EQ(plain, full);  // audits observe, never steer
}

TEST_F(AuditTest, EngineHookCatchesAPlantedCsrBreach) {
  // The Graph CSR constructor deliberately skips the arc-symmetry check
  // (validate() owns it), so an asymmetric CSR — arcs (0,2) and (2,1)
  // with no reverses — builds fine but is NOT an undirected graph. The
  // auditor's once-per-engine Graph::validate() hook must catch it on the
  // first audited round.
  const graph::Graph bad(3, {0, 2, 3, 4}, {1, 2, 0, 1});
  audit::set_level(2);
  core::CobraWalk walk(bad, 0, 2);
  core::Engine gen(5);
  bool violated = false;
  try {
    for (int i = 0; i < 4; ++i) walk.step(gen);
  } catch (const std::logic_error& e) {
    violated = true;
    EXPECT_NE(std::string(e.what()).find("audit violation"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("graph-csr"), std::string::npos);
  }
  EXPECT_TRUE(violated);
  audit::set_level(0);
}

}  // namespace
