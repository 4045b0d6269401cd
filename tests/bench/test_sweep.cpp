// Unit tests for the sweep driver's pure logic (bench/sweep.{hpp,cpp}):
// spec-list smart splitting, thread-list parsing, the merged longitudinal
// JSON format, and its drop detection — plus the --caps metadata parsing
// the driver uses to skip graph-no-op benches.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep.hpp"

#include "harness.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;

TEST(SweepSplit, SemicolonsAlwaysSeparate) {
  const auto specs = bench::split_spec_list("ring:n=64; rreg:n=128,d=4 ;");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], "ring:n=64");
  EXPECT_EQ(specs[1], "rreg:n=128,d=4");
}

TEST(SweepSplit, SmartCommaSplitKeepsSpecParamsTogether) {
  // The acceptance-criteria shape: one comma list, two specs, each spec
  // itself containing commas.
  const auto specs = bench::split_spec_list(
      "rreg:n=128,d=6,seed=5,rreg:n=256,d=6,seed=5");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], "rreg:n=128,d=6,seed=5");
  EXPECT_EQ(specs[1], "rreg:n=256,d=6,seed=5");
}

TEST(SweepSplit, BareFamilyStartsANewSpec) {
  const auto specs = bench::split_spec_list("complete:n=8,hypercube:dims=3");
  ASSERT_EQ(specs.size(), 2u);
  const auto mixed = bench::split_spec_list("gnp:n=2^10,avg_deg=8,lcc=1,ring:n=64");
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0], "gnp:n=2^10,avg_deg=8,lcc=1");
  EXPECT_EQ(mixed[1], "ring:n=64");
}

TEST(SweepSplit, SingleSpecPassesThrough) {
  const auto specs = bench::split_spec_list("torus:side=16,dims=2");
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0], "torus:side=16,dims=2");
}

TEST(SweepSplit, UintListParsesAndRejects) {
  EXPECT_EQ(bench::split_uint_list("1,2,8"),
            (std::vector<std::size_t>{1, 2, 8}));
  EXPECT_THROW(bench::split_uint_list("1,x"), std::invalid_argument);
  EXPECT_THROW(bench::split_uint_list(""), std::invalid_argument);
}

TEST(SweepMerge, RoundTripCountsAndValidates) {
  const std::string child =
      "{\n  \"benchmark\": \"demo\",\n  \"context\": {},\n"
      "  \"records\": [\n    { \"name\": \"r\" }\n  ]\n}\n";
  ASSERT_TRUE(bench::looks_like_bench_json(child));
  std::vector<bench::SweepRun> runs = {
      {"bench_demo", "ring:n=64", 1, child, {}},
      {"bench_demo", "ring:n=64", 2, child, {}},
      {"bench_demo", "rreg:n=128,d=4", 1, child, {}},
      {"bench_demo", "rreg:n=128,d=4", 2, child, {}},
  };
  const std::string merged = bench::merge_sweep_json(
      runs, {}, 4, {{"graph", "ring:n=64,rreg:n=128,d=4"}});
  EXPECT_EQ(bench::count_merged_runs(merged), 4u);
  EXPECT_EQ(bench::expected_runs_of(merged), 4u);
  std::string error;
  EXPECT_TRUE(bench::validate_merged_sweep(merged, 0, &error)) << error;
  EXPECT_TRUE(bench::validate_merged_sweep(merged, 4, &error)) << error;
  // Wrong expectation fails loudly.
  EXPECT_FALSE(bench::validate_merged_sweep(merged, 3, &error));
}

TEST(SweepMerge, DroppedRunFailsValidation) {
  const std::string child =
      "{ \"benchmark\": \"demo\", \"records\": [] }";
  std::vector<bench::SweepRun> runs = {{"bench_demo", "ring:n=64", 1, child, {}}};
  // Promised 2, delivered 1 — the failure mode the CI step must catch.
  const std::string merged = bench::merge_sweep_json(runs, {}, 2, {});
  std::string error;
  EXPECT_FALSE(bench::validate_merged_sweep(merged, 0, &error));
  EXPECT_NE(error.find("dropped"), std::string::npos);
}

TEST(SweepMerge, RejectsNonBenchJson) {
  EXPECT_FALSE(bench::looks_like_bench_json(""));
  EXPECT_FALSE(bench::looks_like_bench_json("{}"));
  EXPECT_FALSE(bench::looks_like_bench_json("not json at all"));
  EXPECT_FALSE(bench::looks_like_bench_json("{ \"benchmark\": \"x\" "));
}

TEST(Caps, RenderAndParseRoundTrip) {
  bench::BenchCaps caps;
  EXPECT_EQ(bench::parse_caps_graph(bench::render_caps(caps, {"trials"})),
            bench::BenchCaps::Graph::Effective);
  caps.graph = bench::BenchCaps::Graph::NoOp;
  const std::string line = bench::render_caps(caps, {"trials"});
  EXPECT_NE(line.find("graph=no"), std::string::npos);
  EXPECT_NE(line.find("trials"), std::string::npos);
  EXPECT_EQ(bench::parse_caps_graph(line), bench::BenchCaps::Graph::NoOp);
  caps.graph = bench::BenchCaps::Graph::Partial;
  EXPECT_EQ(bench::parse_caps_graph(bench::render_caps(caps, {})),
            bench::BenchCaps::Graph::Partial);
}

TEST(SweepMerge, TruncatedRealRecordPrefixesAreRejected) {
  // A crashed child typically leaves a PREFIX of a real record, which ends
  // at some inner '}' — the front/back-char check alone would embed it.
  // Fuzz every prefix of an actual JsonReporter rendering.
  bench::JsonReporter reporter("bench_demo");
  reporter.context("graph", "ring:n=64");
  reporter.record("cover").field("rounds", 12.0).field("note", "a\"b\\c");
  const std::string full = reporter.render();
  ASSERT_TRUE(bench::looks_like_bench_json(full));
  const auto rtrim = [](std::string s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
      s.pop_back();
    }
    return s;
  };
  const std::string complete = rtrim(full);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string prefix = full.substr(0, len);
    // Losing only trailing whitespace leaves the document complete; every
    // prefix that lost CONTENT must be rejected.
    if (rtrim(prefix) == complete) continue;
    EXPECT_FALSE(bench::looks_like_bench_json(prefix))
        << "prefix length " << len << " accepted";
  }
}

TEST(SweepMerge, FailedRunsAreCountedAndKeepValidationHonest) {
  const std::string child = "{ \"benchmark\": \"demo\", \"records\": [] }";
  std::vector<bench::SweepRun> runs = {{"bench_demo", "ring:n=64", 1, child, {}}};
  std::vector<bench::FailedRun> failed = {
      {"bench_demo", "ring:n=64", 2, 3, "exit 86"}};
  // 1 completed + 1 quarantined == 2 expected: valid.
  const std::string merged = bench::merge_sweep_json(runs, failed, 2, {});
  EXPECT_EQ(bench::count_merged_runs(merged), 1u);
  EXPECT_EQ(bench::count_failed_runs(merged), 1u);
  std::string error;
  EXPECT_TRUE(bench::validate_merged_sweep(merged, 0, &error)) << error;
  EXPECT_TRUE(bench::validate_merged_sweep(merged, 2, &error)) << error;
  // The quarantine is explicit — it cannot stand in for MORE cells.
  EXPECT_FALSE(bench::validate_merged_sweep(merged, 3, &error));
  EXPECT_NE(merged.find("\"reason\": \"exit 86\""), std::string::npos);
  EXPECT_NE(merged.find("\"attempts\": 3"), std::string::npos);
}

TEST(Caps, MissingTokenDefaultsToEffective) {
  EXPECT_EQ(bench::parse_caps_graph("whatever"),
            bench::BenchCaps::Graph::Effective);
}

TEST(Caps, GraphTokenTerminatedByNewlineOrEndOfLine) {
  // graph= as the last token (no trailing space) must still parse.
  EXPECT_EQ(bench::parse_caps_graph("bench-caps: graph=no\n"),
            bench::BenchCaps::Graph::NoOp);
  EXPECT_EQ(bench::parse_caps_graph("bench-caps: graph=partial"),
            bench::BenchCaps::Graph::Partial);
}

TEST(SweepMerge, MetricsSnapshotsEmbedWithoutBreakingTheFormat) {
  const std::string child =
      "{ \"benchmark\": \"demo\", \"records\": [ { \"name\": \"r\" } ] }\n";
  const std::string metrics =
      "{\n  \"manifest\": { \"git_sha\": \"abc1234\" },\n"
      "  \"metrics\": [ { \"name\": \"sim.runs\", \"kind\": \"counter\", "
      "\"value\": 1 } ]\n}\n";
  std::vector<bench::SweepRun> runs = {
      {"bench_demo", "ring:n=64", 1, child, metrics},
      {"bench_demo", "ring:n=64", 2, child, {}},  // no metrics: key omitted
  };
  const std::string merged = bench::merge_sweep_json(runs, {}, 2, {});
  EXPECT_NE(merged.find("\"metrics\""), std::string::npos);
  EXPECT_NE(merged.find("\"sim.runs\""), std::string::npos);
  // Counting and validation still work with the metrics object present.
  EXPECT_EQ(bench::count_merged_runs(merged), 2u);
  std::string error;
  EXPECT_TRUE(bench::validate_merged_sweep(merged, 2, &error)) << error;
}

TEST(SweepSpawn, ChildSpawnFaultFailsTheAttemptWithoutExecuting) {
  // sweep.child_spawn (GRACEFUL at the sweep level): an armed firing
  // returns 127 — "command not found" — without running the command, and
  // the cell rides the normal retry/quarantine machinery. The marker file
  // proves nothing was executed.
  util::fault::disarm_all();
  const std::string marker = ::testing::TempDir() + "spawn_marker";
  std::remove(marker.c_str());
  util::fault::arm("sweep.child_spawn");
  EXPECT_EQ(bench::spawn_child("touch " + marker), 127);
  EXPECT_FALSE(std::ifstream(marker).good());
  util::fault::disarm_all();
  // Disarmed, the same command runs and its real exit code comes back.
  EXPECT_EQ(bench::spawn_child("touch " + marker), 0);
  EXPECT_TRUE(std::ifstream(marker).good());
  EXPECT_EQ(bench::spawn_child("exit 3"), 3);
  // A child killed by a signal (an OOM kill, say) reads as 128+sig.
  EXPECT_EQ(bench::spawn_child("kill -9 $$"), 137);
  std::remove(marker.c_str());
}

TEST(SweepMerge, DistinctContextValuesFindsFingerprintDrift) {
  const std::string child_a =
      "{ \"benchmark\": \"demo\", \"context\": { \"git_sha\": \"aaa1111\", "
      "\"hardware_concurrency\": 8 }, \"records\": [ { \"name\": \"r\" } ] }";
  const std::string child_b =
      "{ \"benchmark\": \"demo\", \"context\": { \"git_sha\": \"bbb2222\", "
      "\"hardware_concurrency\": 8 }, \"records\": [ { \"name\": \"r\" } ] }";
  std::vector<bench::SweepRun> runs = {
      {"bench_demo", "ring:n=64", 1, child_a, {}},
      {"bench_demo", "ring:n=64", 2, child_b, {}},
  };
  const std::string merged = bench::merge_sweep_json(runs, {}, 2, {});
  const auto shas = bench::distinct_context_values(merged, "git_sha");
  ASSERT_EQ(shas.size(), 2u);  // mixed-host file: the --validate warning case
  EXPECT_EQ(shas[0], "aaa1111");
  EXPECT_EQ(shas[1], "bbb2222");
  // Numeric values dedupe on their literal spelling.
  EXPECT_EQ(
      bench::distinct_context_values(merged, "hardware_concurrency").size(),
      1u);
  EXPECT_TRUE(bench::distinct_context_values(merged, "no_such_key").empty());
}

}  // namespace
