#include "harness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace cobra::bench {
namespace {

io::Args parse(std::vector<const char*> argv,
               std::vector<std::string> extra = {}) {
  argv.insert(argv.begin(), "bench");
  return parse_bench_args_checked(static_cast<int>(argv.size()), argv.data(),
                                  std::move(extra));
}

TEST(ParseBenchArgs, AcceptsTheSharedFlagSet) {
  const io::Args args = parse(
      {"--graph", "ring:n=8", "--out", "x.json", "--smoke", "--threads", "2"});
  EXPECT_EQ(args.get("graph", ""), "ring:n=8");
  EXPECT_EQ(args.get("out", ""), "x.json");
  EXPECT_TRUE(args.get_bool("smoke", false));
  EXPECT_EQ(args.get_uint("threads", 0), 2u);
}

TEST(ParseBenchArgs, AcceptsBenchSpecificExtraFlags) {
  const io::Args args = parse({"--trials", "7", "--smoke"}, {"trials"});
  EXPECT_EQ(args.get_uint("trials", 0), 7u);
}

TEST(ParseBenchArgs, RejectsUnknownFlag) {
  EXPECT_THROW((void)parse({"--nope", "1"}), std::invalid_argument);
}

TEST(ParseBenchArgs, RejectsPositionalArguments) {
  // Pre-migration benches took positional [out.json]; silently accepting
  // those could overwrite recorded baselines, so they are an error.
  EXPECT_THROW((void)parse({"out.json"}), std::invalid_argument);
}

TEST(ParseBenchArgs, RejectsMalformedThreadsValueEagerly) {
  EXPECT_THROW((void)parse({"--threads", "many"}), std::invalid_argument);
  EXPECT_THROW((void)parse({"--threads=-2"}), std::invalid_argument);
}

TEST(ParseBenchArgs, InjectionFlagsAreGone) {
  // Crash injection is the bench.crash fault site, not a flag.
  EXPECT_THROW((void)parse({"--inject-crash-after", "0"}),
               std::invalid_argument);
  EXPECT_THROW((void)parse({"--inject-hang", "1"}), std::invalid_argument);
}

TEST(ParseBenchArgsDeathTest, BenchCrashSiteFiresFromAFaultPlan) {
  const std::string plan = ::testing::TempDir() + "bench_crash_test.plan";
  std::ofstream(plan) << "bench.crash\n";
  const std::vector<const char*> argv = {"bench", "--fault-plan",
                                         plan.c_str()};
  EXPECT_EXIT((void)parse_bench_args(static_cast<int>(argv.size()),
                                     argv.data()),
              ::testing::ExitedWithCode(86), "bench\\.crash");
  std::remove(plan.c_str());
}

TEST(ResolveSuite, FullModeKeepsTheDeclaredSpecs) {
  const io::Args args = parse({});
  const auto resolved = resolve_suite(
      args, /*smoke=*/false,
      {{"a", "ring:n=64", "ring:n=8"}, {"b", "path:n=32", ""}});
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].spec, "ring:n=64");
  EXPECT_EQ(resolved[1].spec, "path:n=32");
}

TEST(ResolveSuite, SmokeModeSubstitutesSmokeSpecsWhereDeclared) {
  const io::Args args = parse({"--smoke"});
  const auto resolved = resolve_suite(
      args, /*smoke=*/true,
      {{"a", "ring:n=64", "ring:n=8"}, {"b", "path:n=32", ""}});
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].spec, "ring:n=8");   // shrunk
  EXPECT_EQ(resolved[1].spec, "path:n=32");  // no smoke spec: full reused
}

TEST(ResolveSuite, GraphFlagCollapsesTheSuiteToOneCase) {
  const io::Args args = parse({"--graph", "hypercube:dims=4"});
  const auto resolved = resolve_suite(
      args, /*smoke=*/false,
      {{"a", "ring:n=64", "ring:n=8"}, {"b", "path:n=32", ""}});
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].name, "hypercube:dims=4");
  EXPECT_EQ(resolved[0].spec, "hypercube:dims=4");
}

TEST(Harness, SuiteBuildsGraphsThroughTheRegistry) {
  Harness h("t", parse({"--smoke"}));
  const auto built = h.suite({{"ring", "ring:n=16", "ring:n=8"}});
  ASSERT_EQ(built.size(), 1u);
  EXPECT_EQ(built[0].name, "ring");
  EXPECT_EQ(built[0].spec, "ring:n=8");
  EXPECT_EQ(built[0].graph.num_vertices(), 8u);
}

TEST(Harness, GraphOverrideBuildsTheNamedGraph) {
  Harness h("t", parse({"--graph", "hypercube:dims=4"}));
  EXPECT_TRUE(h.has_graph());
  const auto built = h.suite({{"ring", "ring:n=16", ""}});
  ASSERT_EQ(built.size(), 1u);
  EXPECT_EQ(built[0].graph.num_vertices(), 16u);
}

TEST(Harness, TrialsPicksTheModeDefaultAndTheFlagWins) {
  EXPECT_EQ(Harness("t", parse({})).trials(40, 6), 40u);
  EXPECT_EQ(Harness("t", parse({"--smoke"})).trials(40, 6), 6u);
  EXPECT_EQ(Harness("t", parse({"--smoke", "--trials", "3"}, {"trials"}))
                .trials(40, 6),
            3u);
}

TEST(Harness, FinishWritesTheOutJson) {
  const std::string path = testing::TempDir() + "harness_out.json";
  Harness h("my_bench", parse({"--out", path.c_str(), "--smoke"}));
  h.json().record("r0").field("value", 1.5).field("label", "x");
  EXPECT_EQ(h.finish(), 0);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"benchmark\": \"my_bench\""), std::string::npos);
  EXPECT_NE(json.find("\"smoke\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"r0\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 1.5"), std::string::npos);
}

TEST(Harness, FinishWithoutOutIsANoOp) {
  Harness h("t", parse({}));
  EXPECT_EQ(h.finish(), 0);
}

TEST(JsonReporter, EscapesQuotesBackslashesAndControlChars) {
  JsonReporter json("esc");
  json.record("r").field("s", std::string("a\"b\\c\nd"));
  const std::string out = json.render();
  EXPECT_NE(out.find("a\\\"b\\\\c\\u000ad"), std::string::npos);
}

TEST(JsonReporter, NonFiniteNumbersSerializeAsNull) {
  JsonReporter json("nan");
  json.record("r").field("x", std::nan(""));
  EXPECT_NE(json.render().find("\"x\": null"), std::string::npos);
}

}  // namespace
}  // namespace cobra::bench
