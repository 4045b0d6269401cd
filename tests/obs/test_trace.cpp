// Tests for the per-round JSONL trace sink: every emitted line parses,
// rounds are strictly increasing per engine, the mode/path/switch
// vocabularies hold, and the occupancy/rng fields are self-consistent.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/cobra_walk.hpp"
#include "gen/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace {

using namespace cobra;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Extract the raw text after `"key": ` up to the next ',' or '}' — enough
/// structure checking for the flat one-line schema trace_round() writes.
std::string raw_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  std::size_t end = line.find_first_of(",}", start);
  if (end == std::string::npos) end = line.size();
  return line.substr(start, end - start);
}

std::uint64_t u64_field(const std::string& line, const std::string& key) {
  const std::string raw = raw_field(line, key);
  EXPECT_FALSE(raw.empty()) << "missing field " << key << " in: " << line;
  return raw.empty() ? 0 : std::stoull(raw);
}

std::string str_field(const std::string& line, const std::string& key) {
  std::string raw = raw_field(line, key);
  EXPECT_GE(raw.size(), 2u) << "missing string field " << key;
  if (raw.size() < 2) return {};
  EXPECT_EQ(raw.front(), '"');
  EXPECT_EQ(raw.back(), '"');
  return raw.substr(1, raw.size() - 2);
}

double double_field(const std::string& line, const std::string& key) {
  const std::string raw = raw_field(line, key);
  EXPECT_FALSE(raw.empty()) << "missing field " << key;
  return raw.empty() ? 0.0 : std::stod(raw);
}

class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    // Tracing is compiled out with the rest of observability at level 0.
    if constexpr (obs::kLevel == 0) GTEST_SKIP() << "COBRA_OBS_LEVEL=0";
  }
  void TearDown() override { obs::close_global_trace(); }
};

TEST_F(TraceTest, DisabledByDefaultAndArmsOnOpen) {
  EXPECT_FALSE(obs::trace_enabled());
  const std::string path = testing::TempDir() + "cobra_trace_arm.jsonl";
  ASSERT_TRUE(obs::open_global_trace(path));
  EXPECT_TRUE(obs::trace_enabled());
  obs::close_global_trace();
  EXPECT_FALSE(obs::trace_enabled());
}

TEST_F(TraceTest, CoverRunEmitsWellFormedStrictlyIncreasingRounds) {
  const std::string path = testing::TempDir() + "cobra_trace_cover.jsonl";
  ASSERT_TRUE(obs::open_global_trace(path));

  // A cover run that crosses the sparse -> dense threshold (dense_alpha
  // 256 on n=512 goes dense once the frontier passes 2), exercising both
  // representations and the auto-grow switch note.
  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=7");
  core::Engine gen(1234);
  core::CobraWalk walk(g, 0, 2);
  sim::CoverStop cover;
  const auto r = sim::Runner(1u << 18).run(walk, gen, cover);
  ASSERT_TRUE(r.stopped);
  obs::close_global_trace();

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), r.rounds);

  std::map<std::uint64_t, std::uint64_t> last_round;  // per trace id
  bool saw_dense = false;
  bool saw_grow = false;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');

    const std::uint64_t id = u64_field(line, "trace");
    const std::uint64_t round = u64_field(line, "round");
    EXPECT_GE(id, 1u);
    if (const auto it = last_round.find(id); it != last_round.end()) {
      EXPECT_GT(round, it->second) << "rounds must strictly increase";
    }
    last_round[id] = round;

    const std::string mode = str_field(line, "mode");
    EXPECT_TRUE(mode == "sparse" || mode == "dense") << mode;
    saw_dense = saw_dense || mode == "dense";
    const std::string exec_path = str_field(line, "path");
    EXPECT_TRUE(exec_path == "serial" || exec_path == "parallel") << exec_path;
    const std::string why = str_field(line, "switch");
    EXPECT_TRUE(why.empty() || why == "auto-grow" || why == "auto-shrink" ||
                why == "forced-sparse" || why == "forced-dense" ||
                why == "dense-alloc-fallback")
        << why;
    saw_grow = saw_grow || why == "auto-grow";

    const std::uint64_t frontier = u64_field(line, "frontier");
    const std::uint64_t chunks = u64_field(line, "chunks");
    const std::uint64_t max_chunk = u64_field(line, "max_chunk");
    EXPECT_GE(frontier, 1u);
    EXPECT_GE(chunks, 1u);
    EXPECT_GE(max_chunk, 1u);
    EXPECT_LE(max_chunk, frontier);
    const double mean_chunk = double_field(line, "mean_chunk");
    EXPECT_GT(mean_chunk, 0.0);
    EXPECT_LE(mean_chunk, static_cast<double>(max_chunk));
    const double seconds = double_field(line, "seconds");
    const double sample_s = double_field(line, "sample_s");
    const double merge_s = double_field(line, "merge_s");
    EXPECT_GE(sample_s, 0.0);
    EXPECT_GE(merge_s, 0.0);
    // The phases lie inside the round; the slack covers the 6-digit
    // rounding of the printed values.
    EXPECT_LE(sample_s + merge_s, seconds * 1.0001);
    u64_field(line, "produced");  // present
  }
  EXPECT_TRUE(saw_dense) << "cover run never went dense";
  EXPECT_TRUE(saw_grow) << "no auto-grow switch was recorded";
  // All lines came from the single engine of this run.
  EXPECT_EQ(last_round.size(), 1u);
}

TEST_F(TraceTest, ParallelRoundsReportChunkedPath) {
  const std::string path = testing::TempDir() + "cobra_trace_par.jsonl";
  ASSERT_TRUE(obs::open_global_trace(path));

  const graph::Graph g = gen::build_graph("rreg:n=512,d=4,seed=3");
  par::ThreadPool pool(2);
  core::CobraWalk walk(g, 0, 2);
  walk.engine().options() = {64, 1, &pool};  // force the parallel path
  core::Engine gen(99);
  sim::CoverStop cover;
  const auto r = sim::Runner(1u << 18).run(walk, gen, cover);
  ASSERT_TRUE(r.stopped);
  obs::close_global_trace();

  bool saw_parallel_chunks = false;
  for (const std::string& line : read_lines(path)) {
    if (str_field(line, "path") == "parallel" &&
        u64_field(line, "chunks") > 1) {
      saw_parallel_chunks = true;
    }
  }
  EXPECT_TRUE(saw_parallel_chunks);
}

TEST_F(TraceTest, TraceWriteFaultDropsLinesAndCountsThem) {
  // The trace.write site (GRACEFUL): an armed firing drops the line and
  // bumps trace.lines_dropped — telemetry loss must never surface as an
  // exception or affect results.
  const std::string path = testing::TempDir() + "cobra_trace_fault.jsonl";
  ASSERT_TRUE(obs::open_global_trace(path));
  const std::uint64_t dropped_before =
      obs::registry().counter("trace.lines_dropped").value();
  util::fault::disarm_all();
  util::fault::arm("trace.write", 2);  // drop from the 3rd line onward
  for (std::uint64_t r = 1; r <= 5; ++r) {
    obs::RoundTrace t;
    t.trace_id = 77;
    t.round = r;
    t.frontier = 1;
    obs::trace_round(t);
  }
  util::fault::disarm_all();
  obs::close_global_trace();
  // The file holds the 2 surviving round lines — plus one {"fault": ...}
  // event line per firing, because the fault log bypasses the site it
  // reports on. Count the kinds separately.
  std::size_t round_lines = 0, fault_lines = 0;
  for (const std::string& line : read_lines(path)) {
    if (raw_field(line, "fault").empty()) {
      ++round_lines;
    } else {
      ++fault_lines;
    }
  }
  EXPECT_EQ(round_lines, 2u);
  EXPECT_EQ(fault_lines, 3u);
  EXPECT_EQ(obs::registry().counter("trace.lines_dropped").value(),
            dropped_before + 3);
}

TEST_F(TraceTest, FaultFiringsLandInTheTraceLog) {
  // Every firing is emitted as a {"fault": ...} line — and trace_fault
  // bypasses the trace.write site, so the fault log cannot suppress
  // itself even while trace.write is armed.
  const std::string path = testing::TempDir() + "cobra_fault_events.jsonl";
  ASSERT_TRUE(obs::open_global_trace(path));
  util::fault::disarm_all();
  util::fault::arm("trace.write", 1000);  // armed but never firing
  util::fault::arm_spec(util::fault::FaultPlan::parse("demo.site@1#2").specs[0]);
  util::fault::tick_round();
  util::fault::tick_round();
  for (int i = 0; i < 5; ++i) (void)util::fault::should_fail("demo.site");
  util::fault::disarm_all();  // also resets the round clock
  EXPECT_EQ(util::fault::current_round(), 0u);
  obs::close_global_trace();
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);  // hits 1 and 2 fired (limit 2)
  EXPECT_EQ(str_field(lines[0], "fault"), "demo.site");
  EXPECT_EQ(u64_field(lines[0], "hit"), 1u);
  EXPECT_EQ(u64_field(lines[0], "fire"), 1u);
  EXPECT_EQ(u64_field(lines[0], "round"), 2u);  // the engine round clock
  EXPECT_EQ(u64_field(lines[1], "hit"), 2u);
  EXPECT_EQ(u64_field(lines[1], "fire"), 2u);
}

TEST_F(TraceTest, ReopenTruncatesAndReuses) {
  const std::string path = testing::TempDir() + "cobra_trace_reopen.jsonl";
  ASSERT_TRUE(obs::open_global_trace(path));
  obs::RoundTrace t;
  t.trace_id = obs::next_trace_id();
  t.round = 1;
  t.frontier = 1;
  obs::trace_round(t);
  obs::close_global_trace();
  ASSERT_EQ(read_lines(path).size(), 1u);
  // Re-open truncates: the old line is gone.
  ASSERT_TRUE(obs::open_global_trace(path));
  obs::close_global_trace();
  EXPECT_TRUE(read_lines(path).empty());
}

}  // namespace
