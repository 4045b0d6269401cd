#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

// Driver-level behavior: annotation suppression (same line, block above,
// family prefix, mandatory justification) and the JSON/table renderers the
// CI lane consumes.

namespace {

using cobra::lint::Finding;
using cobra::lint::lint_text;
using cobra::lint::render_findings_json;
using cobra::lint::render_findings_table;

std::size_t count_rule(const std::vector<Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ------------------------------------------------------- suppression ----

TEST(LintDriver, SameLineAnnotationSuppresses) {
  const auto fs = lint_text(
      "src/core/x.cpp",
      "std::unordered_map<int, int> m;  "
      "// cobra-lint: allow(D2-unordered) membership cache, never iterated\n");
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 0u);
  EXPECT_EQ(count_rule(fs, "lint-annotation"), 0u);
}

TEST(LintDriver, BlockAboveSuppresses) {
  const auto fs = lint_text(
      "src/core/x.cpp",
      "// cobra-lint: allow(D2-unordered) membership cache; the wrapping\n"
      "// justification spills onto a second comment line.\n"
      "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 0u);
}

TEST(LintDriver, FamilyPrefixSuppresses) {
  const auto fs = lint_text(
      "src/core/x.cpp",
      "// cobra-lint: allow(D2) membership cache, never iterated\n"
      "std::unordered_set<int> s;\n");
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 0u);
}

TEST(LintDriver, MultiRuleAnnotation) {
  const auto fs = lint_text(
      "src/core/x.cpp",
      "// cobra-lint: allow(D2-unordered, D4-atomic-order) test fixture\n"
      "std::unordered_map<int, std::atomic<int>> m; m[0].store(1);\n");
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 0u);
  EXPECT_EQ(count_rule(fs, "D4-atomic-order"), 0u);
}

TEST(LintDriver, WrongRuleDoesNotSuppress) {
  const auto fs = lint_text(
      "src/core/x.cpp",
      "// cobra-lint: allow(D1-rand) some unrelated excuse\n"
      "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 1u);
}

TEST(LintDriver, AnnotationDoesNotLeakPastCode) {
  // The block-above walk stops at intervening code: line 2's annotation
  // must not cover line 4's violation.
  const auto fs = lint_text(
      "src/core/x.cpp",
      "int a;\n"
      "// cobra-lint: allow(D2-unordered) covers only the next line\n"
      "std::unordered_map<int, int> covered;\n"
      "std::unordered_map<int, int> uncovered;\n");
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 1u);
  EXPECT_EQ(fs.front().line, 4u);
}

TEST(LintDriver, MissingReasonIsAFindingAndDoesNotSuppress) {
  const auto fs = lint_text(
      "src/core/x.cpp",
      "// cobra-lint: allow(D2-unordered)\n"
      "std::unordered_map<int, int> m;\n");
  EXPECT_EQ(count_rule(fs, "lint-annotation"), 1u);
  EXPECT_EQ(count_rule(fs, "D2-unordered"), 1u);
}

TEST(LintDriver, MalformedMarkerIsAFinding) {
  const auto fs =
      lint_text("src/core/x.cpp", "// cobra-lint: allow D2 no parens\n");
  EXPECT_EQ(count_rule(fs, "lint-annotation"), 1u);
}

// --------------------------------------------------------- rendering ----

TEST(LintDriver, JsonCarriesFindingsAndCounts) {
  const auto fs = lint_text("src/core/x.cpp", "int v = std::rand();\n");
  const std::string json = render_findings_json(fs);
  EXPECT_NE(json.find("\"rule\": \"D1-rand\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/core/x.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"fresh\": 1"), std::string::npos);
  EXPECT_EQ(json.find("baselined"), std::string::npos);
}

TEST(LintDriver, JsonEscapesQuotes) {
  Finding f;
  f.file = "src/core/x.cpp";
  f.line = 1;
  f.rule = "D1-rand";
  f.message = "msg";
  f.snippet = "log(\"hi\\n\");";
  const std::string json = render_findings_json({f});
  EXPECT_NE(json.find("log(\\\"hi\\\\n\\\");"), std::string::npos);
}

TEST(LintDriver, TableListsEveryFinding) {
  const auto fs = lint_text("src/core/x.cpp",
                            "std::unordered_map<int, int> m;\n"
                            "int v = std::rand();\n");
  ASSERT_EQ(fs.size(), 2u);
  const std::string table = render_findings_table(fs);
  EXPECT_NE(table.find("src/core/x.cpp:1  [D2-unordered]"), std::string::npos);
  EXPECT_NE(table.find("src/core/x.cpp:2  [D1-rand]"), std::string::npos);
  EXPECT_NE(table.find("2 finding(s)"), std::string::npos);
}

TEST(LintDriver, FindingsSortedByLine) {
  const auto fs = lint_text("src/core/x.cpp",
                            "int v = std::rand();\n"
                            "std::unordered_map<int, int> m;\n"
                            "auto id = std::this_thread::get_id();\n");
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].line, 1u);
  EXPECT_EQ(fs[1].line, 2u);
  EXPECT_EQ(fs[2].line, 3u);
}

}  // namespace
