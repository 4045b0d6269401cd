/// cobra_lint — the determinism & concurrency static-analysis pass: scan
/// src/, bench/, and tools/ for the rule catalog in tools/lint/rules.hpp
/// (nondeterminism sources, iteration-order hazards, RNG discipline,
/// atomic memory orders, layering) and fail on any finding that is not
/// annotated in-source.
///
/// Usage:
///   cobra_lint --root REPO [--json FILE] [--quiet]
///
///   --root   repo root to scan (the directory holding src/)
///   --json   also write machine-readable findings here
///   --quiet  suppress the human table on success
///
/// Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "io/args.hpp"
#include "lint/lint.hpp"

namespace {

using namespace cobra;

/// The lint roots, relative to --root.
const std::vector<std::string> kPaths = {"src", "bench", "tools"};

}  // namespace

int main(int argc, char** argv) {
  io::Args args(0, nullptr, {});
  try {
    args = io::Args(argc, argv, {"root", "json", "quiet"});
  } catch (const std::invalid_argument& e) {
    std::cerr << "cobra_lint: " << e.what()
              << "\nusage: cobra_lint --root REPO [--json FILE] [--quiet]\n";
    return 2;
  }
  if (!args.has("root")) {
    std::cerr << "cobra_lint: --root is required\n";
    return 2;
  }

  std::vector<lint::Finding> findings;
  try {
    findings = lint::lint_tree(args.get("root", "."), kPaths);
  } catch (const std::exception& e) {
    std::cerr << "cobra_lint: " << e.what() << "\n";
    return 2;
  }

  if (args.has("json")) {
    const std::string path = args.get("json", "");
    std::ofstream out(path);
    out << lint::render_findings_json(findings);
    out.flush();
    if (!out) {
      std::cerr << "cobra_lint: cannot write " << path << "\n";
      return 2;
    }
  }

  const bool clean = findings.empty();
  if (!clean || !args.get_bool("quiet", false)) {
    std::cout << lint::render_findings_table(findings);
  }
  std::cout << "cobra_lint: " << (clean ? "PASS" : "FAIL") << "\n";
  return clean ? 0 : 1;
}
