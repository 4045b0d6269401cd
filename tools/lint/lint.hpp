#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

/// \file lint.hpp
/// The cobra_lint driver: annotation suppression, tree walking, and
/// rendering — everything the tools/cobra_lint binary does, split out so
/// the tests can lint embedded snippets without touching the filesystem
/// (same library-behind-a-thin-binary pattern as bench/gate.hpp and
/// bench/chaos.hpp).
///
/// Suppression grammar (parsed out of comments, so it works inside the
/// code the rules scan):
///     // cobra-lint: allow(RULE[,RULE...]) justification
/// RULE is a rule id ("D2-unordered") or a family prefix ("D2"). The
/// annotation suppresses matching findings on its own line, or — when it
/// is a standalone comment line — on the next code line. A justification
/// is mandatory: an allow() without one produces a `lint-annotation`
/// finding, so every allowed site carries its reason in-tree.

namespace cobra::lint {

/// lint_text: the unit-test entry — run rules + annotation handling over
/// one in-memory file.
[[nodiscard]] std::vector<Finding> lint_text(const std::string& rel_path,
                                             const std::string& text);

/// Lint every *.hpp/*.cpp under `roots` (paths relative to `repo_root`),
/// in sorted path order. Throws std::runtime_error when a root is
/// missing/unreadable.
[[nodiscard]] std::vector<Finding> lint_tree(
    const std::string& repo_root, const std::vector<std::string>& roots);

/// Machine-readable findings: {"findings": [{file, line, rule, severity,
/// message, snippet}, ...], "fresh": N}, N the finding count (0 on a
/// clean tree).
[[nodiscard]] std::string render_findings_json(
    const std::vector<Finding>& findings);

/// The human table: one row per finding, then the count.
[[nodiscard]] std::string render_findings_table(
    const std::vector<Finding>& findings);

}  // namespace cobra::lint
