#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

/// \file sweep.hpp
/// The sweep driver's pure logic, split out of the cobra_sweep binary so
/// it is unit-testable: spec-list / thread-list parsing, the merged
/// longitudinal JSON format, and its validation. cobra_sweep.cpp is the
/// process-spawning shell around these.
///
/// Merged file schema (one file per sweep, the ROADMAP's "longitudinal
/// JSON" replacing the shell-loop + smoke_*.json workflow):
///
///   {
///     "sweep": "cobra_sweep",
///     "context": { "expected_runs": N, ... },
///     "runs": [
///       { "sweep_run_id": 0, "bench": "...", "spec": "...",
///         "threads": T, "result": { <the bench's own --out JSON> },
///         "metrics": { <the child's --metrics snapshot, when collected> } },
///       ...
///     ],
///     "failed_runs": [
///       { "failed_run_id": 0, "bench": "...", "spec": "...",
///         "threads": T, "attempts": A, "reason": "..." },
///       ...
///     ]
///   }
///
/// Each run's `result` is the child bench's JSON embedded verbatim (we
/// wrote it, so it needs re-indenting, not re-parsing); `sweep_run_id` is
/// the distinctive token validation counts, chosen because no bench JSON
/// field uses that name. `failed_runs` (omitted when empty) quarantines
/// cells whose child failed again on its one retry: the sweep completes
/// AROUND a poisoned cell and the file says so explicitly —
/// validation accepts a file exactly when runs + failed_runs account for
/// every expected cell, so a silently dropped run still fails it.

namespace cobra::bench {

/// Split a --graph value into GraphSpecs. Separators: ';' always, and ','
/// smartly — a comma-separated segment CONTINUES the previous spec when it
/// is a bare key=value pair and STARTS a new spec when it names a family
/// (contains ':' or has no '='). So the acceptance-style
/// "rreg:n=128,d=4,seed=1,ring:n=64" is two specs, even though specs
/// themselves contain commas. Whitespace around separators is trimmed;
/// empty segments are dropped.
[[nodiscard]] std::vector<std::string> split_spec_list(const std::string& text);

/// Split "1,2,8" into thread counts. Throws std::invalid_argument on a
/// non-numeric or empty entry.
[[nodiscard]] std::vector<std::size_t> split_uint_list(const std::string& text);

/// One completed child run.
struct SweepRun {
  std::string bench;
  std::string spec;
  std::size_t threads = 0;
  std::string json_text;     ///< the child's --out file, verbatim
  /// The child's --metrics snapshot, verbatim; empty = no metrics were
  /// collected for this cell (the "metrics" key is then omitted from the
  /// merged run object).
  std::string metrics_json;
};

/// One quarantined cell: a (bench, spec, threads) point whose child failed
/// both attempts.
struct FailedRun {
  std::string bench;
  std::string spec;
  std::size_t threads = 0;
  std::size_t attempts = 0;  ///< attempts consumed
  std::string reason;        ///< "exit 86", "exit 127", ...
};

/// Launch one child command line through the shell and return its DECODED
/// exit code (std::system's wait(2) status folded to the child's real exit
/// code; signal deaths read as the conventional 128+sig). Carries the
/// `sweep.child_spawn` fault site (GRACEFUL at the sweep level): an armed
/// firing fails the attempt with exit 127 — "command not found", the shell
/// convention for a spawn that never ran — without executing anything, and
/// the cell rides the normal retry/quarantine path.
[[nodiscard]] int spawn_child(const std::string& cmd);

/// Structural check that `text` is a bench JSON record (JsonReporter
/// schema): an object with "benchmark" and "records" keys whose braces,
/// brackets, and strings balance — depth returns to zero exactly at the
/// final byte. The balance pass is what rejects a TRUNCATED file, which
/// typically still ends at some inner '}' (a crashed child's partial
/// write); checking front/back characters alone would embed it.
[[nodiscard]] bool looks_like_bench_json(const std::string& text);

/// Render the merged longitudinal JSON. `context` entries are emitted as
/// raw key -> quoted-string pairs next to the "expected_runs" count, which
/// is what validate_merged_sweep later re-checks. The "failed_runs"
/// section follows "runs" and is omitted when `failed` is empty.
[[nodiscard]] std::string merge_sweep_json(
    const std::vector<SweepRun>& runs, const std::vector<FailedRun>& failed,
    std::size_t expected_runs,
    const std::vector<std::pair<std::string, std::string>>& context);

/// Count the runs embedded in a merged file (occurrences of the
/// "sweep_run_id" key).
[[nodiscard]] std::size_t count_merged_runs(const std::string& merged_text);

/// Count the quarantined cells (occurrences of the "failed_run_id" key).
[[nodiscard]] std::size_t count_failed_runs(const std::string& merged_text);

/// Extract the recorded "expected_runs" count (0 when absent/unparsable).
[[nodiscard]] std::size_t expected_runs_of(const std::string& merged_text);

/// Distinct raw values of `"key": <value>` occurrences inside the embedded
/// run results (sorted, deduplicated; string values keep their quotes
/// stripped, numbers their literal spelling). The host-fingerprint check:
/// `cobra_sweep --validate` warns when the merged runs carry more than one
/// distinct git_sha / build_type / hardware_concurrency — a longitudinal
/// file quietly mixing hosts or builds is how baselines go bad.
[[nodiscard]] std::vector<std::string> distinct_context_values(
    const std::string& merged_text, const std::string& key);

/// True when the merged file accounts for exactly the cells it promises:
/// completed runs + quarantined failed_runs == expected. `expect` == 0
/// trusts the file's own expected_runs. The `cobra_sweep --validate`
/// ctest and the CI sweep-smoke step both call this; a silently dropped
/// run (crashed child, unwritable file) fails it, an explicitly
/// quarantined one does not.
[[nodiscard]] bool validate_merged_sweep(const std::string& merged_text,
                                         std::size_t expect,
                                         std::string* error);

}  // namespace cobra::bench
