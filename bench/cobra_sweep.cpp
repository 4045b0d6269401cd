/// cobra_sweep — the ROADMAP's sweep driver: run a registered bench-style
/// measurement over a --graph spec list x a --threads list and merge the
/// per-run JSON into ONE longitudinal file (what used to be a shell loop
/// plus a directory of smoke_*.json).
///
/// Each (bench, spec, threads) cell runs as a CHILD PROCESS: the global
/// pool honors --threads only before its first use, so thread-count sweeps
/// cannot share a process — exactly the constraint that made this a shell
/// loop before. The child's --out JSON is embedded verbatim in the merged
/// file (see sweep.hpp for the schema).
///
/// A failed attempt (non-zero exit or truncated --out JSON) is retried
/// once after 200 ms, and a cell that fails both attempts is QUARANTINED
/// into the merged file's "failed_runs" section instead of aborting the
/// sweep — one poisoned cell cannot cost a night of results. The sweep
/// exits 0 when every cell is accounted for (completed or explicitly
/// quarantined) and `--validate` re-checks that accounting. The merged
/// file is written once, after the last cell; a cell that failed is
/// re-run from its bench's own command line, which its seed makes exact.
///
/// Benches are queried for capability metadata first (`<bench> --caps`):
/// a bench whose --graph does not drive its measurement (grid_drift's Z^d
/// chain, pair_collision's exact tables) declares that itself and is
/// skipped with a note — no hardcoded skip list here.
///
/// Usage:
///   cobra_sweep --graph <spec[,spec...]> [--bench b1,b2] [--threads 1,2]
///               --out sweep.json [--bindir DIR] [--trials T] [--smoke]
///   cobra_sweep --validate sweep.json [--expect-runs N]
///
///   --graph    spec list; ';' separates always, ',' smartly (a segment
///              naming a family starts a new spec, a key=value segment
///              continues the previous one), so
///              "rreg:n=128,d=4,seed=1,ring:n=64" is two specs
///   --bench    bench binaries to drive (default bench_expander_cover)
///   --threads  global-pool worker counts per run (default "1")
///   --bindir   directory holding the bench binaries (default: the
///              directory cobra_sweep itself was launched from)
///   --trials / --smoke   forwarded to every child verbatim
///   --validate re-check a merged file: exit 0 iff completed runs plus
///              quarantined failed_runs account for every promised cell
///
/// The per-run scratch directory (<out>.runs: child JSON + logs) is removed
/// after a fully successful sweep and kept when any cell was quarantined,
/// since it holds the only diagnostics.
///
/// Fault injection goes through COBRA_FAULT (util/fault.hpp), which this
/// driver arms for itself and every child inherits: `sweep.child_spawn`
/// fails a launch here without running it (exit 127), and `bench.crash`
/// makes each child exit 86 at startup.
///
/// Exit codes: 0 = every cell accounted for (even if some quarantined),
/// 1 = infrastructure failure (missing binary, unwritable output, invalid
/// --validate file), 2 = command-line parse error.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/registry.hpp"
#include "gen/spec.hpp"
#include "harness.hpp"
#include "obs/manifest.hpp"
#include "sweep.hpp"
#include "util/fault.hpp"

namespace {

using namespace cobra;

/// Every cell gets one retry, after a fixed delay.
constexpr std::size_t kAttempts = 2;
constexpr std::chrono::milliseconds kRetryDelay{200};

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `<bench> --caps` output, or "" when the binary can't be run.
std::string query_caps(const std::filesystem::path& binary,
                       const std::filesystem::path& scratch) {
  const std::string cmd = shell_quote(binary.string()) + " --caps > " +
                          shell_quote(scratch.string()) + " 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) return "";
  return read_file(scratch);
}

/// Command-line parse error: the offending input plus enough grammar to fix
/// it, then exit 2 (distinct from exit 1 = runtime/infra failure, so the CI
/// smoke steps can tell "you typo'd the sweep" from "the sweep broke").
[[noreturn]] void parse_error(const std::string& message, bool show_grammar) {
  std::cerr << "cobra_sweep: " << message << "\n";
  if (show_grammar) std::cerr << "graph specs:\n" << gen::grammar_help();
  std::exit(2);
}

/// Eagerly validate one spec against the generator registry so a typo in a
/// 40-cell sweep dies before cell 0 runs, naming the bad token — not as a
/// cryptic child failure 20 minutes in.
void require_valid_spec(const std::string& spec_text) {
  try {
    const gen::GraphSpec spec = gen::GraphSpec::parse(spec_text);
    const gen::FamilyInfo* info = gen::find_family(spec.family());
    if (info == nullptr) {
      throw std::invalid_argument("unknown graph family '" + spec.family() +
                                  "'");
    }
    for (const auto& [key, value] : spec.params()) {
      if (std::find(info->keys.begin(), info->keys.end(), key) ==
          info->keys.end()) {
        throw std::invalid_argument("family '" + spec.family() +
                                    "' does not accept key '" + key + "'");
      }
    }
  } catch (const std::invalid_argument& e) {
    parse_error("in --graph spec '" + spec_text + "': " + e.what(), true);
  }
}

std::size_t uint_flag_or_die(const io::Args& args, const std::string& name,
                             std::uint64_t fallback) {
  try {
    return static_cast<std::size_t>(args.get_uint(name, fallback));
  } catch (const std::invalid_argument& e) {
    parse_error(e.what(), false);
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::fault::arm_from_env();  // COBRA_FAULT="site[@after][%p][#k],..."
  std::vector<std::string> allowed = {"graph",  "bench", "threads",
                                      "bindir", "out",   "trials",
                                      "smoke",  "validate", "expect-runs"};
  io::Args args(0, nullptr, {});
  try {
    args = io::Args(argc, argv, allowed);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cobra_sweep: " << e.what() << "\nflags:";
    for (const auto& flag : allowed) std::cerr << " --" << flag;
    std::cerr << "\n";
    return 2;
  }
  const std::size_t expect_runs = uint_flag_or_die(args, "expect-runs", 0);
  const std::size_t trials = uint_flag_or_die(args, "trials", 0);

  // ---- validate mode -----------------------------------------------------
  if (args.has("validate")) {
    const std::string path = args.get("validate", "");
    const std::string text = read_file(path);
    if (text.empty()) {
      std::cerr << "cobra_sweep: cannot read " << path << "\n";
      return 1;
    }
    std::string error;
    if (!bench::validate_merged_sweep(text, expect_runs, &error)) {
      std::cerr << "cobra_sweep: " << path << " INVALID: " << error << "\n";
      return 1;
    }
    std::cout << "cobra_sweep: " << path << " valid ("
              << bench::count_merged_runs(text) << " runs, "
              << bench::count_failed_runs(text) << " quarantined)\n";
    // Host-fingerprint check: a longitudinal file quietly mixing hosts or
    // builds is how baselines go bad, so more than one distinct value for a
    // manifest key is a loud (but non-fatal) warning.
    for (const char* key : {"git_sha", "build_type", "hardware_concurrency"}) {
      const auto values = bench::distinct_context_values(text, key);
      if (values.size() > 1) {
        std::cerr << "cobra_sweep: WARNING: " << path << " mixes "
                  << values.size() << " distinct " << key << " values (";
        for (std::size_t i = 0; i < values.size(); ++i) {
          if (i != 0) std::cerr << ", ";
          std::cerr << values[i];
        }
        std::cerr << ") — its runs came from different hosts or builds\n";
      }
    }
    return 0;
  }

  // ---- sweep mode --------------------------------------------------------
  if (!args.has("graph") || !args.has("out")) {
    std::cerr << "cobra_sweep: --graph <spec[,spec...]> and --out <path> are "
                 "required (or --validate <file>)\n";
    return 2;
  }
  const std::string out_path = args.get("out", "");
  std::vector<std::string> specs;
  std::vector<std::size_t> thread_counts;
  std::vector<std::string> benches;
  try {
    specs = bench::split_spec_list(args.get("graph", ""));
  } catch (const std::invalid_argument& e) {
    parse_error("in --graph '" + args.get("graph", "") + "': " + e.what(),
                true);
  }
  try {
    thread_counts = bench::split_uint_list(args.get("threads", "1"));
  } catch (const std::invalid_argument& e) {
    parse_error("in --threads '" + args.get("threads", "1") + "': " +
                    e.what() + " (expected a comma-separated uint list, "
                    "e.g. --threads 1,2,8)",
                false);
  }
  try {
    for (const auto& b : bench::split_spec_list(args.get("bench", ""))) {
      benches.push_back(b);
    }
  } catch (const std::invalid_argument& e) {
    parse_error("in --bench '" + args.get("bench", "") + "': " + e.what(),
                false);
  }
  if (benches.empty()) benches = {"bench_expander_cover"};
  if (specs.empty()) {
    parse_error("--graph '" + args.get("graph", "") +
                    "' parsed to an empty spec list",
                true);
  }
  for (const auto& spec : specs) require_valid_spec(spec);

  namespace fs = std::filesystem;
  const fs::path bindir =
      args.has("bindir") ? fs::path(args.get("bindir", ""))
                         : fs::path(argv[0]).parent_path();
  const fs::path workdir = fs::path(out_path.empty() ? "sweep" : out_path)
                               .concat(".runs");
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) {
    std::cerr << "cobra_sweep: cannot create " << workdir << ": "
              << ec.message() << "\n";
    return 1;
  }

  // Capability pass: drop benches whose --graph is not the measurement.
  std::vector<std::string> swept;
  for (const auto& name : benches) {
    const fs::path binary = bindir / name;
    const std::string caps = query_caps(binary, workdir / (name + ".caps"));
    if (caps.empty()) {
      std::cerr << "cobra_sweep: cannot run " << binary
                << " --caps (missing binary?)\n";
      return 1;
    }
    if (bench::parse_caps_graph(caps) != bench::BenchCaps::Graph::Effective) {
      std::cout << "cobra_sweep: skipping " << name
                << " (its --caps declare --graph is not the measurement)\n";
      continue;
    }
    swept.push_back(name);
  }
  if (swept.empty()) {
    std::cerr << "cobra_sweep: every requested bench declared --graph "
                 "ineffective; nothing to sweep\n";
    return 1;
  }

  const std::size_t expected = swept.size() * specs.size() * thread_counts.size();
  std::vector<bench::SweepRun> runs;
  std::vector<bench::FailedRun> failed;
  std::size_t index = 0;
  for (const auto& name : swept) {
    for (const auto& spec : specs) {
      for (const std::size_t threads : thread_counts) {
        const std::size_t cell = index++;
        std::cout << "cobra_sweep: [" << index << "/" << expected << "] "
                  << name << "  graph=" << spec << "  threads=" << threads
                  << std::endl;

        const fs::path run_json =
            workdir / ("run_" + std::to_string(cell) + ".json");
        const fs::path run_metrics =
            workdir / ("run_" + std::to_string(cell) + ".metrics.json");
        const fs::path run_log =
            workdir / ("run_" + std::to_string(cell) + ".log");
        fs::remove(run_log, ec);  // fresh log per cell; attempts append

        bool ok = false;
        std::string reason;
        for (std::size_t attempt = 0; attempt < kAttempts; ++attempt) {
          if (attempt > 0) {
            std::cout << "cobra_sweep:   retry after " << kRetryDelay.count()
                      << " ms" << std::endl;
            std::this_thread::sleep_for(kRetryDelay);
          }
          // A stale or partial file from a previous attempt must not be
          // mistaken for this attempt's output.
          fs::remove(run_json, ec);
          fs::remove(run_metrics, ec);

          std::string cmd = shell_quote((bindir / name).string()) +
                            " --graph " + shell_quote(spec) + " --threads " +
                            std::to_string(threads) + " --out " +
                            shell_quote(run_json.string()) + " --metrics " +
                            shell_quote(run_metrics.string());
          if (args.get_bool("smoke", false)) cmd += " --smoke";
          if (args.has("trials")) cmd += " --trials " + std::to_string(trials);
          cmd += " >> " + shell_quote(run_log.string()) + " 2>&1";

          const int code = bench::spawn_child(cmd);
          if (code == 0) {
            const std::string json_text = read_file(run_json);
            if (bench::looks_like_bench_json(json_text)) {
              // The per-cell metrics snapshot is best-effort: an old binary
              // without --metrics would fail the allowed-flags check, but a
              // missing/empty file just omits the "metrics" key.
              runs.push_back(
                  {name, spec, threads, json_text, read_file(run_metrics)});
              ok = true;
              break;
            }
            reason = "invalid or truncated --out JSON";
          } else {
            reason = "exit " + std::to_string(code);
          }
          std::cerr << "cobra_sweep:   attempt " << (attempt + 1) << "/"
                    << kAttempts << " FAILED: " << reason << " (log "
                    << run_log << ")\n";
        }
        if (!ok) {
          std::cerr << "cobra_sweep:   QUARANTINED after " << kAttempts
                    << " attempt(s): " << reason << "\n";
          failed.push_back({name, spec, threads, kAttempts, reason});
        }
      }
    }
  }

  const obs::Manifest manifest = obs::current_manifest();
  std::vector<std::pair<std::string, std::string>> context = {
      {"graph", args.get("graph", "")},
      {"threads", args.get("threads", "1")},
      {"git_sha", manifest.git_sha},
      {"build_type", manifest.build_type},
      {"hardware_concurrency",
       std::to_string(manifest.hardware_concurrency)},
  };
  if (args.get_bool("smoke", false)) context.emplace_back("smoke", "1");
  const std::string merged =
      bench::merge_sweep_json(runs, failed, expected, context);
  std::ofstream out(out_path);
  out << merged;
  out.flush();
  if (!out) {
    std::cerr << "cobra_sweep: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "cobra_sweep: wrote " << out_path << " (" << runs.size() << "/"
            << expected << " runs";
  if (!failed.empty()) std::cout << ", " << failed.size() << " quarantined";
  std::cout << ")\n";
  if (!failed.empty()) {
    // Every cell is ACCOUNTED for (completed or quarantined), so this is a
    // successful sweep — exit 0 — but the quarantine is loud and the per-run
    // logs are kept: they are the only diagnostics for the failures.
    for (const auto& f : failed) {
      std::cerr << "cobra_sweep: quarantined " << f.bench << "  graph="
                << f.spec << "  threads=" << f.threads << "  (" << f.reason
                << " after " << f.attempts << " attempts)\n";
    }
    std::cerr << "cobra_sweep: " << failed.size()
              << " cell(s) quarantined into \"failed_runs\" (logs kept in "
              << workdir << ")\n";
    return 0;
  }
  fs::remove_all(workdir, ec);  // best-effort cleanup of per-run files
  return 0;
}
