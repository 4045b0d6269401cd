#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/fault.hpp"

/// \file chaos.hpp
/// The cobra_chaos fuzzer's engine, split out of the binary so it is
/// unit-testable. The contract it enforces is the fault registry's site
/// classification (util/fault.hpp):
///
///   * a plan armed over GRACEFUL sites must leave the walk's trajectory
///     BIT-IDENTICAL to the unfaulted run — degradations trade speed, never
///     results;
///   * a HARD site must fail LOUDLY (throw) when its operation runs —
///     silent completion under an armed hard fault is a violation.
///
/// For each (spec, threads) cell the fuzzer builds the graph once, records
/// the unfaulted trajectory fingerprint, then runs N randomized fault
/// schedules — sites, @after offsets, %prob suffixes, and #limit caps all
/// drawn from streams derived from the master seed, so a chaos run is
/// fully reproducible from (config, seed). A schedule whose trajectory
/// diverges (or throws) is a VIOLATION; the fuzzer then delta-debugs the
/// schedule down to a minimal reproducer — greedily dropping entries while
/// the divergence persists — and reports it in the --fault-plan file format
/// so the bug replays with one flag on any bench.
///
/// The trajectory fingerprint chains fnv1a64 over each round's active set
/// (canonical ascending order, so it is representation-independent by the
/// engine contract). Fingerprints are compared in-process only — never
/// across builds or hosts.
///
/// `chaos.degrade_bug` is this file's TEST-ONLY site: a deliberately
/// broken "degradation" that drops the highest-id active vertex when it
/// fires. It exists so the fuzzer's own detection and shrinking can be
/// proven against a known-bad path (--inject-bug / the chaos tests): a
/// violating schedule containing it must shrink to <= 2 entries.
///
/// Each (spec, threads) cell also checks the generator: the spec is built
/// again on a `threads`-worker pool constructed while pool.thread_spawn#1
/// is armed (one worker fails to start, so the build runs on a smaller
/// pool, or in-line), and its CSR fingerprint must equal the fault-free
/// build's — the graceful-degradation contract for the parallel CSR fill
/// and lcc=1 extraction.
///
/// Two processes can sit under the fuzz: the growing-frontier cobra walk
/// (`process = "cobra"`) and the shrinking-frontier greedy MIS
/// (`process = "mis"`), which routes every schedule through the engine's
/// retain path as well as expand. The MIS fingerprint additionally chains
/// the final collected set, so a run that walks the right trajectory but
/// ends with the wrong MIS still diverges.

namespace cobra::bench {

/// One chaos cell configuration + fuzz budget.
struct ChaosConfig {
  std::vector<std::string> specs;    ///< graph specs, one cell group each
  std::vector<std::size_t> threads;  ///< thread counts per spec
  std::size_t schedules = 50;        ///< randomized plans per cell
  std::uint64_t seed = 1;            ///< master seed (everything derives)
  std::uint64_t rounds = 24;         ///< rounds per trajectory
  std::uint32_t branching = 2;       ///< cobra-walk k
  bool inject_bug = false;  ///< add chaos.degrade_bug to the fuzz catalog
  /// Which process runs under the fuzz: "cobra" (growing frontier, expand
  /// rounds) or "mis" (shrinking frontier, expand + retain rounds).
  std::string process = "cobra";
};

/// One contract violation: the schedule that produced it and its shrunk
/// minimal reproducer.
struct ChaosViolation {
  std::string spec;
  std::size_t threads = 0;
  util::fault::FaultPlan plan;    ///< the violating schedule as fuzzed
  util::fault::FaultPlan shrunk;  ///< minimal reproducer (delta-debugged)
  std::string detail;             ///< what diverged / what stayed silent
};

struct ChaosReport {
  std::size_t cells = 0;        ///< (spec, threads) cells fuzzed
  std::size_t fuzz_runs = 0;    ///< trajectories run under random plans
  std::size_t shrink_runs = 0;  ///< extra trajectories spent shrinking
  std::size_t hard_checks = 0;  ///< hard-site loud-failure assertions
  std::size_t gen_checks = 0;   ///< degraded-pool graph rebuilds compared
  std::vector<ChaosViolation> violations;
};

/// The GRACEFUL sites the fuzzer draws random schedules from (in-process
/// ones only — sweep.child_spawn needs a child process and is exercised by
/// the sweep tests instead). `inject_bug` appends chaos.degrade_bug.
[[nodiscard]] std::vector<std::string> chaos_graceful_sites(bool inject_bug);

/// The HARD sites asserted per spec: each must throw when its operation
/// runs under the armed site.
[[nodiscard]] std::vector<std::string> chaos_hard_sites();

/// fnv1a64 over the bytes of g's offsets, chained into fnv1a64 over the
/// bytes of its targets — the fingerprint gen/test_graph_ledger pins.
[[nodiscard]] std::uint64_t csr_fingerprint(const graph::Graph& g);

/// Run one cobra-walk trajectory on `g` under whatever faults are
/// currently armed and return its fingerprint: fnv1a64 chained over every
/// round's active set. A dedicated `threads`-worker pool is constructed
/// per call (so pool.thread_spawn faults bite) with fuzz-friendly engine
/// options (small chunks, parallel from size 1). `inject_bug` enables the
/// test-only chaos.degrade_bug path.
[[nodiscard]] std::uint64_t chaos_trajectory(const graph::Graph& g,
                                             std::size_t threads,
                                             std::uint64_t walk_seed,
                                             std::uint64_t rounds,
                                             std::uint32_t branching,
                                             bool inject_bug);

/// The greedy-MIS twin of chaos_trajectory: one MIS run on `g` (capped at
/// `rounds` rounds — extinction usually comes first), fingerprint chained
/// over every round's active set AND the final collected MIS. Exercises
/// the engine's retain path under faults; `branching` is unused (the MIS
/// process has no k). The planted chaos.degrade_bug here sneaks in an
/// extra, unhashed round when it fires, shifting every later fingerprint
/// link — the removal-round analogue of silent corruption.
[[nodiscard]] std::uint64_t chaos_mis_trajectory(const graph::Graph& g,
                                                 std::size_t threads,
                                                 std::uint64_t walk_seed,
                                                 std::uint64_t rounds,
                                                 std::uint32_t branching,
                                                 bool inject_bug);

/// Greedily shrink `plan` to a minimal sub-plan for which `reproduces`
/// still returns true (single-entry removal to a fixpoint — each kept
/// entry is individually necessary). `plan` itself must reproduce; `runs`
/// (when non-null) accumulates the number of `reproduces` calls spent.
template <typename Reproduces>
[[nodiscard]] util::fault::FaultPlan shrink_plan(
    const util::fault::FaultPlan& plan, const Reproduces& reproduces,
    std::size_t* runs = nullptr) {
  util::fault::FaultPlan cur = plan;
  bool changed = true;
  while (changed && cur.specs.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < cur.specs.size(); ++i) {
      util::fault::FaultPlan candidate = cur;
      candidate.specs.erase(candidate.specs.begin() +
                            static_cast<std::ptrdiff_t>(i));
      if (runs != nullptr) ++*runs;
      if (reproduces(candidate)) {
        cur = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return cur;
}

/// The full fuzz: every (spec, threads) cell x `schedules` random plans,
/// plus the hard-site checks per spec. Leaves the fault registry disarmed.
/// Throws std::invalid_argument on an unbuildable spec.
[[nodiscard]] ChaosReport run_chaos(const ChaosConfig& config);

/// Render the report: human-readable verdict lines, and for each violation
/// a replayable --fault-plan block (seed= line + shrunk plan text).
[[nodiscard]] std::string render_chaos_report(const ChaosReport& report,
                                              const ChaosConfig& config);

}  // namespace cobra::bench
