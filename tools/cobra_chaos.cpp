/// cobra_chaos — the deterministic chaos fuzzer: drives randomized seeded
/// fault schedules through in-process cobra walks and asserts the fault
/// registry's site contract (bench/chaos.hpp): GRACEFUL degradations keep
/// trajectories bit-identical, HARD faults fail loudly. Violating
/// schedules are delta-debugged to a minimal reproducer printed in the
/// --fault-plan replay format.
///
/// Usage:
///   cobra_chaos [--process NAME] [--graph SPECS] [--threads LIST]
///               [--schedules N] [--seed S] [--rounds R] [--branching K]
///               [--trace FILE] [--out FILE]
///               [--inject-bug] [--expect-violation]
///
///   --process    which process runs under the fuzz: "cobra" (growing
///                frontier, expand rounds; default) or "mis" (greedy MIS —
///                shrinking frontier, expand + retain rounds)
///   --graph      spec list (cobra_sweep split rules); default two small
///                expanders
///   --threads    thread-count list, default "1,2"
///   --schedules  randomized fault plans per (spec, threads) cell
///                (default 50)
///   --seed       master seed — every schedule and walk seed derives from
///                it, so a run is reproducible bit-for-bit (default 1)
///   --rounds     rounds per trajectory (default 24)
///   --branching  cobra-walk k (default 2; unused by --process mis)
///   --trace      arm the obs trace sink: fault firings land as
///                {"fault": ...} JSONL lines — the chaos run's event-log
///                artifact
///   --out        also write the report text here
///   --inject-bug add the TEST-ONLY chaos.degrade_bug site to the fuzz
///                catalog (a deliberately broken degradation)
///   --expect-violation  self-test mode: exit 0 IFF at least one violation
///                was found AND every shrunk reproducer has <= 2 entries —
///                how CI proves the fuzzer catches and shrinks a planted
///                bug (pair with --inject-bug)
///
/// Exit codes: 0 = contract holds (or, under --expect-violation, the
/// planted bug was caught and shrunk), 1 = violations found (or expected
/// one missing), 2 = usage error.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "chaos.hpp"
#include "core/audit.hpp"
#include "io/args.hpp"
#include "obs/trace.hpp"
#include "sweep.hpp"

int main(int argc, char** argv) {
  using namespace cobra;
  io::Args args(0, nullptr, {});
  try {
    args = io::Args(argc, argv,
                    {"process", "graph", "threads", "schedules", "seed",
                     "rounds", "branching", "trace", "out", "inject-bug",
                     "expect-violation"});
  } catch (const std::invalid_argument& e) {
    std::cerr << "cobra_chaos: " << e.what()
              << "\nusage: cobra_chaos [--process cobra|mis] [--graph SPECS]"
                 " [--threads LIST] [--schedules N] [--seed S] [--rounds R]"
                 " [--branching K] [--trace FILE] [--out FILE] [--inject-bug]"
                 " [--expect-violation]\n";
    return 2;
  }

  // COBRA_AUDIT=0|1|2 arms the engine's invariant auditor for every
  // trajectory the fuzz runs — the chaos-under-audit ctest lane relies on
  // this (expand AND retain rounds are checked at level 2).
  core::audit::arm_from_env();

  bench::ChaosConfig config;
  try {
    config.process = args.get("process", config.process);
    config.specs = bench::split_spec_list(
        args.get("graph", "rreg:n=256,d=4,seed=7;ring:n=128"));
    config.threads = bench::split_uint_list(args.get("threads", "1,2"));
    config.schedules = args.get_uint("schedules", 50);
    config.seed = args.get_uint("seed", 1);
    config.rounds = args.get_uint("rounds", 24);
    config.branching = static_cast<std::uint32_t>(args.get_uint("branching", 2));
    config.inject_bug = args.get_bool("inject-bug", false);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cobra_chaos: " << e.what() << "\n";
    return 2;
  }
  if (config.specs.empty() || config.threads.empty()) {
    std::cerr << "cobra_chaos: --graph and --threads must be non-empty\n";
    return 2;
  }
  if (args.has("trace")) {
    obs::open_global_trace(args.get("trace", ""));
  }

  bench::ChaosReport report;
  try {
    report = bench::run_chaos(config);
  } catch (const std::exception& e) {
    std::cerr << "cobra_chaos: " << e.what() << "\n";
    return 2;
  }

  const std::string rendered = bench::render_chaos_report(report, config);
  std::cout << rendered;
  if (args.has("out")) {
    std::ofstream out(args.get("out", ""));
    out << rendered;
    out.flush();
    if (!out) {
      std::cerr << "cobra_chaos: cannot write " << args.get("out", "") << "\n";
      return 2;
    }
  }

  if (args.get_bool("expect-violation", false)) {
    if (report.violations.empty()) {
      std::cerr << "cobra_chaos: expected a violation but the contract held "
                   "— the fuzzer failed to catch the planted bug\n";
      return 1;
    }
    for (const auto& v : report.violations) {
      if (v.shrunk.specs.size() > 2) {
        std::cerr << "cobra_chaos: reproducer did not shrink (plan '"
                  << v.shrunk.render() << "' has "
                  << v.shrunk.specs.size() << " entries, want <= 2)\n";
        return 1;
      }
    }
    std::cout << "cobra_chaos: planted bug caught and shrunk as expected\n";
    return 0;
  }
  return report.violations.empty() ? 0 : 1;
}
