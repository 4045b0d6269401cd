#include "chaos.hpp"

#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/cobra_walk.hpp"
#include "core/greedy_mis.hpp"
#include "gen/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "util/checkpoint_io.hpp"

namespace cobra::bench {

namespace {

namespace fault = util::fault;

/// Chain the bytes of `vs` (a span or vector) into `hash` — the
/// per-round fingerprint step, and the CSR fingerprint's.
std::uint64_t hash_round(std::uint64_t hash, const auto& vs) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(vs.data());
  return util::fnv1a64({bytes, vs.size() * sizeof(*vs.data())}, hash);
}

/// One randomized schedule for `catalog`, fully determined by
/// (cell_seed, index): 1-3 distinct sites, each with a random @after in
/// [0, 8], prob in {1, 0.5, 0.25}, and an even-odds #limit in [1, 4].
fault::FaultPlan random_plan(std::uint64_t cell_seed, std::size_t index,
                             const std::vector<std::string>& catalog) {
  rng::Xoshiro256 r(rng::derive_seed(cell_seed, index));
  fault::FaultPlan plan;
  plan.seed = r();
  // Fisher-Yates over the catalog indices, then take a prefix: distinct
  // sites without rejection sampling.
  std::vector<std::size_t> order(catalog.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[r() % i]);
  }
  const std::size_t count =
      1 + static_cast<std::size_t>(r() % std::min<std::uint64_t>(
                                           3, catalog.size()));
  for (std::size_t j = 0; j < count; ++j) {
    fault::FaultSpec spec;
    spec.site = catalog[order[j]];
    spec.after = r() % 9;
    switch (r() % 3) {
      case 0: spec.prob = 1.0; break;
      case 1: spec.prob = 0.5; break;
      default: spec.prob = 0.25; break;
    }
    spec.limit = (r() % 2 == 0) ? 0 : 1 + r() % 4;
    plan.specs.push_back(std::move(spec));
  }
  return plan;
}

/// RAII: whatever happens inside a faulted run, leave the registry clean.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm_all(); }
};

/// The trajectory function a chaos run fuzzes — selected by
/// ChaosConfig::process. Both share one signature so run_chaos stays
/// process-agnostic.
using TrajectoryFn = std::uint64_t (*)(const graph::Graph&, std::size_t,
                                       std::uint64_t, std::uint64_t,
                                       std::uint32_t, bool);

TrajectoryFn select_trajectory(const std::string& process) {
  if (process == "cobra") return &chaos_trajectory;
  if (process == "mis") return &chaos_mis_trajectory;
  throw std::invalid_argument("unknown chaos process '" + process +
                              "' (want cobra or mis)");
}

/// Outcome of one faulted trajectory: fingerprint, or the exception text
/// when the run threw (graceful plans must not throw).
struct TrajectoryOutcome {
  bool threw = false;
  std::uint64_t fingerprint = 0;
  std::string error;
};

TrajectoryOutcome faulted_trajectory(const TrajectoryFn trajectory,
                                     const graph::Graph& g,
                                     const fault::FaultPlan& plan,
                                     std::size_t threads,
                                     std::uint64_t walk_seed,
                                     std::uint64_t rounds,
                                     std::uint32_t branching,
                                     bool inject_bug) {
  DisarmGuard guard;
  fault::disarm_all();
  fault::arm_plan(plan);
  TrajectoryOutcome out;
  try {
    out.fingerprint =
        trajectory(g, threads, walk_seed, rounds, branching, inject_bug);
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

/// Assert that `op` throws while `site` is armed. Returns the violation
/// detail on SILENT completion, empty string when the site failed loudly.
template <typename Op>
std::string expect_loud_failure(const std::string& site, const Op& op) {
  DisarmGuard guard;
  fault::disarm_all();
  fault::arm(site);
  try {
    op();
  } catch (const std::exception&) {
    return {};  // loud, as the contract demands
  }
  if (fault::fired(site) == 0) {
    return "hard site " + site + " was never reached by its operation";
  }
  return "hard site " + site + " fired but the operation completed silently";
}

}  // namespace

std::vector<std::string> chaos_graceful_sites(bool inject_bug) {
  std::vector<std::string> sites = {
      "frontier.dense_alloc",       "frontier.materialize_alloc",
      "frontier.worker_bits_alloc", "pool.thread_spawn",
      "trace.write",
  };
  if (inject_bug) sites.push_back("chaos.degrade_bug");
  return sites;
}

std::vector<std::string> chaos_hard_sites() {
  return {"gen.alloc", "gen.build_graph"};
}

std::uint64_t csr_fingerprint(const graph::Graph& g) {
  return hash_round(hash_round(0xcbf29ce484222325ULL, g.offsets()),
                    g.targets());
}

std::uint64_t chaos_trajectory(const graph::Graph& g, std::size_t threads,
                               std::uint64_t walk_seed, std::uint64_t rounds,
                               std::uint32_t branching, bool inject_bug) {
  // The pool is per-call ON PURPOSE: constructing it under an armed
  // pool.thread_spawn plan is how that site gets exercised, and a pool of
  // one worker routes the engine to its serial path (same trajectory by
  // the thread-invariance contract).
  par::ThreadPool pool(threads == 0 ? 1 : threads);
  core::CobraWalk walk(g, 0, branching);
  auto& opts = walk.engine().options();
  opts.pool = &pool;
  opts.chunk_size = 64;        // several chunks even on tiny fuzz graphs
  opts.parallel_threshold = 1;  // pool path whenever the pool can help

  core::Engine gen(walk_seed);
  std::uint64_t fp = hash_round(0xcbf29ce484222325ULL, walk.active());
  for (std::uint64_t r = 0; r < rounds; ++r) {
    walk.step(gen);
    if (inject_bug && fault::should_fail("chaos.degrade_bug")) {
      // The deliberately BROKEN degradation: silently drops the highest-id
      // active vertex, exactly the kind of "mostly works" corruption a
      // graceful site must never introduce. Kept behind inject_bug so no
      // production path can reach it.
      const auto active = walk.active();
      if (active.size() > 1) {
        walk.reset(active.subspan(0, active.size() - 1));
      }
    }
    fp = hash_round(fp, walk.active());
  }
  return fp;
}

std::uint64_t chaos_mis_trajectory(const graph::Graph& g, std::size_t threads,
                                   std::uint64_t walk_seed,
                                   std::uint64_t rounds,
                                   std::uint32_t /*branching*/,
                                   bool inject_bug) {
  // Per-call pool + fuzz-friendly chunking, same rationale as the cobra
  // trajectory above — and the retain rounds run through the same pool.
  par::ThreadPool pool(threads == 0 ? 1 : threads);
  core::FrontierOptions opts;
  opts.pool = &pool;
  opts.chunk_size = 64;
  opts.parallel_threshold = 1;
  core::GreedyMIS mis(g, opts);

  core::Engine gen(walk_seed);
  std::uint64_t fp = hash_round(0xcbf29ce484222325ULL, mis.active());
  for (std::uint64_t r = 0; r < rounds && !mis.done(); ++r) {
    mis.step(gen);
    if (inject_bug && !mis.done() &&
        fault::should_fail("chaos.degrade_bug")) {
      // The removal-round planted bug: one extra, UNHASHED round. Every
      // later fingerprint link sees a shifted trajectory (and usually a
      // different final MIS). Behind inject_bug, like the cobra one.
      mis.step(gen);
    }
    fp = hash_round(fp, mis.active());
  }
  // The collected set is part of the contract: a run with the right
  // trajectory but the wrong MIS must still diverge.
  fp = hash_round(fp, mis.mis());
  return fp;
}

ChaosReport run_chaos(const ChaosConfig& config) {
  ChaosReport report;
  const TrajectoryFn trajectory = select_trajectory(config.process);
  const std::vector<std::string> catalog =
      chaos_graceful_sites(config.inject_bug);

  std::size_t cell_index = 0;
  for (const std::string& spec : config.specs) {
    fault::disarm_all();  // graph builds run fault-free
    const graph::Graph g = gen::build_graph(spec);
    const std::uint64_t csr = csr_fingerprint(g);

    for (const std::size_t threads : config.threads) {
      ++report.cells;
      const std::uint64_t cell_seed = rng::derive_seed(config.seed, cell_index);
      ++cell_index;

      // Generator cell: the same spec on a pool that came up one worker
      // short must give the same CSR.
      ++report.gen_checks;
      const fault::FaultPlan spawn_fault =
          fault::FaultPlan::parse("pool.thread_spawn#1");
      std::string gen_detail;
      try {
        DisarmGuard guard;
        fault::disarm_all();
        fault::arm_plan(spawn_fault);
        par::ThreadPool pool(threads == 0 ? 1 : threads);
        gen::GenOptions opts;
        opts.pool = &pool;
        const std::uint64_t got = csr_fingerprint(gen::build_graph(spec, opts));
        if (got != csr) {
          char buf[128];
          std::snprintf(buf, sizeof buf,
                        "CSR on a %zu-worker pool diverged (fingerprint "
                        "%016llx, fault-free %016llx)",
                        pool.size(), static_cast<unsigned long long>(got),
                        static_cast<unsigned long long>(csr));
          gen_detail = buf;
        }
      } catch (const std::exception& e) {
        gen_detail = std::string("graceful plan threw in build_graph: ") +
                     e.what();
      }
      if (!gen_detail.empty()) {
        ChaosViolation v;
        v.spec = spec;
        v.threads = threads;
        v.plan = spawn_fault;
        v.shrunk = spawn_fault;
        v.detail = std::move(gen_detail);
        report.violations.push_back(std::move(v));
      }
      const std::uint64_t walk_seed = rng::derive_seed(cell_seed, 0x5eed);
      const std::uint64_t baseline = trajectory(
          g, threads, walk_seed, config.rounds, config.branching, false);

      const auto reproduces = [&](const fault::FaultPlan& plan) {
        const TrajectoryOutcome out = faulted_trajectory(
            trajectory, g, plan, threads, walk_seed, config.rounds,
            config.branching, config.inject_bug);
        return out.threw || out.fingerprint != baseline;
      };

      for (std::size_t i = 0; i < config.schedules; ++i) {
        const fault::FaultPlan plan = random_plan(cell_seed, i, catalog);
        ++report.fuzz_runs;
        const TrajectoryOutcome out = faulted_trajectory(
            trajectory, g, plan, threads, walk_seed, config.rounds,
            config.branching, config.inject_bug);
        if (!out.threw && out.fingerprint == baseline) continue;

        ChaosViolation v;
        v.spec = spec;
        v.threads = threads;
        v.plan = plan;
        v.shrunk = shrink_plan(plan, reproduces, &report.shrink_runs);
        if (out.threw) {
          v.detail = "graceful plan threw: " + out.error;
        } else {
          char buf[128];
          std::snprintf(buf, sizeof buf,
                        "trajectory diverged (fingerprint %016llx, unfaulted "
                        "%016llx)",
                        static_cast<unsigned long long>(out.fingerprint),
                        static_cast<unsigned long long>(baseline));
          v.detail = buf;
        }
        report.violations.push_back(std::move(v));
      }
    }

    // Hard sites: each must fail loudly when its operation runs. These are
    // thread-independent, so once per spec.
    for (const std::string& site : chaos_hard_sites()) {
      ++report.hard_checks;
      std::string detail = expect_loud_failure(
          site, [&] { (void)gen::build_graph(spec); });
      if (detail.empty()) continue;
      ChaosViolation v;
      v.spec = spec;
      v.threads = 0;
      v.plan.specs.push_back({site, 0, 1.0, 0});
      v.shrunk = v.plan;
      v.detail = std::move(detail);
      report.violations.push_back(std::move(v));
    }
  }
  fault::disarm_all();
  return report;
}

std::string render_chaos_report(const ChaosReport& report,
                                const ChaosConfig& config) {
  std::string out = "cobra_chaos: process=" + config.process + ", " +
                    std::to_string(report.cells) + " cells, " +
                    std::to_string(report.fuzz_runs) +
                    " fuzz runs (+" + std::to_string(report.shrink_runs) +
                    " shrink runs), " + std::to_string(report.hard_checks) +
                    " hard-site checks, " +
                    std::to_string(report.gen_checks) + " generator checks, " +
                    std::to_string(report.violations.size()) + " violation" +
                    (report.violations.size() == 1 ? "" : "s") + "\n";
  for (const ChaosViolation& v : report.violations) {
    out += "\nVIOLATION  spec=" + v.spec;
    if (v.threads != 0) out += "  threads=" + std::to_string(v.threads);
    out += "\n  " + v.detail + "\n";
    out += "  schedule: " + v.plan.render() + "\n";
    out += "  shrunk reproducer (" + std::to_string(v.shrunk.specs.size()) +
           " of " + std::to_string(v.plan.specs.size()) +
           " entries) — replay with --fault-plan FILE:\n";
    out += "    # cobra_chaos reproducer: spec=" + v.spec +
           " threads=" + std::to_string(v.threads) +
           " master-seed=" + std::to_string(config.seed) + "\n";
    out += "    seed=" + std::to_string(v.shrunk.seed) + "\n";
    out += "    " + v.shrunk.render() + "\n";
  }
  return out;
}

}  // namespace cobra::bench
