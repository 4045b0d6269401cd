/// A2 — systems micro-benchmark: raw per-round throughput of the frontier
/// step engine, serial path vs pool-parallel path, on the fixed graph
/// suite (ring, 2D torus, random 4-regular, G(n,p)). Reported counters:
///   * steps/s    — frontier rounds per second
///   * samples/s  — neighbor draws per second (the cobra work unit)
///   * dense/sw   — timed rounds that ran the bitmap representation, and
///                  sparse<->dense switches (the Beamer-style altitude
///                  change this bench exists to measure)
///
/// Because the engine is bit-deterministic across thread counts AND
/// representations, every configuration of one graph executes the
/// IDENTICAL sequence of rounds — the speedup column is a pure
/// execution-time ratio, not a statistical estimate. Results go to
/// BENCH_step_throughput.json (the perf trajectory's anchor file; see
/// EXPERIMENTS.md A2 for commentary).
///
/// Usage: bench_step_throughput [--out path] [--nexp E] [--graph <spec>
///        [--warm W]] [--reps R] [--smoke] [--expect-dense]
///   Default: the 4-graph suite at n = 2^nexp (nexp = 20), JSON to
///   BENCH_step_throughput.json. --graph replaces the suite with one
///   registry-built graph; --smoke shrinks to n = 2^14 and 5 timed rounds
///   (the CI bit-rot guard). --reps R times every configuration R times,
///   alternating configurations within each repetition, and records the
///   median, minimum and interquartile range of the timed seconds; the
///   rates and speedups are computed from the medians (default 1).
///   --expect-dense exits 1 unless the timed
///   rounds actually took the dense path — the perf-smoke ctest lane uses
///   it to assert the Θ(n)-frontier representation is exercised, without
///   asserting anything about timing.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "core/frontier_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cobra;

struct SuiteGraph {
  std::string name;
  std::string spec;
  graph::Graph g;
  // Warm rounds before timing. Expanders reach their Θ(n) frontier fixed
  // point in O(log n) rounds; the torus frontier is a locality-bound ball
  // boundary that needs ~150 rounds to reach its ~10^4-vertex scale. All
  // configurations use the engine's default thresholds: the parallel
  // threshold is a work estimate (frontier * branching), which keeps the
  // torus rows decisively on the pool path without the per-graph
  // threshold override earlier revisions needed. The ring's ~24-vertex
  // frontier stays serial and sparse under any sane setting — its pool
  // rows are labelled by the engine's round counters in the JSON instead.
  int warm;
};

/// The fixed suite, every graph built through the spec registry — the same
/// path `--graph` uses.
std::vector<SuiteGraph> make_suite(std::uint32_t n) {
  const std::string ns = std::to_string(n);

  std::vector<SuiteGraph> suite;
  auto add = [&](std::string name, std::string spec, int warm) {
    graph::Graph g = gen::build_graph(spec);
    suite.push_back({std::move(name), std::move(spec), std::move(g), warm});
  };
  add("ring", "ring:n=" + ns, 40);
  // The registry's n sugar picks the largest side with side^2 <= n.
  add("grid2d_torus", "torus:n=" + ns + ",dims=2", 150);
  add("random_4_regular", "rreg:n=" + ns + ",d=4,seed=162", 40);
  // G(n, p) at average degree 16: above the connectivity threshold, but the
  // walk needs min degree >= 1, so keep the largest component (lcc).
  add("gnp_avg16", "gnp:n=" + ns + ",avg_deg=16,seed=162,lcc=1", 40);
  return suite;
}

struct Measurement {
  double seconds = 0.0;      // median over the repetitions
  double seconds_min = 0.0;
  double seconds_iqr = 0.0;
  std::uint64_t samples = 0;
  double mean_frontier = 0.0;
  std::uint64_t parallel_rounds = 0;  // timed rounds that took the pool path
  std::uint64_t dense_rounds = 0;     // timed rounds on the bitmap path
  std::uint64_t switches = 0;         // representation changes while timed
};

/// Warm the walk `warm` rounds, then time `timed` rounds. Identical seeds
/// per call ⇒ identical work in every configuration.
Measurement run_config(const graph::Graph& g, core::FrontierOptions opts,
                       int warm, int timed) {
  core::CobraWalk walk(g, 0, 2);
  walk.engine().options() = opts;  // step() re-asserts the walk's k hint
  core::Engine gen(1);
  for (int t = 0; t < warm; ++t) walk.step(gen);
  const std::uint64_t samples_before = walk.samples_drawn();
  const std::uint64_t par_before = walk.engine().parallel_rounds();
  const std::uint64_t dense_before = walk.engine().dense_rounds();
  const std::uint64_t switch_before = walk.engine().switches();
  double frontier_sum = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < timed; ++t) {
    walk.step(gen);
    // O(1) count — no materialization of the bitmap inside the timed loop.
    frontier_sum += static_cast<double>(walk.frontier().size());
  }
  const auto stop = std::chrono::steady_clock::now();
  Measurement m;
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.samples = walk.samples_drawn() - samples_before;
  m.mean_frontier = frontier_sum / timed;
  m.parallel_rounds = walk.engine().parallel_rounds() - par_before;
  m.dense_rounds = walk.engine().dense_rounds() - dense_before;
  m.switches = walk.engine().switches() - switch_before;
  return m;
}

/// Fold repeated runs of one configuration: the counters are identical in
/// every run (the rounds are), the seconds become median / min / IQR.
Measurement summarize(std::vector<Measurement> runs) {
  std::vector<double> seconds;
  for (const Measurement& m : runs) seconds.push_back(m.seconds);
  std::sort(seconds.begin(), seconds.end());
  Measurement m = runs.front();
  m.seconds = stats::quantile_sorted(seconds, 0.5);
  m.seconds_min = seconds.front();
  m.seconds_iqr = stats::quantile_sorted(seconds, 0.75) -
                  stats::quantile_sorted(seconds, 0.25);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args = bench::parse_bench_args(
      argc, argv, {"nexp", "warm", "reps", "expect-dense", "dense-guard"});
  const bool smoke = args.get_bool("smoke", false);
  const bool expect_dense = args.get_bool("expect-dense", false);
  double dense_guard = 0.0;
  try {
    dense_guard = args.get_double("dense-guard", 0.0);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  const std::string out_path =
      args.get("out", "BENCH_step_throughput.json");
  const auto n_exp = bench::uint_flag(args, "nexp", smoke ? 14 : 20);
  if (n_exp < 4 || n_exp > 26) {
    std::cerr << "bench_step_throughput: --nexp must be in [4, 26]\n";
    return 1;
  }
  const auto n = static_cast<std::uint32_t>(1u << n_exp);
  const int timed = smoke ? 5 : 15;
  const auto reps = bench::uint_flag(args, "reps", 1);
  if (reps < 1 || reps > 100) {
    std::cerr << "bench_step_throughput: --reps must be in [1, 100]\n";
    return 1;
  }

  bench::print_header(
      "A2  (systems)",
      "frontier step throughput: serial path vs FrontierEngine pool path");

  const core::FrontierOptions defaults;
  bench::JsonReporter json("step_throughput");
  json.context("branching", 2.0);
  json.context("timed_rounds", static_cast<double>(timed));
  json.context("reps", static_cast<double>(reps));
  json.context("dense_alpha", defaults.dense_alpha);
  if (smoke) json.context("smoke", 1.0);

  std::vector<SuiteGraph> suite;
  if (args.has("graph")) {
    // Single-graph mode: bench exactly the spec the caller named (--nexp
    // is a suite-mode knob and plays no part here; the context records
    // the spec and the realized vertex count instead).
    const std::string spec = io::graph_spec_from_args(args, "");
    suite.push_back({spec, spec, bench::bench_graph(args, spec),
                     static_cast<int>(bench::uint_flag(args, "warm", 40))});
    json.context("graph", spec);
    json.context("n", static_cast<double>(suite.front().g.num_vertices()));
  } else {
    json.context("n", static_cast<double>(n));
    suite = make_suite(n);
  }

  std::uint64_t pool_dense_rounds = 0;  // for --expect-dense
  for (const auto& [name, spec, g, warm] : suite) {
    io::Table table({"config", "steps/s", "Msamples/s", "mean frontier",
                     "par rounds", "dense", "switch", "speedup vs serial"});

    // Thread count 0 is the serial baseline: threshold = infinity forces
    // the in-line path. Each repetition runs every configuration once.
    const std::vector<std::size_t> configs = {0, 1, 2, 4, 8};
    std::vector<std::vector<Measurement>> runs(configs.size());
    for (std::uint64_t r = 0; r < reps; ++r) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        core::FrontierOptions opts;
        std::unique_ptr<par::ThreadPool> pool;
        if (configs[i] == 0) {
          opts.parallel_threshold = static_cast<std::size_t>(-1);
        } else {
          pool = std::make_unique<par::ThreadPool>(configs[i]);
          opts.pool = pool.get();
        }
        runs[i].push_back(run_config(g, opts, warm, timed));
      }
    }
    const Measurement serial = summarize(runs[0]);

    auto report = [&](const std::string& config, std::size_t threads,
                      const Measurement& m) {
      const double steps_per_sec = timed / m.seconds;
      const double speedup = serial.seconds / m.seconds;
      table.add_row({config, io::Table::fmt(steps_per_sec, 1),
                     io::Table::fmt(static_cast<double>(m.samples) / m.seconds / 1e6, 1),
                     io::Table::fmt(m.mean_frontier, 0),
                     io::Table::fmt_int(static_cast<long long>(m.parallel_rounds)),
                     io::Table::fmt_int(static_cast<long long>(m.dense_rounds)),
                     io::Table::fmt_int(static_cast<long long>(m.switches)),
                     io::Table::fmt(speedup, 2) + "x"});
      json.record(name + "/" + config)
          .field("graph", name)
          .field("spec", spec)
          .field("vertices", static_cast<double>(g.num_vertices()))
          .field("arcs", static_cast<double>(g.num_arcs()))
          .field("threads", static_cast<double>(threads))
          .field("warm_rounds", static_cast<double>(warm))
          .field("seconds", m.seconds)
          .field("seconds_min", m.seconds_min)
          .field("seconds_iqr", m.seconds_iqr)
          .field("steps_per_sec", steps_per_sec)
          .field("samples_per_sec", static_cast<double>(m.samples) / m.seconds)
          .field("mean_frontier", m.mean_frontier)
          .field("parallel_rounds", static_cast<double>(m.parallel_rounds))
          .field("dense_rounds", static_cast<double>(m.dense_rounds))
          .field("switches", static_cast<double>(m.switches))
          .field("speedup_vs_serial", speedup);
    };

    report("serial", 0, serial);
    for (std::size_t i = 1; i < configs.size(); ++i) {
      const Measurement m = summarize(runs[i]);
      pool_dense_rounds += m.dense_rounds;
      report("pool" + std::to_string(configs[i]), configs[i], m);
    }

    std::cout << "graph: " << name << "  (spec: " << spec
              << ", n = " << g.num_vertices() << ", arcs = " << g.num_arcs()
              << ")\n"
              << table << "\n";
  }

  bool guard_failed = false;
  if (dense_guard > 0.0) {
    // Dense fixed-cost guard (perf-smoke): the same graph on a 4-worker
    // pool with the parallel dense ops (bitmap clear / materialization) on
    // vs off. Determinism makes both configs execute identical rounds, so
    // the ratio is pure wall clock; the generous floor catches a
    // catastrophic regression of the parallelized fixed costs without
    // asserting machine-dependent speedups.
    const int guard_timed = 30;
    for (const auto& [name, spec, g, warm] : suite) {
      par::ThreadPool pool(4);
      core::FrontierOptions on_opts, off_opts;
      on_opts.pool = &pool;
      off_opts.pool = &pool;
      off_opts.parallel_dense_ops = false;
      const Measurement off = run_config(g, off_opts, warm, guard_timed);
      const Measurement on = run_config(g, on_opts, warm, guard_timed);
      const double ratio = off.seconds / on.seconds;
      json.record(name + "/dense_guard")
          .field("graph", name)
          .field("dense_rounds", static_cast<double>(on.dense_rounds))
          .field("seconds_parallel_ops", on.seconds)
          .field("seconds_serial_ops", off.seconds)
          .field("throughput_ratio", ratio)
          .field("floor", dense_guard);
      std::cout << "dense guard [" << name << "]: parallel-ops/serial-ops "
                << "throughput ratio " << io::Table::fmt(ratio, 2) << " (floor "
                << io::Table::fmt(dense_guard, 2) << ", dense rounds "
                << on.dense_rounds << ")\n";
      if (on.dense_rounds == 0) {
        std::cerr << "bench_step_throughput: --dense-guard, but no timed "
                     "round took the dense path on "
                  << name << "\n";
        guard_failed = true;
      } else if (ratio < dense_guard) {
        std::cerr << "bench_step_throughput: dense-round throughput "
                     "regressed: ratio "
                  << ratio << " < floor " << dense_guard << " on " << name
                  << "\n";
        guard_failed = true;
      }
    }
  }

  const bool wrote = json.write(out_path);
  std::cout << "reading: the serial and pool rows execute bit-identical\n"
               "rounds, so speedup is pure wall-clock ratio. Expect ~1x on\n"
               "single-core hosts and near-linear gains up to the physical\n"
               "core count on the large expander-like graphs. 'par rounds'\n"
               "counts the timed rounds that took the pool path; 'dense'\n"
               "counts those on the bitmap representation (the Θ(n)\n"
               "regime); 'switch' counts sparse<->dense transitions.\n";
  if (expect_dense && pool_dense_rounds == 0) {
    std::cerr << "bench_step_throughput: --expect-dense, but no timed pool "
                 "round took the dense path\n";
    return 1;
  }
  if (guard_failed) return 1;
  return wrote ? 0 : 1;
}
