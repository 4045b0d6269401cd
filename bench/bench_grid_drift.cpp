/// A5 — the §3 drift engine behind Theorem 3 (Lemmas 4, 5, 6). The proof
/// tracks one cobra pebble's per-dimension distances z = (z_1..z_d) under
/// a pessimistic clone-selection rule; this bench measures the three
/// quantities the lemmas assert:
///
///   1. Lemma 4's transition probabilities (change rate, conditional
///      decrease bias, increase-at-zero rate) per dimension count d;
///   2. Lemma 5's time for a dimension to hit 0: O(d^2 n) — fitted
///      exponent in n should be ~1 with a d^2-ish prefactor trend;
///   3. Lemma 6's excursion cap: after hitting 0, the max distance over a
///      long horizon grows like log(horizon), not polynomially.
///
/// Usage: bench_grid_drift [--trials T] [--out path] [--smoke] [--caps]
///        [--metrics path] [--trace path]
///   This bench walks the Z^d drift chain directly, not a generated
///   graph, so --graph is accepted (shared CLI) but has no effect — it
///   declares `graph=no` in its --caps metadata, which is how sweep
///   drivers (cobra_sweep) know to skip it instead of keeping a hardcoded
///   list. --smoke shrinks the per-cell single-step trial counts, the
///   Lemma 5 distance sweep, and the Lemma 6 horizon for CI. --metrics
///   still snapshots the registry (timers, gen counters) on exit, but
///   --trace stays EMPTY here: the drift chain never runs through the
///   FrontierEngine, and only engine rounds emit trace lines.

#include <cmath>

#include "harness.hpp"

#include "core/grid_drift.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

void lemma4_table(bench::Harness& h, int step_trials) {
  std::cout << "1) Lemma 4 transition probabilities (" << step_trials / 1000
            << "k single-step trials per cell)\n";
  io::Table table({"d", "P[dim changes | z!=0]", ">= 1/(2d-1)",
                   "P[decrease | change]", ">= 1/2+1/(8d-4)",
                   "P[increase at 0]", "<= 2/(d+1)"});
  for (const std::uint32_t d : {1u, 2u, 3u, 4u, 6u}) {
    core::Engine gen(0xA50 + d);
    std::uint64_t changes = 0, decreases = 0, zero_increases = 0;
    for (int t = 0; t < step_trials; ++t) {
      core::GridDriftWalk walk(d, 10, 1000);  // all dims nonzero, interior
      const auto event = walk.step(gen);
      if (event.dimension == 0 && event.delta != 0) {
        ++changes;
        if (event.delta < 0) ++decreases;
      }
    }
    for (int t = 0; t < step_trials; ++t) {
      std::vector<std::uint32_t> z(d, 10);
      z[0] = 0;
      core::GridDriftWalk walk(z, 1000);
      const auto event = walk.step(gen);
      if (event.dimension == 0 && event.delta > 0) ++zero_increases;
    }
    const double p_change = static_cast<double>(changes) / step_trials;
    const double p_dec =
        changes > 0 ? static_cast<double>(decreases) / static_cast<double>(changes) : 0.0;
    const double p_zero_inc =
        static_cast<double>(zero_increases) / step_trials;
    table.add_row({io::Table::fmt_int(d), io::Table::fmt(p_change, 4),
                   io::Table::fmt(1.0 / (2.0 * d - 1.0), 4),
                   io::Table::fmt(p_dec, 4),
                   io::Table::fmt(0.5 + 1.0 / (8.0 * d - 4.0), 4),
                   io::Table::fmt(p_zero_inc, 4),
                   io::Table::fmt(2.0 / (d + 1.0), 4)});
    h.json()
        .record("lemma4/d" + std::to_string(d))
        .field("d", static_cast<double>(d))
        .field("p_change", p_change)
        .field("p_change_bound", 1.0 / (2.0 * d - 1.0))
        .field("p_decrease_given_change", p_dec)
        .field("p_decrease_bound", 0.5 + 1.0 / (8.0 * d - 4.0))
        .field("p_increase_at_zero", p_zero_inc)
        .field("p_increase_bound", 2.0 / (d + 1.0));
  }
  std::cout << table
            << "reading: measured change rate >= the lemma's lower bound,\n"
               "conditional decrease >= 1/2 + 1/(8d-4), increase-at-zero <=\n"
               "2/(d+1) — every clause of Lemma 4, at every d.\n\n";
}

void lemma5_table(bench::Harness& h, const std::vector<std::uint32_t>& dims,
                  const std::vector<std::uint32_t>& distances,
                  std::uint32_t trials) {
  std::cout << "2) Lemma 5: rounds until ALL dimensions reach 0, from "
               "distance n\n";
  for (const std::uint32_t d : dims) {
    io::Table table({"n", "rounds to origin", "rounds / (d^2 n)"});
    std::vector<double> ns, times;
    for (const std::uint32_t n : distances) {
      const auto s = sim::replicate(
          trials, 0xA5200 + d * 1000 + n, [&](core::Engine& gen) {
            core::GridDriftWalk walk(d, n, n);
            const std::uint64_t budget = 4096ull * d * d * n;
            return static_cast<double>(walk.run_to_origin(gen, budget));
          });
      table.add_row({io::Table::fmt_int(n), bench::mean_ci(s),
                     io::Table::fmt(s.mean / (static_cast<double>(d) * d * n),
                                    3)});
      ns.push_back(n);
      times.push_back(s.mean);
      h.json()
          .record("lemma5/d" + std::to_string(d) + "/n" + std::to_string(n))
          .field("d", static_cast<double>(d))
          .field("n", static_cast<double>(n))
          .field("origin_time_mean", s.mean)
          .field("origin_time_over_d2n",
                 s.mean / (static_cast<double>(d) * d * n));
    }
    std::cout << "d = " << d << "\n" << table;
    const auto fit = stats::fit_power_law(ns, times);
    bench::print_fit("  origin time", fit,
                     "Lemma 5 predicts exponent ~1 in n");
    h.json()
        .record("lemma5/d" + std::to_string(d) + "/fit")
        .field("d", static_cast<double>(d))
        .field("exponent", fit.exponent)
        .field("exponent_stderr", fit.exponent_stderr);
    std::cout << "\n";
  }
}

void lemma6_table(bench::Harness& h, std::uint64_t max_horizon) {
  std::cout << "3) Lemma 6: max excursion from the origin over horizon T\n";
  io::Table table({"T", "max total distance (d=3)", "ln T"});
  core::Engine gen(0xA53);
  for (std::uint64_t horizon = 1000; horizon <= max_horizon; horizon *= 10) {
    core::GridDriftWalk walk(3, 0, 1u << 20);
    std::uint64_t max_dist = 0;
    for (std::uint64_t t = 0; t < horizon; ++t) {
      walk.step(gen);
      max_dist = std::max<std::uint64_t>(max_dist, walk.total_distance());
    }
    table.add_row({io::Table::fmt_int(static_cast<long long>(horizon)),
                   io::Table::fmt_int(static_cast<long long>(max_dist)),
                   io::Table::fmt(std::log(static_cast<double>(horizon)), 1)});
    h.json()
        .record("lemma6/T" + std::to_string(horizon))
        .field("horizon", static_cast<double>(horizon))
        .field("max_total_distance", static_cast<double>(max_dist))
        .field("ln_horizon", std::log(static_cast<double>(horizon)));
  }
  std::cout << table
            << "reading: the deepest excursion grows like ln T (equilibrium\n"
               "tail of a geometrically-distributed biased walk), which is\n"
               "Lemma 6's 'stays below c_d ln n' in horizon form.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("grid_drift",
                   bench::parse_bench_args(
                       argc, argv, {"trials"},
                       {.graph = bench::BenchCaps::Graph::NoOp}));
  const std::uint32_t trials = h.trials(60, 10);
  h.json().context("trials", static_cast<double>(trials));
  if (h.has_graph()) {
    std::cout << "note: bench_grid_drift walks the Z^d drift chain "
                 "directly; --graph has no effect here\n";
  }

  bench::print_header(
      "A5  (Lemmas 4, 5, 6 — the §3 drift engine)",
      "per-dimension drift, origin-hitting time, and excursion control");

  const bool smoke = h.smoke();
  lemma4_table(h, smoke ? 40000 : 400000);
  lemma5_table(h,
               smoke ? std::vector<std::uint32_t>{1, 2}
                     : std::vector<std::uint32_t>{1, 2, 3},
               smoke ? std::vector<std::uint32_t>{16, 32, 64}
                     : std::vector<std::uint32_t>{16, 32, 64, 128, 256},
               trials);
  lemma6_table(h, smoke ? 10000ull : 1000000ull);
  return h.finish();
}
