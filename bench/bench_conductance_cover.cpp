/// E2 — Theorem 8: a 2-cobra walk on a d-regular graph with conductance
/// Phi covers in O(d^4 Phi^-2 log^2 n) rounds w.h.p.
///
/// Table: for each d-regular family (hypercube, random d-regular, 2-D
/// torus, cycle) sweep n, measure the cover time AND the conductance
/// (sweep-cut point estimate), and report the ratio
///
///      T_cover / (Phi^-2 log^2 n)
///
/// The theorem predicts the ratio stays bounded as n grows within each
/// family (the d^4 factor is absorbed into the per-family constant).
///
/// Usage: bench_conductance_cover [--trials T] [--graph <spec>]
///        [--out path] [--smoke]
///   Sweep graphs are built through the spec registry. --graph replaces
///   the sweeps with one row on that graph; --smoke shrinks the size
///   lists and trial count for CI.

#include <cmath>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "graph/spectral.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

void add_row(bench::Harness& h, io::Table& table, const std::string& family,
             const bench::BuiltCase& c, std::uint32_t trials,
             std::uint64_t seed) {
  const graph::Graph& g = c.graph;
  const auto est = graph::estimate_conductance(g);
  const double phi = est.point();
  const auto cover = sim::replicate(
      trials, seed ^ std::hash<std::string>{}(c.spec), [&](core::Engine& gen) {
        return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
      });
  const double ln_n = std::log(static_cast<double>(g.num_vertices()));
  const double bound_shape = (1.0 / (phi * phi)) * ln_n * ln_n;
  table.add_row({c.name, io::Table::fmt_int(g.num_vertices()),
                 io::Table::fmt_int(g.degree(0)), io::Table::fmt(phi, 4),
                 bench::mean_ci(cover),
                 io::Table::fmt(cover.mean / bound_shape, 4)});
  h.json()
      .record(family + "/" + c.name)
      .field("spec", c.spec)
      .field("family", family)
      .field("n", static_cast<double>(g.num_vertices()))
      .field("degree", static_cast<double>(g.degree(0)))
      .field("phi_sweep", phi)
      .field("cover_mean", cover.mean)
      .field("cover_ci95", cover.ci95_half)
      .field("cover_over_bound_shape", cover.mean / bound_shape);
}

void sweep_family(bench::Harness& h, const std::string& label,
                  const std::string& family,
                  const std::vector<bench::SuiteCase>& cases,
                  std::uint32_t trials, std::uint64_t seed) {
  io::Table table({"graph", "n", "d", "Phi (sweep)", "cover",
                   "cover / (Phi^-2 ln^2 n)"});
  table.set_align(0, io::Align::Left);
  for (const auto& c : h.suite(cases)) {
    add_row(h, table, family, c, trials, seed);
  }
  std::cout << label << "\n" << table << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("conductance_cover",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(40, 6);
  h.json().context("trials", static_cast<double>(trials));

  bench::print_header(
      "E2  (Theorem 8)",
      "2-cobra cover on d-regular graphs is O(d^4 Phi^-2 log^2 n); the final\n"
      "column must stay bounded (not grow) with n within each family");

  if (h.has_graph()) {
    io::Table table({"graph", "n", "d", "Phi (sweep)", "cover",
                     "cover / (Phi^-2 ln^2 n)"});
    table.set_align(0, io::Align::Left);
    for (const auto& c : h.suite({})) {
      add_row(h, table, "graph", c, trials, 0xE20);
    }
    std::cout << table << "\n";
    return h.finish();
  }

  const bool smoke = h.smoke();

  {
    std::vector<bench::SuiteCase> cases;
    for (const std::uint32_t d :
         smoke ? std::vector<std::uint32_t>{4, 6}
               : std::vector<std::uint32_t>{6, 8, 10, 12}) {
      cases.push_back({"hypercube Q_" + std::to_string(d),
                       "hypercube:dims=" + std::to_string(d)});
    }
    sweep_family(h, "hypercube family (Phi = 1/d shrinks with n)",
                 "hypercube", cases, trials, 0xE21);
  }
  {
    std::vector<bench::SuiteCase> cases;
    for (const std::uint32_t n :
         smoke ? std::vector<std::uint32_t>{128, 256}
               : std::vector<std::uint32_t>{256, 512, 1024, 2048}) {
      cases.push_back({"random 6-regular n=" + std::to_string(n),
                       "rreg:n=" + std::to_string(n) + ",d=6,seed=" +
                           std::to_string(0xE2 + n)});
    }
    sweep_family(h, "random 6-regular family (Phi = Theta(1))", "rreg",
                 cases, trials, 0xE22);
  }
  {
    std::vector<bench::SuiteCase> cases;
    for (const std::uint32_t side :
         smoke ? std::vector<std::uint32_t>{6, 8}
               : std::vector<std::uint32_t>{8, 16, 24, 32}) {
      cases.push_back(
          {"torus " + std::to_string(side) + "x" + std::to_string(side),
           "torus:side=" + std::to_string(side) + ",dims=2"});
    }
    sweep_family(h, "2-D torus family (Phi ~ 1/side)", "torus", cases, trials,
                 0xE23);
  }
  {
    std::vector<bench::SuiteCase> cases;
    for (const std::uint32_t n :
         smoke ? std::vector<std::uint32_t>{32, 64}
               : std::vector<std::uint32_t>{64, 128, 256}) {
      cases.push_back({"cycle n=" + std::to_string(n),
                       "ring:n=" + std::to_string(n)});
    }
    sweep_family(h, "cycle family (Phi ~ 1/n: the bound's weak regime)",
                 "ring", cases, trials, 0xE24);
  }

  std::cout
      << "reading: within each family the last column stays of the same\n"
         "order as n grows - the conductance term, not n itself, drives the\n"
         "cover time, which is the content of Theorem 8. (On the cycle the\n"
         "bound is loose, as the paper notes for very low conductance.)\n";
  return h.finish();
}
