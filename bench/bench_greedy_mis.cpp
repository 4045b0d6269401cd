/// A11 — related-work process zoo (§1.2's MPC/LLL neighborhood): parallel
/// randomized greedy MIS on the frontier engine. Each round every active
/// vertex draws a seeded priority; local minima join the MIS and leave the
/// frontier together with their neighbors (Luby-style, the
/// priority-ordered variant whose round complexity Fischer & Noever
/// [SODA 2018] pin at Theta(log n) on every graph). Tables:
///   1. per family: rounds to extinction, |MIS|, and the verified
///      independence/maximality certificates;
///   2. round-complexity sweep on gnp / rmat with a polylog fit — the
///      measured exponent should sit near 1 (rounds ~ log n).
///
/// Usage: bench_greedy_mis [--trials T] [--graph <spec>] [--out path]
///        [--smoke] [--threads N] [--caps] [--metrics path] [--trace path]
///   Case graphs are built through the spec registry; --graph replaces the
///   family table with that one case (the scaling sweep keeps its own
///   specs). --smoke shrinks sizes and trial counts for CI.

#include <cmath>
#include <string>
#include <vector>

#include "harness.hpp"

#include "core/greedy_mis.hpp"
#include "sim/runner.hpp"
#include "sim/stop.hpp"

namespace {

using namespace cobra;

/// Brute certificate over the final set: no adjacent pair inside, and no
/// outside vertex with an MIS-free neighborhood. O(n + m), run once per
/// table row on the pinned seed.
struct MisCertificate {
  bool independent = true;
  bool maximal = true;
};

MisCertificate certify(const graph::Graph& g, const core::GreedyMIS& mis) {
  MisCertificate cert;
  for (core::Vertex v = 0; v < g.num_vertices(); ++v) {
    bool dominated = mis.in_mis(v);
    for (const core::Vertex u : g.neighbors(v)) {
      if (u == v) continue;
      if (mis.in_mis(u)) {
        dominated = true;
        if (mis.in_mis(v)) cert.independent = false;
      }
    }
    if (!dominated) cert.maximal = false;
  }
  return cert;
}

double rounds_to_extinction(const graph::Graph& g, core::Engine& gen) {
  core::GreedyMIS mis(g);
  sim::Extinction done;
  const auto run = sim::Runner(std::uint64_t{1} << 20).run(mis, gen, done);
  return static_cast<double>(run.rounds);
}

void family_table(bench::Harness& h, std::uint32_t trials) {
  std::cout << "1) greedy MIS per family: rounds, |MIS|, certificates\n";
  io::Table table({"graph", "n", "rounds", "|MIS|", "independent", "maximal"});
  table.set_align(0, io::Align::Left);
  const std::vector<bench::SuiteCase> cases = {
      {"cycle n=4096", "ring:n=4096", "ring:n=256"},
      {"torus 64x64", "torus:side=64,dims=2", "torus:side=16,dims=2"},
      {"hypercube Q_12", "hypercube:dims=12", "hypercube:dims=8"},
      {"complete n=512", "complete:n=512", "complete:n=64"},
      {"rreg n=4096 d=8", "rreg:n=4096,d=8,seed=1101",
       "rreg:n=256,d=8,seed=1101"},
      {"gnp n=4096 avg_deg=8", "gnp:n=4096,avg_deg=8,seed=1102",
       "gnp:n=256,avg_deg=8,seed=1102"},
      {"rmat n=4096 deg=8", "rmat:n=4096,deg=8,seed=1103",
       "rmat:n=256,deg=8,seed=1103"},
      {"star n=1024", "star:n=1024", "star:n=64"},
  };
  for (const auto& c : h.suite(cases)) {
    const auto seed = 0xA11100 ^ std::hash<std::string>{}(c.spec);
    const auto rounds = sim::replicate(
        trials, seed, [&](core::Engine& gen) {
          return rounds_to_extinction(c.graph, gen);
        });
    // One pinned run for the size and the certificates (the property
    // suite re-verifies these across thread counts and representations).
    core::GreedyMIS mis(c.graph);
    core::Engine gen(seed);
    sim::Extinction done;
    sim::Runner(std::uint64_t{1} << 20).run(mis, gen, done);
    const auto cert = certify(c.graph, mis);
    table.add_row({c.name, io::Table::fmt_int(c.graph.num_vertices()),
                   bench::mean_ci(rounds, 2),
                   io::Table::fmt_int(static_cast<long long>(mis.mis().size())),
                   cert.independent ? "yes" : "NO",
                   cert.maximal ? "yes" : "NO"});
    h.json()
        .record("family/" + c.name)
        .field("spec", c.spec)
        .field("n", static_cast<double>(c.graph.num_vertices()))
        .field("rounds_mean", rounds.mean)
        .field("rounds_ci95", rounds.ci95_half)
        .field("mis_size", static_cast<double>(mis.mis().size()))
        .field("independent", cert.independent ? 1.0 : 0.0)
        .field("maximal", cert.maximal ? 1.0 : 0.0);
  }
  std::cout << table
            << "reading: every certificate column must read yes - the MIS is\n"
               "independent and maximal on every family; rounds stay small\n"
               "even on the complete graph (one round: the global minimum\n"
               "swallows everything).\n\n";
}

void scaling_table(bench::Harness& h, bool smoke, std::uint32_t trials,
                   const std::string& family, const std::string& key) {
  io::Table table({"n", "rounds"});
  std::vector<double> ns, rounds_means;
  const std::uint32_t lo = smoke ? 8 : 10;
  const std::uint32_t hi = smoke ? 10 : 16;
  std::vector<bench::SuiteCase> cases;
  for (std::uint32_t p = lo; p <= hi; ++p) {
    const auto n = std::uint32_t{1} << p;
    cases.push_back({family + " n=" + std::to_string(n),
                     key + ":n=" + std::to_string(n) +
                         ",avg_deg=8,seed=" + std::to_string(0xA11 + p)});
  }
  if (key == "rmat") {
    for (auto& c : cases) {
      // rmat keys degree as deg=, not avg_deg=.
      const auto pos = c.spec.find("avg_deg=");
      c.spec.replace(pos, 8, "deg=");
    }
  }
  for (const auto& c : h.suite(cases)) {
    const auto n = c.graph.num_vertices();
    const auto rounds = sim::replicate(
        trials, 0xA11200 ^ std::hash<std::string>{}(c.spec),
        [&](core::Engine& gen) { return rounds_to_extinction(c.graph, gen); });
    table.add_row({io::Table::fmt_int(n), bench::mean_ci(rounds, 2)});
    ns.push_back(static_cast<double>(n));
    rounds_means.push_back(rounds.mean);
    h.json()
        .record(family + "/n" + std::to_string(n))
        .field("spec", c.spec)
        .field("n", static_cast<double>(n))
        .field("rounds_mean", rounds.mean)
        .field("rounds_ci95", rounds.ci95_half);
  }
  std::cout << family << "\n" << table;
  const auto fit = stats::fit_polylog(ns, rounds_means);
  bench::print_fit("  rounds vs ln n", fit,
                   "Fischer-Noever: Theta(log n) => exponent ~ 1");
  h.json()
      .record(family + "/fit")
      .field("polylog_exponent", fit.exponent)
      .field("polylog_exponent_stderr", fit.exponent_stderr)
      .field("r_squared", fit.r_squared);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("greedy_mis",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(20, 4);
  h.json().context("trials", static_cast<double>(trials));

  bench::print_header(
      "A11  (related work: Fischer-Noever greedy MIS)",
      "parallel randomized greedy MIS rounds are Theta(log n) on the "
      "frontier engine");
  family_table(h, trials);
  if (!h.has_graph()) {
    std::cout << "2) round-complexity sweep (polylog fit)\n";
    const std::uint32_t sweep_trials = h.smoke() ? 2 : 8;
    scaling_table(h, h.smoke(), sweep_trials, "gnp avg_deg=8", "gnp");
    scaling_table(h, h.smoke(), sweep_trials, "rmat deg=8", "rmat");
  }
  return h.finish();
}
