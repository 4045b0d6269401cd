/// E4 — Theorem 15: on delta-regular graphs the 2-cobra hitting time is
/// O(n^{2 - 1/delta}).
///
/// Table: per delta in {2, 3, 4}, sweep n and measure the worst-pair mean
/// hitting time (for the cycle the antipodal pair is exactly the worst
/// pair; for random regular graphs we take the BFS-farthest pair). Fit
/// H = a * n^c; Theorem 15 predicts c <= 2 - 1/delta, i.e. 1.5, 1.67, 1.75.
/// The random walk baseline on the cycle shows the ~n^2 it improves on.
///
/// Usage: bench_regular_hitting [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Sweep graphs are built through the spec registry
///   ("ring:n=<N>" / "rreg:n=<N>,d=<D>"). --graph replaces the sweeps with
///   one far-pair row on that graph (no fit); --smoke shrinks the sweeps
///   and trial count for CI.

#include <cmath>

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "core/random_walk.hpp"
#include "graph/algorithms.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

/// First-hit rounds of a fresh process through the shared sim::Runner.
double cobra_hit_rounds(const graph::Graph& g, graph::Vertex from,
                        graph::Vertex to, core::Engine& gen) {
  return sim::hit_rounds<core::CobraWalk>(gen, to, g, from, 2u);
}

double rw_hit_rounds(const graph::Graph& g, graph::Vertex from,
                     graph::Vertex to, core::Engine& gen) {
  return sim::hit_rounds<core::RandomWalk>(gen, to, g, from);
}

/// BFS-farthest pair from vertex 0 — a worst-case-ish hitting pair.
std::pair<graph::Vertex, graph::Vertex> far_pair(const graph::Graph& g) {
  const auto d0 = graph::bfs_distances(g, 0);
  graph::Vertex a = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    if (d0[v] != graph::kUnreachable && d0[v] > d0[a]) a = v;
  }
  const auto da = graph::bfs_distances(g, a);
  graph::Vertex b = a;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    if (da[v] != graph::kUnreachable && da[v] > da[b]) b = v;
  }
  return {a, b};
}

void sweep_cycle(const std::vector<std::uint32_t>& sizes, std::uint32_t trials,
                 bench::JsonReporter& json) {
  io::Table table({"n", "cobra H(0, n/2)", "H / n^1.5", "rw H(0, n/2)",
                   "rw H / n^2"});
  std::vector<double> ns, cobra_means, rw_means;
  for (const std::uint32_t n : sizes) {
    const graph::Graph g = gen::build_graph("ring:n=" + std::to_string(n));
    const auto cobra =
        sim::replicate(trials, 0xE4100 + n, [&](core::Engine& gen) {
          return cobra_hit_rounds(g, 0, n / 2, gen);
        });
    const auto rw = sim::replicate(trials, 0xE4200 + n, [&](core::Engine& gen) {
      return rw_hit_rounds(g, 0, n / 2, gen);
    });
    const double nd = n;
    table.add_row({io::Table::fmt_int(n), bench::mean_ci(cobra),
                   io::Table::fmt(cobra.mean / std::pow(nd, 1.5), 4),
                   bench::mean_ci(rw), io::Table::fmt(rw.mean / (nd * nd), 4)});
    json.record("cycle/n" + std::to_string(n))
        .field("delta", 2.0)
        .field("n", nd)
        .field("cobra_hit_mean", cobra.mean)
        .field("cobra_hit_ci95", cobra.ci95_half)
        .field("rw_hit_mean", rw.mean);
    ns.push_back(nd);
    cobra_means.push_back(cobra.mean);
    rw_means.push_back(rw.mean);
  }
  std::cout << "cycle (delta = 2): antipodal hitting time\n" << table;
  const auto cobra_fit = stats::fit_power_law(ns, cobra_means);
  bench::print_fit("  cobra", cobra_fit, "Theorem 15 predicts exponent <= 1.5");
  bench::print_fit("  random walk", stats::fit_power_law(ns, rw_means),
                   "classical exponent 2");
  json.record("cycle/fit").field("delta", 2.0).field("exponent",
                                                     cobra_fit.exponent);
  std::cout << "\n";
}

void sweep_regular(std::uint32_t delta, const std::vector<std::uint32_t>& sizes,
                   std::uint32_t trials, bench::JsonReporter& json) {
  io::Table table({"n", "far pair dist", "cobra H(far pair)",
                   "H / n^(2-1/delta)"});
  std::vector<double> ns, means;
  const double target_exp = 2.0 - 1.0 / delta;
  for (const std::uint32_t n : sizes) {
    const graph::Graph g = gen::build_graph(
        "rreg:n=" + std::to_string(n) + ",d=" + std::to_string(delta) +
        ",seed=" + std::to_string(0xE43 + delta + n));
    const auto [a, b] = far_pair(g);
    const auto dist = graph::bfs_distances(g, a);
    const auto hit = sim::replicate(
        trials, 0xE4400 + n + delta,
        [&, a = a, b = b](core::Engine& gen) {
          return cobra_hit_rounds(g, a, b, gen);
        });
    table.add_row({io::Table::fmt_int(n), io::Table::fmt_int(dist[b]),
                   bench::mean_ci(hit),
                   io::Table::fmt(hit.mean / std::pow(n, target_exp), 4)});
    json.record("rreg_d" + std::to_string(delta) + "/n" + std::to_string(n))
        .field("delta", static_cast<double>(delta))
        .field("n", static_cast<double>(n))
        .field("far_pair_dist", static_cast<double>(dist[b]))
        .field("cobra_hit_mean", hit.mean)
        .field("cobra_hit_ci95", hit.ci95_half);
    ns.push_back(n);
    means.push_back(hit.mean);
  }
  std::cout << "random " << delta << "-regular: farthest-pair hitting time\n"
            << table;
  const auto fit = stats::fit_power_law(ns, means);
  bench::print_fit(
      "  cobra", fit,
      "Theorem 15 predicts exponent <= " + io::Table::fmt(target_exp, 2));
  json.record("rreg_d" + std::to_string(delta) + "/fit")
      .field("delta", static_cast<double>(delta))
      .field("exponent", fit.exponent);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const io::Args args = bench::parse_bench_args(argc, argv, {"trials"});
  const bool smoke = args.get_bool("smoke", false);
  const auto trials =
      static_cast<std::uint32_t>(bench::uint_flag(args, "trials", smoke ? 5 : 0));

  bench::print_header("E4  (Theorem 15)",
                      "2-cobra hitting time on delta-regular graphs is "
                      "O(n^{2-1/delta})");

  bench::JsonReporter json("regular_hitting");
  if (smoke) json.context("smoke", 1.0);

  if (args.has("graph")) {
    // Single-graph mode: one far-pair hitting row on the named graph.
    const std::string spec = io::graph_spec_from_args(args, "");
    const graph::Graph g = bench::bench_graph(args, spec);
    const auto [a, b] = far_pair(g);
    const auto dist = graph::bfs_distances(g, a);
    const auto hit = sim::replicate(trials > 0 ? trials : 40, 0xE4500,
                                    [&, a = a, b = b](core::Engine& gen) {
                                      return cobra_hit_rounds(g, a, b, gen);
                                    });
    io::Table table({"n", "far pair dist", "cobra H(far pair)"});
    table.add_row({io::Table::fmt_int(g.num_vertices()),
                   io::Table::fmt_int(dist[b]), bench::mean_ci(hit)});
    json.record(spec)
        .field("n", static_cast<double>(g.num_vertices()))
        .field("far_pair_dist", static_cast<double>(dist[b]))
        .field("cobra_hit_mean", hit.mean);
    std::cout << "graph: " << spec << "\n" << table << "\n";
  } else if (smoke) {
    sweep_cycle({32, 64, 128}, trials, json);
    sweep_regular(3, {64, 128}, trials, json);
    sweep_regular(4, {64, 128}, trials, json);
  } else {
    sweep_cycle({32, 64, 128, 256, 512}, trials > 0 ? trials : 60, json);
    sweep_regular(3, {64, 128, 256, 512}, trials > 0 ? trials : 40, json);
    sweep_regular(4, {64, 128, 256, 512}, trials > 0 ? trials : 40, json);
  }

  std::cout
      << "reading: the cycle exponent sits at/below 1.5 while the random\n"
         "walk shows the quadratic it beats; on sparse random regular graphs\n"
         "hitting is polylogarithmic (expanders), far inside the bound -\n"
         "the theorem's extremal regime is the cycle.\n";
  if (args.has("out")) return json.write(args.get("out", "")) ? 0 : 1;
  return 0;
}
