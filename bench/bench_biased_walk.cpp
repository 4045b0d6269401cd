/// E8 — Theorem 13 (Azar et al., the engine of §5): an epsilon-biased walk
/// can concentrate stationary mass on a target set, and the
/// inverse-degree-biased walk's hitting time upper-bounds the cobra
/// walk's (Lemma 14).
///
/// Three tables:
///   1. occupancy boost: long-run fraction of time at the target vertex for
///      the greedy epsilon-biased walk vs the Theorem 13 lower bound
///      d(v) / (d(v) + sum_x beta^{dist-1} d(x)), on cycle and torus;
///   2. epsilon sweep of hitting times (more bias -> faster hitting);
///   3. Lemma 14 check: cobra H(u,v) <= inverse-degree-biased H*(u,v) on
///      assorted graphs.
///
/// Usage: bench_biased_walk [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Case graphs are built through the spec registry. --graph replaces
///   every table's case list with that one graph (targets default to the
///   far vertex); --smoke shrinks occupancy step counts and trials for CI.

#include <cmath>

#include "harness.hpp"

#include "core/biased_walk.hpp"
#include "core/cobra_walk.hpp"
#include "graph/algorithms.hpp"
#include "sim/observers.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

/// Theorem 13 lower bound on stationary mass at {v} for bias epsilon.
double thm13_bound(const graph::Graph& g, graph::Vertex v, double epsilon) {
  const double beta = 1.0 - epsilon;
  const auto dist = graph::bfs_distances(g, v);
  double denom = g.degree(v);
  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    if (x == v) continue;
    denom += std::pow(beta, static_cast<double>(dist[x]) - 1.0) * g.degree(x);
  }
  return g.degree(v) / denom;
}

/// Long-run occupancy of the target under the greedy epsilon-biased walk:
/// a fixed-horizon burn-in run followed by a fixed-horizon run carrying
/// the occupancy observer.
double measure_occupancy(const graph::Graph& g, graph::Vertex target,
                         double epsilon, std::uint64_t steps,
                         core::Engine& gen) {
  core::BiasedWalk walk(g, 0, target, core::BiasSchedule::EpsilonBias, epsilon);
  const sim::Runner runner;
  runner.run(walk, gen, sim::FixedRounds(steps / 4));  // burn-in
  sim::OccupancyCounter occupancy(target);
  runner.run(walk, gen, sim::FixedRounds(steps), occupancy);
  return occupancy.fraction();
}

/// The occupancy/epsilon-sweep target: the mid-id vertex — the antipode on
/// the built-in ring/torus cases, an arbitrary interior vertex elsewhere.
graph::Vertex pick_target(const graph::Graph& g) {
  return g.num_vertices() / 2;
}

void occupancy_table(bench::Harness& h, std::uint64_t steps) {
  std::cout << "1) stationary occupancy at the target vs Theorem 13 bound\n";
  io::Table table({"graph", "epsilon", "measured occupancy", "Thm 13 bound",
                   "uniform 1/n"});
  table.set_align(0, io::Align::Left);
  core::Engine gen(0xE81);
  const std::vector<bench::SuiteCase> cases = {
      {"cycle n=64", "ring:n=64"},
      {"torus 8x8", "torus:side=8,dims=2"},
      {"random 4-regular n=64", "rreg:n=64,d=4,seed=166"},
  };
  for (const auto& c : h.suite(cases)) {
    const graph::Graph& g = c.graph;
    const graph::Vertex target = pick_target(g);
    for (const double eps : {0.1, 0.3, 0.5}) {
      const double occupancy = measure_occupancy(g, target, eps, steps, gen);
      const double bound = thm13_bound(g, target, eps);
      table.add_row({c.name, io::Table::fmt(eps, 1),
                     io::Table::fmt(occupancy, 4), io::Table::fmt(bound, 4),
                     io::Table::fmt(1.0 / g.num_vertices(), 4)});
      h.json()
          .record("occupancy/" + c.name + "/eps" + io::Table::fmt(eps, 1))
          .field("spec", c.spec)
          .field("n", static_cast<double>(g.num_vertices()))
          .field("epsilon", eps)
          .field("occupancy", occupancy)
          .field("thm13_bound", bound);
    }
  }
  std::cout << table
            << "reading: measured occupancy >= the Thm 13 bound and far\n"
               "above the uniform 1/n - the controller concentrates mass.\n\n";
}

void epsilon_sweep(bench::Harness& h, std::uint32_t trials) {
  std::cout << "2) hitting time vs bias strength (antipodal pair)\n";
  const std::vector<bench::SuiteCase> cases = {
      {"cycle n=128", "ring:n=128", "ring:n=48"}};
  for (const auto& c : h.suite(cases)) {
    const graph::Graph& g = c.graph;
    const graph::Vertex target = pick_target(g);
    std::cout << c.name << " (target " << target << ")\n";
    io::Table table({"epsilon", "hit time"});
    for (const double eps : {0.0, 0.05, 0.1, 0.2, 0.4, 0.8}) {
      const auto hit = sim::replicate(
          trials, 0xE8200 + static_cast<std::uint64_t>(eps * 100),
          [&](core::Engine& gen) {
            core::BiasedWalk walk(g, 0, target, core::BiasSchedule::EpsilonBias,
                                  eps);
            return static_cast<double>(
                sim::run_hit(walk, target, gen, 1u << 24).rounds);
          });
      table.add_row({io::Table::fmt(eps, 2), bench::mean_ci(hit)});
      h.json()
          .record("eps_sweep/" + c.name + "/eps" + io::Table::fmt(eps, 2))
          .field("spec", c.spec)
          .field("epsilon", eps)
          .field("hit_mean", hit.mean)
          .field("hit_ci95", hit.ci95_half);
    }
    std::cout << table
              << "reading: monotone collapse from the diffusive ~n^2/4 at\n"
                 "eps=0 toward the ballistic n/2 as bias grows.\n\n";
  }
}

void lemma14_table(bench::Harness& h, std::uint32_t trials) {
  std::cout << "3) Lemma 14: cobra H(u,v) <= inverse-degree-biased H*(u,v)\n";
  io::Table table({"graph", "pair dist", "cobra H", "inv-degree H*", "ratio"});
  table.set_align(0, io::Align::Left);
  const std::vector<bench::SuiteCase> cases = {
      {"cycle n=64", "ring:n=64"},
      {"grid 8x8", "grid:side=8,dims=2"},
      {"lollipop n=60", "lollipop:clique=40,path=20"},
      {"binary tree 6 levels", "tree:levels=6,arity=2", "tree:levels=4,arity=2"},
      {"random 4-regular n=64", "rreg:n=64,d=4,seed=163"},
  };
  for (const auto& c : h.suite(cases)) {
    const graph::Graph& g = c.graph;
    const graph::Vertex u = 0;
    const graph::Vertex v = g.num_vertices() - 1;
    const auto dist = graph::bfs_distances(g, u);
    const auto cobra =
        sim::replicate(trials, 0xE8300 ^ std::hash<std::string>{}(c.spec),
                       [&](core::Engine& gen) {
                         return sim::hit_rounds<core::CobraWalk>(gen, v, g, u, 2u);
                       });
    const auto biased =
        sim::replicate(trials, 0xE8400 ^ std::hash<std::string>{}(c.spec),
                       [&](core::Engine& gen) {
                         return sim::hit_rounds<core::BiasedWalk>(
                             gen, v, g, u, v,
                             core::BiasSchedule::InverseDegreeBias);
                       });
    table.add_row({c.name, io::Table::fmt_int(dist[v]), bench::mean_ci(cobra),
                   bench::mean_ci(biased),
                   io::Table::fmt(cobra.mean / biased.mean, 2)});
    h.json()
        .record("lemma14/" + c.name)
        .field("spec", c.spec)
        .field("n", static_cast<double>(g.num_vertices()))
        .field("pair_dist", static_cast<double>(dist[v]))
        .field("cobra_hit_mean", cobra.mean)
        .field("inv_degree_hit_mean", biased.mean)
        .field("ratio", cobra.mean / biased.mean);
  }
  std::cout << table
            << "reading: every ratio is <= 1 (within CI noise): the\n"
               "inverse-degree-biased walk upper-bounds the cobra walk,\n"
               "exactly the dominance Section 5 builds Theorems 15/20 on.\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("biased_walk",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(60, 8);
  const std::uint64_t occupancy_steps = h.smoke() ? 40000 : 400000;
  h.json().context("trials", static_cast<double>(trials));
  h.json().context("occupancy_steps", static_cast<double>(occupancy_steps));

  bench::print_header("E8  (Theorem 13 / Lemma 14)",
                      "biased walks: occupancy boost and the dominance that "
                      "drives Section 5");
  occupancy_table(h, occupancy_steps);
  epsilon_sweep(h, trials);
  lemma14_table(h, trials);
  return h.finish();
}
