/// Epidemic example: the paper's §1 disease-spread reading of a cobra walk.
///
/// A k-cobra walk models an idealized SIS process: each infected agent
/// infects k random contacts per round and immediately recovers. This
/// example seeds patient zero in two contact-network topologies the paper's
/// §4 calls out — a power-law network (Chung-Lu) and a random geometric
/// graph (proximity contacts) — and prints the epidemic curves: prevalence
/// (currently infected), cumulative attack rate, and time until everyone
/// has been exposed.
///
///   $ ./epidemic_sis [--n 2000] [--contacts 2] [--seed 7]

#include <cmath>
#include <iostream>
#include <string>

#include "core/cobra_walk.hpp"
#include "gen/families.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "sim/runner.hpp"

namespace {

void run_outbreak(const cobra::graph::Graph& g, const std::string& label,
                  std::uint32_t contacts, std::uint64_t seed) {
  using namespace cobra;

  // The infected set at round t is the cobra walk's active set S_t:
  // prevalence is |S_t| (GrowthCurve), the ever-infected count is the
  // covered count, and "everyone exposed" is cover (CoverStop). One Runner
  // call records both curves.
  core::Engine gen(seed);
  core::CobraWalk walk(g, /*patient_zero=*/0, contacts);
  const std::uint64_t horizon = 64ull * g.num_vertices();
  sim::CoverStop exposed;
  sim::GrowthCurve prevalence;
  auto ever_infected = sim::record_of([&exposed](const core::CobraWalk&) {
    return static_cast<double>(exposed.covered_count());
  });
  sim::Runner(horizon).run(walk, gen, exposed, prevalence, ever_infected);

  std::cout << "=== " << label << " ===\n";
  std::cout << "n = " << g.num_vertices() << ", contacts/round = " << contacts
            << ", avg degree = " << g.average_degree() << "\n";

  // Epidemic curve at a handful of checkpoints; new exposures (incidence)
  // are the per-round growth of the ever-infected count.
  io::Table curve({"round", "prevalence", "new exposures", "attack rate"});
  const auto& ever = ever_infected.values();
  const std::size_t points = 8;
  for (std::size_t p = 0; p <= points; ++p) {
    const std::size_t round = p * (ever.size() - 1) / points;
    const double incidence = ever[round] - (round == 0 ? 0.0 : ever[round - 1]);
    curve.add_row(
        {io::Table::fmt_int(static_cast<long long>(round)),
         io::Table::fmt_int(static_cast<long long>(prevalence.sizes()[round])),
         io::Table::fmt_int(static_cast<long long>(incidence)),
         io::Table::fmt(ever[round] / g.num_vertices() * 100.0, 1) + "%"});
  }
  std::cout << curve;
  if (exposed.complete()) {
    std::cout << "everyone exposed after " << walk.round() << " rounds\n\n";
  } else {
    std::cout << "NOT fully exposed within " << horizon
              << " rounds (disconnected contact graph?)\n\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cobra;

  const io::Args args(argc, argv, {"n", "contacts", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 2000));
  const auto contacts = static_cast<std::uint32_t>(args.get_uint("contacts", 2));
  const std::uint64_t seed = args.get_uint("seed", 7);

  // Power-law contact network (superspreaders): take the giant component so
  // the epidemic can reach everyone.
  {
    const graph::Graph raw = gen::chung_lu(n, 2.5, 3.0, seed);
    const auto giant = graph::largest_component(raw);
    run_outbreak(giant.graph, "power-law contact network (giant component)",
                 contacts, seed + 1);
  }

  // Random geometric graph (proximity contacts), radius just above the
  // connectivity threshold.
  {
    core::Engine graph_gen(seed);
    const double radius = 1.8 * std::sqrt(std::log(static_cast<double>(n)) /
                                          (3.14159265 * n));
    const graph::Graph raw = gen::random_geometric(n, radius, graph_gen());
    const auto giant = graph::largest_component(raw);
    run_outbreak(giant.graph, "random geometric contact network (giant component)",
                 contacts, seed + 2);
  }

  // The same outbreak with more contacts per round, on a hypercube "office
  // building" topology, to show the effect of the branching factor.
  {
    std::uint32_t dim = 1;
    while ((1u << (dim + 1)) <= n) ++dim;
    const graph::Graph g = graph::make_hypercube(dim);
    run_outbreak(g, "hypercube topology, k contacts", contacts, seed + 3);
    run_outbreak(g, "hypercube topology, 2k contacts", 2 * contacts, seed + 3);
  }
  return 0;
}
