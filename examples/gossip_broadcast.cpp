/// Information-dissemination example: cobra walks as a broadcast primitive.
///
/// §1 motivates cobra walks as message-passing protocols where each holder
/// forwards k copies per round. This example races four protocols to full
/// dissemination on several network topologies:
///
///   * 2-cobra walk        (this paper)
///   * push gossip         (Feige et al.; every informed vertex stays informed)
///   * push-pull gossip
///   * 8 parallel random walks (Alon et al.): one RandomWalk with eight
///     walkers started at the same vertex
///
/// and prints rounds-to-full-dissemination with confidence intervals.
///
///   $ ./gossip_broadcast [--n 1024] [--trials 50] [--seed 3]

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/random_walk.hpp"
#include "gen/families.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "sim/runner.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace cobra;

  const io::Args args(argc, argv, {"n", "trials", "seed"});
  const auto n = static_cast<std::uint32_t>(args.get_uint("n", 1024));
  const auto trials = static_cast<std::uint32_t>(args.get_uint("trials", 50));
  const std::uint64_t seed = args.get_uint("seed", 3);

  core::Engine graph_gen(seed);

  struct Network {
    std::string name;
    graph::Graph graph;
  };
  std::uint32_t dim = 1;
  while ((1u << (dim + 1)) <= n) ++dim;
  std::uint32_t side = 2;
  while ((side + 1) * (side + 1) <= n) ++side;

  const std::vector<Network> networks = {
      {"random 6-regular", gen::random_regular(n, 6, graph_gen())},
      {"hypercube", graph::make_hypercube(dim)},
      {"2-D grid", graph::make_grid(2, side)},
      {"preferential attachment",
       graph::largest_component(gen::barabasi_albert(n, 3, graph_gen()))
           .graph},
  };

  struct Protocol {
    std::string name;
    std::function<double(const graph::Graph&, core::Engine&)> run;
  };
  // Every protocol is "construct a process, run it to cover through the
  // shared sim::Runner" — the one driver every walk process plugs into.
  const std::vector<Protocol> protocols = {
      {"2-cobra walk",
       [](const graph::Graph& g, core::Engine& gen) {
         return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
       }},
      {"push gossip",
       [](const graph::Graph& g, core::Engine& gen) {
         return sim::cover_rounds<core::Gossip>(gen, g, 0u,
                                                core::GossipMode::Push);
       }},
      {"push-pull gossip",
       [](const graph::Graph& g, core::Engine& gen) {
         core::Gossip gossip(g, 0, core::GossipMode::PushPull);
         return static_cast<double>(sim::run_cover(gossip, gen, 1u << 26).rounds);
       }},
      {"8 parallel walks",
       [](const graph::Graph& g, core::Engine& gen) {
         return sim::cover_rounds<core::RandomWalk>(
             gen, g, std::vector<core::Vertex>(8, 0));
       }},
  };

  for (const Network& net : networks) {
    std::cout << "=== " << net.name << "  (n = " << net.graph.num_vertices()
              << ", m = " << net.graph.num_edges() << ") ===\n";
    io::Table table({"protocol", "mean rounds", "95% CI", "median"});
    table.set_align(0, io::Align::Left);
    for (const Protocol& proto : protocols) {
      const stats::Summary s = sim::replicate(
          trials, seed ^ std::hash<std::string>{}(net.name + proto.name),
          [&](core::Engine& gen) { return proto.run(net.graph, gen); });
      table.add_row({proto.name, io::Table::fmt(s.mean, 1),
                     "+-" + io::Table::fmt(s.ci95_half, 1),
                     io::Table::fmt(s.median, 1)});
    }
    std::cout << table << "\n";
  }

  std::cout << "note: gossip informs permanently; the cobra walk's active set\n"
               "can shrink, which is why it pays a polylog factor on sparse\n"
               "topologies — exactly the contrast drawn in the paper's s1.2.\n";
  return 0;
}
