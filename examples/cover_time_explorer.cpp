/// Cover-time explorer: a CLI for interactive experimentation with every
/// process and graph family in the library. This is the "swiss-army"
/// example; the bench/ binaries are scripted versions of specific slices.
///
///   $ ./cover_time_explorer --graph grid:n=1024 --k 2 --trials 100
///   $ ./cover_time_explorer --graph rreg:n=4096,d=6,seed=7 --process walt
///   $ ./cover_time_explorer --graph "gnp:n=2^16,avg_deg=8,lcc=1"
///
/// Flags:
///   --graph     a GraphSpec string built through the gen registry (run
///               with a bad spec to print the grammar table)  [grid:n=1024]
///   --file      load an edge-list file instead of generating (see
///               io/graph_io.hpp for the format); --graph overrides it
///   --process   cobra|rw|gossip|pushpull|parallel|walt             [cobra]
///   --k         cobra branching, or the walker count of `parallel`
///               (k independent random walks from vertex 0)          [2]
///   --trials    Monte-Carlo trials                                 [50]
///   --precision adaptive mode: run until the 95% CI half-width is
///               below this fraction of the mean (overrides --trials)
///   --seed      base seed                                          [1]
///   --curve     also print the coverage curve of one run           [false]
///
/// A rejected argument (bad --graph, unreadable --file, --k 0) prints the
/// library's message and exits 1 before any trial runs.

#include <algorithm>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cobra_walk.hpp"
#include "core/gossip.hpp"
#include "core/random_walk.hpp"
#include "core/walt.hpp"
#include "graph/algorithms.hpp"
#include "graph/spectral.hpp"
#include "io/args.hpp"
#include "io/graph_flag.hpp"
#include "io/graph_io.hpp"
#include "io/table.hpp"
#include "parallel/monte_carlo.hpp"
#include "sim/observers.hpp"
#include "sim/runner.hpp"
#include "stats/histogram.hpp"
#include "stats/sequential.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cobra;

constexpr const char* kDefaultGraph = "grid:n=1024";

/// Construct `process` on `g` from vertex 0 and hand it, with its cover
/// budget (0 = the Runner's default), to `use`. Every process runs to cover
/// through the one shared sim::Runner — adding a process here is one more
/// branch. A rejected argument (--k 0, an unknown name) throws the
/// library's std::invalid_argument.
template <typename Use>
double with_process(const std::string& process, const graph::Graph& g,
                    std::uint32_t k, Use&& use) {
  if (process == "cobra") {
    core::CobraWalk walk(g, 0, k);
    return use(walk, 0);
  }
  if (process == "rw") {
    core::RandomWalk walk(g, 0);
    return use(walk, 0);
  }
  if (process == "gossip") {
    core::Gossip gossip(g, 0, core::GossipMode::Push);
    return use(gossip, 0);
  }
  if (process == "pushpull") {
    core::Gossip gossip(g, 0, core::GossipMode::PushPull);
    return use(gossip, std::uint64_t{1} << 26);
  }
  if (process == "parallel") {
    const std::vector<core::Vertex> starts(k, 0);
    core::RandomWalk walks(g, starts);
    return use(walks, 0);
  }
  if (process == "walt") {
    core::Walt walt(g, 0, std::max(1u, g.num_vertices() / 2), true);
    return use(walt, 0);
  }
  throw std::invalid_argument("unknown process: " + process);
}

double run_process(const std::string& process, const graph::Graph& g,
                   std::uint32_t k, core::Engine& gen) {
  return with_process(process, g, k, [&gen](auto& p, std::uint64_t budget) {
    return static_cast<double>(sim::run_cover(p, gen, budget).rounds);
  });
}

/// The explorer proper; main() turns a library exception into exit 1.
int explore(int argc, char** argv) {
  const io::Args args(argc, argv,
                      {io::kGraphFlag, "process", "k", "trials", "seed",
                       "curve", "file", "precision"});
  const std::string process = args.get("process", "cobra");
  const auto k = static_cast<std::uint32_t>(args.get_uint("k", 2));
  const auto trials = static_cast<std::uint32_t>(args.get_uint("trials", 50));
  const std::uint64_t seed = args.get_uint("seed", 1);
  const bool curve = args.get_bool("curve", false);
  const double precision = args.get_double("precision", 0.02);

  const bool from_file = args.has("file") && !args.has(io::kGraphFlag);
  const std::string source = from_file
                                 ? args.get("file", "")
                                 : io::graph_spec_from_args(args, kDefaultGraph);
  // A typo'd spec's message carries the grammar table (graph_from_args
  // appends it), the same contract as the benches.
  const graph::Graph g =
      from_file ? graph::largest_component(io::load_edge_list(source)).graph
                : io::graph_from_args(args, kDefaultGraph);
  // Construct the process once, so a rejected argument stops here, before
  // any trial runs.
  with_process(process, g, k, [](auto&, std::uint64_t) { return 0.0; });

  std::cout << "family = " << source
            << ", n = " << g.num_vertices()
            << ", m = " << g.num_edges() << ", degrees in ["
            << g.min_degree() << ", " << g.max_degree() << "]\n";
  if (g.num_vertices() <= 4096) {
    const auto est = graph::estimate_conductance(g);
    std::cout << "spectral gap (lazy) = " << est.spectral_gap
              << ", conductance in [" << est.cheeger_lower << ", "
              << est.sweep_cut_upper << "]\n";
  }
  std::cout << "\n";

  std::vector<double> samples;
  if (args.has("precision")) {
    stats::SequentialOptions seq;
    seq.base_seed = seed;
    seq.relative_tolerance = precision;
    auto adaptive = stats::run_until_precise(
        par::global_pool(), seq, [&](core::Engine& gen, std::uint32_t) {
          return run_process(process, g, k, gen);
        });
    std::cout << "adaptive mode: " << adaptive.trials_used << " trials, "
              << (adaptive.converged ? "converged" : "NOT converged") << "\n";
    samples = std::move(adaptive.samples);
  } else {
    par::MonteCarloOptions opts;
    opts.base_seed = seed;
    opts.trials = trials;
    samples = par::run_trials(par::global_pool(), opts,
                              [&](core::Engine& gen, std::uint32_t) {
                                return run_process(process, g, k, gen);
                              });
  }
  const stats::Summary s = stats::summarize(samples);

  io::Table table({"statistic", "value"});
  table.set_align(0, io::Align::Left);
  table.add_row({"trials", io::Table::fmt_int(static_cast<long long>(s.count))});
  table.add_row({"mean cover time", io::Table::fmt(s.mean, 2)});
  table.add_row({"95% CI half-width", io::Table::fmt(s.ci95_half, 2)});
  table.add_row({"std dev", io::Table::fmt(s.stddev, 2)});
  table.add_row({"min / median / max",
                 io::Table::fmt(s.min, 0) + " / " + io::Table::fmt(s.median, 0) +
                     " / " + io::Table::fmt(s.max, 0)});
  std::cout << table << "\n";

  std::cout << "cover-time distribution (" << samples.size() << " trials):\n"
            << stats::Histogram::of(samples, 10).render(40) << "\n";

  if (curve && process == "cobra") {
    std::cout << "coverage curve of a single run:\n";
    // One Runner call: the cover stop rule supplies the covered count,
    // the growth observer |S_t|.
    core::Engine gen(seed);
    core::CobraWalk walk(g, 0, k);
    sim::CoverStop cover;
    sim::GrowthCurve growth;
    auto covered = sim::record_of([&cover](const core::CobraWalk&) {
      return static_cast<double>(cover.covered_count());
    });
    sim::Runner().run(walk, gen, cover, growth, covered);
    io::Table tcurve({"round", "|S_t|", "covered"});
    const auto& sizes = growth.sizes();
    for (std::size_t p = 0; p <= 10; ++p) {
      const std::size_t round = p * (sizes.size() - 1) / 10;
      tcurve.add_row(
          {io::Table::fmt_int(static_cast<long long>(round)),
           io::Table::fmt_int(static_cast<long long>(sizes[round])),
           io::Table::fmt_int(
               static_cast<long long>(covered.values()[round]))});
    }
    std::cout << tcurve;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return explore(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
