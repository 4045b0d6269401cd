/// E7 — Lemma 10: the cover time of the Walt process stochastically
/// dominates the cobra walk's when both start from the same vertex (Walt
/// with delta*n pebbles there).
///
/// Table: per graph family, compare the full distribution of cover times
/// (mean, median, q75) for the 2-cobra walk vs Walt (delta = 1/2, lazy as
/// in the paper); dominance predicts Walt >= cobra at every quantile. Also
/// reports the non-lazy Walt (the factor-2 laziness cost) and the effect
/// of the pebble budget.
///
/// Usage: bench_walt_dominance [--trials T] [--graph <spec>] [--out path]
///        [--smoke]
///   Case graphs are built through the spec registry. --graph replaces
///   the case list with one comparison; --smoke shrinks graph sizes and
///   the trial count for CI.

#include "harness.hpp"

#include "core/cobra_walk.hpp"
#include "core/walt.hpp"
#include "sim/runner.hpp"

namespace {

using namespace cobra;

void compare_on(bench::Harness& h, const bench::BuiltCase& c,
                std::uint32_t trials, std::uint64_t seed) {
  const graph::Graph& g = c.graph;
  const std::uint32_t pebbles = std::max(2u, g.num_vertices() / 2);
  const auto cobra = sim::replicate(trials, seed, [&](core::Engine& gen) {
    return sim::cover_rounds<core::CobraWalk>(gen, g, 0u, 2u);
  });
  const auto walt_lazy =
      sim::replicate(trials, seed + 1, [&](core::Engine& gen) {
        return sim::cover_rounds<core::Walt>(gen, g, 0u, pebbles, true);
      });
  const auto walt_eager =
      sim::replicate(trials, seed + 2, [&](core::Engine& gen) {
        return sim::cover_rounds<core::Walt>(gen, g, 0u, pebbles, false);
      });

  io::Table table({"process", "mean", "median", "q75", "max"});
  table.set_align(0, io::Align::Left);
  auto row = [&](const std::string& label, const stats::Summary& s) {
    table.add_row({label, bench::mean_ci(s), io::Table::fmt(s.median, 1),
                   io::Table::fmt(s.q75, 1), io::Table::fmt(s.max, 0)});
  };
  row("2-cobra walk", cobra);
  row("Walt, lazy (paper's)", walt_lazy);
  row("Walt, non-lazy", walt_eager);
  const double margin = walt_lazy.mean / cobra.mean;
  std::cout << c.name << "  (n = " << g.num_vertices()
            << ", pebbles = " << pebbles << ")\n"
            << table;
  std::cout << "  dominance margin (lazy Walt mean / cobra mean): "
            << io::Table::fmt(margin, 2) << "x\n\n";
  h.json()
      .record(c.name)
      .field("spec", c.spec)
      .field("n", static_cast<double>(g.num_vertices()))
      .field("pebbles", static_cast<double>(pebbles))
      .field("cobra_cover_mean", cobra.mean)
      .field("cobra_cover_median", cobra.median)
      .field("walt_lazy_cover_mean", walt_lazy.mean)
      .field("walt_lazy_cover_median", walt_lazy.median)
      .field("walt_eager_cover_mean", walt_eager.mean)
      .field("dominance_margin", margin);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("walt_dominance",
                   bench::parse_bench_args(argc, argv, {"trials"}));
  const std::uint32_t trials = h.trials(50, 8);
  h.json().context("trials", static_cast<double>(trials));

  bench::print_header(
      "E7  (Lemma 10)",
      "Walt's cover time stochastically dominates the 2-cobra walk's");

  const std::vector<bench::SuiteCase> cases = {
      {"random 4-regular", "rreg:n=256,d=4,seed=231", "rreg:n=64,d=4,seed=231"},
      {"hypercube", "hypercube:dims=8", "hypercube:dims=5"},
      {"torus", "torus:side=16,dims=2", "torus:side=8,dims=2"},
      {"grid", "grid:side=16,dims=2", "grid:side=8,dims=2"},
  };

  std::uint64_t seed = 0xE7100;
  for (const auto& c : h.suite(cases)) {
    compare_on(h, c, trials, seed);
    seed += 0x100;
  }

  std::cout
      << "reading: lazy Walt sits above the cobra walk at every reported\n"
         "quantile (mean/median/q75), as Lemma 10 requires - it is the\n"
         "analyzable stand-in whose upper bounds transfer to cobra walks.\n"
         "The non-lazy variant shows the factor ~2 the laziness costs.\n";
  return h.finish();
}
