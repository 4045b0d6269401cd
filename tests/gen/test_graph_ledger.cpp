/// Graph ledger: literal fnv1a64 fingerprints of the CSR arrays of every
/// registry family at two sizes, pinned so that a rewrite of a generator
/// (or of the shared CSR assembly) that changes ANY graph a spec names
/// fails here instead of passing silently.
///
/// A fingerprint is fnv1a64 over the bytes of offsets(), chained into
/// fnv1a64 over the bytes of targets(). Every spec is built in-line
/// (GenOptions::serial) and on 1-, 2- and 4-thread pools; the determinism
/// contract says all four builds are the same graph, so one literal per
/// spec pins all of them. A literal may change only with an intended,
/// documented change of the graphs a spec produces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "gen/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "util/checkpoint_io.hpp"

namespace cobra::gen {
namespace {

using graph::Graph;

struct Pinned {
  const char* spec;
  std::uint64_t fingerprint;
};

/// Two sizes per family. The rreg rows cover the repair path
/// (n=2^14,d=6 and the high-degree n=1000,d=30 both start with defects)
/// and a pairing whose stub sort spans many sort chunks (n=2^18,d=4);
/// the larger random rows span several generator chunks each. The lcc=1
/// rows cover largest-component extraction: many small components (gnp
/// avg_deg=1.5), isolated vertices after simplify (rmat), long
/// high-diameter components (geo), a skewed degree sequence (chunglu), and
/// a graph large enough to spread over every pool worker (gnp 2^18).
constexpr Pinned kLedger[] = {
    {"ba:n=1000,d=3,seed=3", 0x3929da6e7544247cULL},
    {"ba:n=60000,d=3,seed=5", 0x8db2079da085f98bULL},
    {"barbell:n=30", 0x8039e987be35a89bULL},
    {"barbell:clique=10,path=5", 0xc6d96afe6b5e9b1dULL},
    {"chunglu:n=1000,seed=3", 0x2f5142ad078e9646ULL},
    {"chunglu:n=20000,seed=5", 0xc8e2287c71e338daULL},
    {"chunglu:n=20000,seed=5,lcc=1", 0x858dbfe47f16f506ULL},
    {"complete:n=20", 0x466b9450291ffdd2ULL},
    {"complete:n=200", 0x1c74f5320bee6ff3ULL},
    {"dclique:n=21", 0x0057b6dafaa269adULL},
    {"dclique:clique=30", 0xd8098298641832d4ULL},
    {"geo:n=1000,radius=0.06,seed=3", 0x1a25eda91399dca3ULL},
    {"geo:n=80000,avg_deg=8,seed=5", 0x312f5ff8e27fc730ULL},
    {"geo:n=80000,avg_deg=4,seed=5,lcc=1", 0x864ad2618c1423e6ULL},
    {"gnm:n=1000,m=3000,seed=3", 0x683a46471a014aaaULL},
    {"gnm:n=2^17,m=2^19,seed=5", 0xbfd7d806c9ce6d55ULL},
    {"gnp:n=1000,avg_deg=6,seed=3", 0xe82f641ae9fb6f06ULL},
    {"gnp:n=2^17,avg_deg=8,seed=5", 0x3c758aa1847a1e29ULL},
    {"gnp:n=2^12,avg_deg=2,seed=7,lcc=1", 0x0fe90e9fdf8e98ddULL},
    {"gnp:n=2^16,avg_deg=1.5,seed=3,lcc=1", 0xf1afc4ece7bd509cULL},
    {"gnp:n=2^18,avg_deg=2,seed=11,lcc=1", 0x5bdae9736ae81598ULL},
    {"grid:side=10", 0x059f52420e145f42ULL},
    {"grid:side=6,dims=3", 0x5fcf173ebd48c59bULL},
    {"hypercube:dims=4", 0xc12d909fd937fd05ULL},
    {"hypercube:dims=10", 0x427d2b3caaccacedULL},
    {"lollipop:n=30", 0x86bd8c11621a21c6ULL},
    {"lollipop:clique=12,path=7", 0xf04a857a62e30a79ULL},
    {"path:n=100", 0xc3aa351c39be50b7ULL},
    {"path:n=1001", 0xc1bc77b0fc70c805ULL},
    {"ring:n=100", 0x126f40e0787e3aedULL},
    {"ring:n=1001", 0xa16b89ab3248a647ULL},
    {"rmat:n=2^10,deg=8,seed=3", 0x06f874b926aa8654ULL},
    {"rmat:n=2^16,deg=16,seed=5", 0x85a21fb7d640cf75ULL},
    {"rmat:n=2^16,deg=4,seed=5,lcc=1", 0x4b27314ee6381a5cULL},
    {"rreg:n=1000,d=30,seed=2", 0xe9f3e1b889b98567ULL},
    {"rreg:n=2^14,d=6,seed=1", 0x06f4604d7f4b7ae1ULL},
    {"rreg:n=2^18,d=4,seed=1", 0x7df66d2d26b0b555ULL},
    {"star:n=50", 0x0bf5c5384f1d7d77ULL},
    {"star:n=1000", 0x664da03d5d700279ULL},
    {"torus:side=12", 0xd2bfe411d0590dcfULL},
    {"torus:n=2^12,dims=3", 0x1c02010b4614d565ULL},
    {"tree:levels=4", 0x7bf2fd55f088548dULL},
    {"tree:n=1000,arity=3", 0x0b28d2c4ad9c8fe0ULL},
    {"ws:n=1000,k=4,beta=0.2,seed=3", 0xd346d74b560a27b9ULL},
    {"ws:n=50000,k=6,beta=0.1,seed=5", 0x802d5543305016ffULL},
};

template <typename T>
std::span<const std::uint8_t> bytes_of(const std::vector<T>& v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T)};
}

std::uint64_t csr_fingerprint(const Graph& g) {
  return util::fnv1a64(bytes_of(g.targets()),
                       util::fnv1a64(bytes_of(g.offsets())));
}

TEST(GraphLedger, EveryRegistryFamilyHasTwoPinnedSpecs) {
  for (const FamilyInfo& family : families()) {
    const auto rows = std::count_if(
        std::begin(kLedger), std::end(kLedger), [&](const Pinned& p) {
          return GraphSpec::parse(p.spec).family() == family.name;
        });
    EXPECT_GE(rows, 2) << family.name;
  }
}

TEST(GraphLedger, FingerprintsArePinnedSeriallyAndOnEveryPool) {
  par::ThreadPool pool1(1), pool2(2), pool4(4);
  std::vector<GenOptions> builds(4);
  builds[0].serial = true;
  builds[1].pool = &pool1;
  builds[2].pool = &pool2;
  builds[3].pool = &pool4;
  const char* names[] = {"serial", "1 thread", "2 threads", "4 threads"};
  for (const Pinned& row : kLedger) {
    for (std::size_t b = 0; b < builds.size(); ++b) {
      const std::uint64_t fp =
          csr_fingerprint(build_graph(row.spec, builds[b]));
      char got[32];
      std::snprintf(got, sizeof got, "0x%016llxULL",
                    static_cast<unsigned long long>(fp));
      EXPECT_EQ(fp, row.fingerprint)
          << row.spec << " (" << names[b] << ") fingerprint=" << got;
    }
  }
}

}  // namespace
}  // namespace cobra::gen
