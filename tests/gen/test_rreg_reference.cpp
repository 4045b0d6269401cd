/// gen::random_regular against the set-based reference generator it
/// replaced (reference_random_regular.hpp): the same CSR for every
/// (n, d, seed), built in-line and on a pool, including high-degree cases
/// where the repair takes several passes, and the same outcome (graph or
/// std::runtime_error) when the repair budget runs out.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "gen/families.hpp"
#include "parallel/thread_pool.hpp"
#include "reference_random_regular.hpp"

namespace cobra::gen {
namespace {

using graph::Graph;

/// The graph, or nullopt when the build throws std::runtime_error.
template <typename Build>
std::optional<Graph> outcome(const Build& build) {
  try {
    return build();
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

void expect_same_outcome(std::uint32_t n, std::uint32_t d, std::uint64_t seed,
                         std::uint32_t max_passes, par::ThreadPool& pool) {
  const auto expected = outcome(
      [&] { return reference::random_regular(n, d, seed, max_passes); });
  GenOptions serial;
  serial.serial = true;
  GenOptions pooled;
  pooled.pool = &pool;
  for (const GenOptions& opts : {serial, pooled}) {
    const auto got = outcome(
        [&] { return random_regular(n, d, seed, opts, max_passes); });
    ASSERT_EQ(got.has_value(), expected.has_value())
        << "n=" << n << " d=" << d << " seed=" << seed
        << " max_passes=" << max_passes << " serial=" << opts.serial;
    if (!expected) continue;
    EXPECT_EQ(got->offsets(), expected->offsets())
        << "n=" << n << " d=" << d << " seed=" << seed;
    EXPECT_EQ(got->targets(), expected->targets())
        << "n=" << n << " d=" << d << " seed=" << seed;
  }
}

TEST(RandomRegularReference, SameGraphOverSeedsAndSizes) {
  par::ThreadPool pool(4);
  // (64, 20) and (1000, 30) start with many defects and need several
  // repair passes; (2^15, 8) spans several sort chunks.
  const std::pair<std::uint32_t, std::uint32_t> sizes[] = {
      {10, 3},    {64, 20},  {100, 3},     {1000, 4},
      {1000, 30}, {4096, 6}, {1u << 15, 8},
  };
  for (const auto& [n, d] : sizes) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 17ULL, 0xDEADBEEFULL}) {
      expect_same_outcome(n, d, seed, 200, pool);
    }
  }
}

TEST(RandomRegularReference, SameOutcomeOnEverySmallDenseShape) {
  // Small dense pairings start with many defects whose keys also have
  // clean copies, so swaps often remove a key's clean copy while a defect
  // copy of it is still pending: the membership test must then say the
  // key is absent. Some shapes exhaust the repair budget.
  par::ThreadPool pool(4);
  for (std::uint32_t n = 12; n <= 40; ++n) {
    for (std::uint32_t d = 3; d + 3 <= n; ++d) {
      if (n * d % 2 != 0) continue;
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        expect_same_outcome(n, d, seed, 200, pool);
      }
    }
  }
}

TEST(RandomRegularReference, SameOutcomeWhenRepairBudgetRunsOut) {
  par::ThreadPool pool(4);
  // No passes at all: any defect is fatal, and n=64, d=20 always has some.
  EXPECT_THROW((void)reference::random_regular(64, 20, 1, 0),
               std::runtime_error);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    expect_same_outcome(64, 20, seed, 0, pool);
    expect_same_outcome(64, 20, seed, 1, pool);
    expect_same_outcome(64, 20, seed, 3, pool);
    expect_same_outcome(10, 9, seed, 200, pool);  // K_10 is the only one
  }
}

}  // namespace
}  // namespace cobra::gen
