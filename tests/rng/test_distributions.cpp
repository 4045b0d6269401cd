#include "rng/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "rng/pcg32.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::rng {
namespace {

TEST(UniformBelow, AlwaysInRange) {
  Xoshiro256 gen(1);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(uniform_below(gen, bound), bound);
    }
  }
}

TEST(UniformBelow, BoundOneIsZero) {
  Xoshiro256 gen(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform_below(gen, 1), 0u);
}

TEST(UniformBelow, UniformOverSmallRange) {
  // Chi-square-style check over 10 buckets: each should be within 5% of
  // expected with 10^6 draws (sigma ~ 0.09%, so 5% is ~50 sigma of slack —
  // this catches gross bias, not subtle deviations).
  Xoshiro256 gen(3);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 1000000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[uniform_below(gen, kBuckets)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.05);
  }
}

TEST(UniformBelow, NoModuloBiasAtPowerBoundary) {
  // bound = 2^63 + 1 is the worst case for naive modulo; verify the
  // high/low halves are balanced.
  Xoshiro256 gen(4);
  const std::uint64_t bound = (1ULL << 63) + 1;
  int high = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (uniform_below(gen, bound) >= (bound / 2)) ++high;
  }
  EXPECT_NEAR(static_cast<double>(high) / kDraws, 0.5, 0.01);
}

TEST(UniformRange, InclusiveEndpoints) {
  Xoshiro256 gen(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = uniform_range(gen, 10, 12);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 12u);
    saw_lo |= (x == 10);
    saw_hi |= (x == 12);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(UniformUnit, InHalfOpenInterval) {
  Xoshiro256 gen(6);
  double min_seen = 1.0, max_seen = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = uniform_unit(gen);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    min_seen = std::min(min_seen, u);
    max_seen = std::max(max_seen, u);
  }
  EXPECT_LT(min_seen, 0.001);
  EXPECT_GT(max_seen, 0.999);
}

TEST(UniformUnit, MeanIsHalf) {
  Xoshiro256 gen(7);
  double total = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) total += uniform_unit(gen);
  EXPECT_NEAR(total / kDraws, 0.5, 0.005);
}

TEST(Bernoulli, EdgeCases) {
  Xoshiro256 gen(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(gen, 0.0));
    EXPECT_TRUE(bernoulli(gen, 1.0));
    EXPECT_FALSE(bernoulli(gen, -0.5));
    EXPECT_TRUE(bernoulli(gen, 1.5));
  }
}

TEST(Bernoulli, MatchesProbability) {
  Xoshiro256 gen(9);
  for (const double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) hits += bernoulli(gen, p);
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, p, 0.01) << "p = " << p;
  }
}

TEST(CoinFlip, Fair) {
  Xoshiro256 gen(10);
  int heads = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) heads += coin_flip(gen);
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.5, 0.01);
}

TEST(Pick, CoversAllElements) {
  Xoshiro256 gen(11);
  const std::vector<int> items{1, 2, 3, 4, 5};
  std::array<int, 6> counts{};
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<std::size_t>(pick(gen, std::span<const int>(items)))];
  }
  for (std::size_t v = 1; v <= 5; ++v) EXPECT_GT(counts[v], 1500);
}

TEST(Geometric, MeanMatches) {
  // E[Geometric(p)] = (1-p)/p for the failures-before-success convention.
  Xoshiro256 gen(12);
  for (const double p : {0.2, 0.5, 0.8}) {
    double total = 0.0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
      total += static_cast<double>(geometric(gen, p));
    }
    EXPECT_NEAR(total / kDraws, (1.0 - p) / p, 0.05) << "p = " << p;
  }
}

TEST(Geometric, POneIsZero) {
  Xoshiro256 gen(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(geometric(gen, 1.0), 0u);
}

TEST(Geometric, TinyPSaturatesInsteadOfOverflowing) {
  // For p = 1e-300 every inversion quotient is far above 2^64; the draw
  // saturates instead of overflowing the float-to-integer cast.
  Xoshiro256 gen(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(geometric(gen, 1e-300), std::numeric_limits<std::uint64_t>::max());
  }
}

TEST(Geometric, LargeDrawsBelowTheCapAreExact) {
  // p = 1e-12 draws ~1e12 failures: past 2^32, well below 2^64, and equal
  // to the unsaturated inversion of the same uniform.
  Xoshiro256 gen(15), twin(15);
  constexpr double p = 1e-12;
  for (int i = 0; i < 100; ++i) {
    const double u = uniform_unit(twin);
    const auto expected =
        static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
    EXPECT_EQ(geometric(gen, p), expected);
  }
}

TEST(Exponential, MeanMatches) {
  Xoshiro256 gen(14);
  for (const double lambda : {0.5, 1.0, 3.0}) {
    double total = 0.0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) total += exponential(gen, lambda);
    EXPECT_NEAR(total / kDraws, 1.0 / lambda, 0.03 / lambda) << lambda;
  }
}

TEST(DistinctPair, AlwaysDistinctAndUniform) {
  Xoshiro256 gen(15);
  constexpr std::uint64_t kN = 5;
  std::array<std::array<int, kN>, kN> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto [a, b] = distinct_pair(gen, kN);
    ASSERT_NE(a, b);
    ASSERT_LT(a, kN);
    ASSERT_LT(b, kN);
    ++counts[a][b];
  }
  // 20 ordered pairs, each expected kDraws/20 = 5000.
  for (std::uint64_t a = 0; a < kN; ++a) {
    for (std::uint64_t b = 0; b < kN; ++b) {
      if (a == b) continue;
      EXPECT_NEAR(counts[a][b], 5000, 400) << a << "," << b;
    }
  }
}

TEST(Shuffle, IsPermutation) {
  Xoshiro256 gen(16);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  const std::vector<int> original = v;
  shuffle(gen, std::span<int>(v));
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
  EXPECT_NE(v, original);  // 1/100! chance of false alarm
}

TEST(Shuffle, UniformFirstPosition) {
  Xoshiro256 gen(17);
  constexpr int kN = 6;
  std::array<int, kN> first_counts{};
  constexpr int kDraws = 60000;
  for (int d = 0; d < kDraws; ++d) {
    std::array<int, kN> v{};
    std::iota(v.begin(), v.end(), 0);
    shuffle(gen, std::span<int>(v));
    ++first_counts[static_cast<std::size_t>(v[0])];
  }
  for (const int c : first_counts) EXPECT_NEAR(c, kDraws / kN, 500);
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  Xoshiro256 gen(18);
  std::vector<std::uint64_t> out(10);
  sample_without_replacement(gen, 100, std::span<std::uint64_t>(out));
  std::sort(out.begin(), out.end());
  EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end());
  for (const auto x : out) EXPECT_LT(x, 100u);
}

TEST(SampleWithoutReplacement, FullRangeIsPermutation) {
  Xoshiro256 gen(19);
  std::vector<std::uint64_t> out(20);
  sample_without_replacement(gen, 20, std::span<std::uint64_t>(out));
  std::sort(out.begin(), out.end());
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(out[i], i);
}

TEST(SampleWithoutReplacement, MarginalsUniform) {
  Xoshiro256 gen(20);
  constexpr int kN = 10, kK = 3, kDraws = 100000;
  std::array<int, kN> counts{};
  std::vector<std::uint64_t> out(kK);
  for (int d = 0; d < kDraws; ++d) {
    sample_without_replacement(gen, kN, std::span<std::uint64_t>(out));
    for (const auto x : out) ++counts[x];
  }
  // Each element appears with probability k/n = 0.3.
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.3, 0.01);
  }
}

TEST(Samplers, WorkWithPcgAdapter) {
  Pcg32x64 gen(100, 200);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(uniform_below(gen, 17), 17u);
  }
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += coin_flip(gen);
  EXPECT_NEAR(heads / 10000.0, 0.5, 0.03);
}

}  // namespace
}  // namespace cobra::rng
