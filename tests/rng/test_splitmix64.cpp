#include "rng/splitmix64.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace cobra::rng {
namespace {

TEST(SplitMix64, DeterministicSequence) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64_next(s1), splitmix64_next(s2));
  }
}

TEST(SplitMix64, SeedsSeparate) {
  std::uint64_t s1 = 1, s2 = 2;
  EXPECT_NE(splitmix64_next(s1), splitmix64_next(s2));
}

TEST(SplitMix64, NoShortCycle) {
  std::uint64_t s = 7;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(splitmix64_next(s)).second)
        << "repeat at step " << i;
  }
}

TEST(SplitMix64, MixIsStateless) {
  EXPECT_EQ(splitmix64_mix(123), splitmix64_mix(123));
  EXPECT_NE(splitmix64_mix(123), splitmix64_mix(124));
}

TEST(SplitMix64, MixAvalanche) {
  // Flipping one input bit should flip a substantial number of output bits.
  const std::uint64_t base = splitmix64_mix(0x12345678);
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t flipped = splitmix64_mix(0x12345678ULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(base ^ flipped);
  }
  // Ideal is 32 flips per bit = 2048 total; anything above 1600 is healthy.
  EXPECT_GT(total_flips, 1600);
}

TEST(DeriveSeed, GoldenValuesAreStable) {
  // derive_seed is load-bearing for every recorded artifact in this repo:
  // the trajectory ledger, fault-plan schedules, and chunked round streams
  // all assume (seed, stream) -> value never changes across releases. These
  // pins turn an accidental algorithm change into a test failure instead
  // of silently invalidated baselines.
  EXPECT_EQ(derive_seed(0, 0), 7861790605204899667ULL);
  EXPECT_EQ(derive_seed(42, 7), 15047290621913413292ULL);
  EXPECT_EQ(derive_seed(0x9E3779B97F4A7C15ULL, 1), 10108979375994036173ULL);
}

TEST(DeriveSeed, StreamsDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seeds.insert(derive_seed(99, i)).second) << "collision at " << i;
  }
}

TEST(DeriveSeed, BaseSeedsDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t b = 0; b < 1000; ++b) {
    EXPECT_TRUE(seeds.insert(derive_seed(b, 0)).second);
  }
}

TEST(DeriveSeed, AdjacentStreamsUncorrelated) {
  // Adjacent stream seeds must not share obvious bit structure.
  int identical_low_bits = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t a = derive_seed(5, i);
    const std::uint64_t b = derive_seed(5, i + 1);
    if ((a & 0xFFFF) == (b & 0xFFFF)) ++identical_low_bits;
  }
  EXPECT_LT(identical_low_bits, 5);
}

TEST(SplitMix64Engine, SatisfiesUrbg) {
  SplitMix64 gen(11);
  EXPECT_EQ(SplitMix64::min(), 0u);
  EXPECT_EQ(SplitMix64::max(), ~0ULL);
  const auto a = gen();
  const auto b = gen();
  EXPECT_NE(a, b);
}

TEST(SplitMix64Engine, StateAdvances) {
  SplitMix64 gen(3);
  const auto s0 = gen.state();
  (void)gen();
  EXPECT_NE(gen.state(), s0);
}

}  // namespace
}  // namespace cobra::rng
