#include "rng/xoshiro256.hpp"

#include <gtest/gtest.h>

#include <set>

namespace cobra::rng {
namespace {

TEST(Xoshiro256, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, SeedsSeparate) {
  Xoshiro256 a(1), b(2);
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Xoshiro256, ZeroSeedIsValid) {
  Xoshiro256 gen(0);
  const auto& s = gen.state();
  EXPECT_NE(s[0] | s[1] | s[2] | s[3], 0u);
  EXPECT_NE(gen(), gen());
}

TEST(Xoshiro256, NoShortCycle) {
  Xoshiro256 gen(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 20000; ++i) {
    EXPECT_TRUE(seen.insert(gen()).second) << "repeat at " << i;
  }
}

TEST(Xoshiro256, JumpDisjointStreams) {
  Xoshiro256 a(9);
  Xoshiro256 b = a;
  b.jump();
  // The jumped stream must not collide with the original over a long prefix.
  std::set<std::uint64_t> from_a;
  for (int i = 0; i < 10000; ++i) from_a.insert(a());
  int collisions = 0;
  for (int i = 0; i < 10000; ++i) {
    if (from_a.contains(b())) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Xoshiro256, EqualityComparesState) {
  Xoshiro256 a(4), b(4);
  EXPECT_EQ(a, b);
  (void)a();
  EXPECT_NE(a, b);
  (void)b();
  EXPECT_EQ(a, b);
}

TEST(Xoshiro256, BitBalance) {
  // Over many draws the average popcount should be close to 32.
  Xoshiro256 gen(77);
  std::int64_t bits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) bits += __builtin_popcountll(gen());
  const double mean = static_cast<double>(bits) / kDraws;
  EXPECT_NEAR(mean, 32.0, 0.1);
}

TEST(Xoshiro256, HighBitIsFair) {
  Xoshiro256 gen(31);
  int ones = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ones += static_cast<int>(gen() >> 63);
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.5, 0.01);
}

}  // namespace
}  // namespace cobra::rng
