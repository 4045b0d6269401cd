#include "rng/batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"
#include "util/fault.hpp"

namespace cobra::rng {
namespace {

TEST(Batched, StreamEquivalentToWrappedEngine) {
  Xoshiro256 raw(42);
  Batched<Xoshiro256, 32> batched(Xoshiro256(42));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(batched(), raw()) << "draw " << i;
  }
}

TEST(Batched, SatisfiesUint64GeneratorConcept) {
  static_assert(Uint64Generator<Batched<Xoshiro256, 256>>);
  static_assert(Uint64Generator<Batched<Xoshiro256, 1>>);
  // uniform_below composes without bias over a batched view too.
  Xoshiro256 raw(7);
  Batched<Xoshiro256, 64> batched(Xoshiro256(7));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(uniform_below(batched, 10), uniform_below(raw, 10));
  }
}

TEST(Batched, RefillsRampGeometrically) {
  Batched<Xoshiro256, 16> batched(Xoshiro256(1));
  EXPECT_EQ(batched.buffered(), 0u);  // lazy: nothing drawn yet
  (void)batched();
  EXPECT_EQ(batched.buffered(), 7u);  // first block is small (8)
  for (int i = 0; i < 7; ++i) (void)batched();
  EXPECT_EQ(batched.buffered(), 0u);
  (void)batched();
  EXPECT_EQ(batched.buffered(), 15u);  // ramped to the full block
}

TEST(Batched, RefillFaultDegradesBlockSizeNotTheStream) {
  // The rng.block_refill site shrinks a refill to a single draw — a
  // GRACEFUL degradation: by the Batched ordering guarantee the VALUES
  // handed out are unchanged, only the refill cadence differs. This is
  // what makes the site safe to fuzz in cobra_chaos.
  util::fault::disarm_all();
  Xoshiro256 raw(23);
  Batched<Xoshiro256, 32> batched(Xoshiro256(23));
  util::fault::arm_spec(util::fault::FaultPlan::parse("rng.block_refill%0.5")
                            .specs[0],
                        /*seed=*/11);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(batched(), raw()) << "draw " << i;
  }
  EXPECT_GT(util::fault::fired("rng.block_refill"), 0u);
  EXPECT_GT(batched.refills(), 2000u / 32u);  // degraded refills happened
  util::fault::disarm_all();
}

TEST(Batched, RefillFaultKeepsInnerDrawsInPlace) {
  // A consumer mixing operator() and inner() draws sees the same values
  // with the refill site armed: a degraded refill owes the rest of its
  // block, and inner() draws it before handing out the engine.
  const auto mixed = [] {
    Batched<Xoshiro256, 32> batched(Xoshiro256(31));
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 500; ++i) {
      if (i % 7 == 3) out.push_back(batched.inner()());
      out.push_back(batched());
    }
    return out;
  };
  util::fault::disarm_all();
  const std::vector<std::uint64_t> reference = mixed();
  util::fault::arm_spec(util::fault::FaultPlan::parse("rng.block_refill%0.5")
                            .specs[0],
                        /*seed=*/17);
  const std::vector<std::uint64_t> degraded = mixed();
  EXPECT_GT(util::fault::fired("rng.block_refill"), 0u);
  util::fault::disarm_all();
  EXPECT_EQ(degraded, reference);
}

TEST(Batched, InnerAdvancesPastBuffer) {
  // inner() draws come from beyond the buffered block: deterministic, and
  // no value is handed out twice.
  Xoshiro256 reference(9);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 48; ++i) stream.push_back(reference());

  Batched<Xoshiro256, 16> batched(Xoshiro256(9));
  const std::uint64_t first = batched();      // buffers stream[0..7]
  EXPECT_EQ(first, stream[0]);
  const std::uint64_t inner_draw = batched.inner()();  // stream[8]
  EXPECT_EQ(inner_draw, stream[8]);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_EQ(batched(), stream[i]);
  // Next refill starts after the inner draw.
  EXPECT_EQ(batched(), stream[9]);
}

}  // namespace
}  // namespace cobra::rng
