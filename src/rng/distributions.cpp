#include "rng/distributions.hpp"

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace cobra::rng {

namespace {

// The concept must admit the library's full-range engines.
static_assert(Uint64Generator<SplitMix64>);
static_assert(Uint64Generator<Xoshiro256>);

}  // namespace

}  // namespace cobra::rng
