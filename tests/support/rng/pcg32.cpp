#include "rng/pcg32.hpp"

#include "rng/distributions.hpp"

namespace cobra::rng {

namespace {

// The full-range concept admits the widened engine and rejects the bare
// 32-bit one.
static_assert(Uint64Generator<Pcg32x64>);
static_assert(!Uint64Generator<Pcg32>,
              "bare Pcg32 must not satisfy the full-range concept");

// Streams must be independent: same seed on different streams diverges.
static_assert([] {
  Pcg32 a(5, 1), b(5, 2);
  return a() != b();
}(), "pcg32 streams do not separate");

// advance(k) must agree with stepping k times.
static_assert([] {
  Pcg32 a(99, 7), b(99, 7);
  for (int i = 0; i < 13; ++i) (void)a();
  b.advance(13);
  return a == b;
}(), "pcg32 advance() disagrees with sequential stepping");

}  // namespace

}  // namespace cobra::rng
