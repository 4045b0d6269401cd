#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

/// \file distributions.hpp
/// Unbiased, allocation-free sampling primitives used by every simulator
/// hot loop. The key routine is `uniform_below` (Lemire's nearly-divisionless
/// bounded sampling): choosing a uniform random neighbor is the single most
/// executed operation in a cobra walk, so it must be branch-light and free of
/// modulo bias — bias in neighbor choice would silently skew drift estimates
/// that the paper's theorems are about.

namespace cobra::rng {

/// Any engine producing uniformly distributed uint64 over the FULL 64-bit
/// range. The full-range requirement is load-bearing: `uniform_below` uses a
/// 128-bit multiply-shift that silently degenerates for narrower engines
/// (wrap a 32-bit engine to 64 bits first, as the tests' Pcg32x64 does).
template <typename G>
concept Uint64Generator = requires(G g) {
  { g() } -> std::convertible_to<std::uint64_t>;
  requires G::min() == 0;
  requires G::max() == std::numeric_limits<std::uint64_t>::max();
};

/// Uniform integer in [0, bound) with no modulo bias (Lemire 2018).
/// Precondition: bound >= 1.
template <Uint64Generator G>
[[nodiscard]] std::uint64_t uniform_below(G& gen, std::uint64_t bound) {
  // Fast path via 128-bit multiply; rejection only in the rare biased zone.
  // __int128 is a GCC/Clang extension; __extension__ keeps -Wpedantic quiet.
  __extension__ using u128 = unsigned __int128;
  std::uint64_t x = gen();
  u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = gen();
      m = static_cast<u128>(x) * static_cast<u128>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform integer in the closed interval [lo, hi]. Precondition: lo <= hi.
template <Uint64Generator G>
[[nodiscard]] std::uint64_t uniform_range(G& gen, std::uint64_t lo, std::uint64_t hi) {
  return lo + uniform_below(gen, hi - lo + 1);
}

/// Uniform double in [0, 1) with 53 bits of precision.
template <Uint64Generator G>
[[nodiscard]] double uniform_unit(G& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Bernoulli(p) trial. p outside [0,1] clamps to the nearer endpoint.
template <Uint64Generator G>
[[nodiscard]] bool bernoulli(G& gen, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_unit(gen) < p;
}

/// Fair coin using a single bit of entropy from the top of the word (the
/// highest bits of xoshiro256++/PCG output are the strongest).
template <Uint64Generator G>
[[nodiscard]] bool coin_flip(G& gen) {
  return (gen() >> 63) != 0;
}

/// Uniformly random element of a non-empty span.
template <Uint64Generator G, typename T>
[[nodiscard]] const T& pick(G& gen, std::span<const T> items) {
  return items[static_cast<std::size_t>(uniform_below(gen, items.size()))];
}

/// Geometric(p): number of failures before the first success, support {0,1,...}.
/// Sampled by inversion; p must lie in (0, 1]. A draw at or above 2^64 (only
/// reachable for a tiny p) saturates at UINT64_MAX.
template <Uint64Generator G>
[[nodiscard]] std::uint64_t geometric(G& gen, double p) {
  if (p >= 1.0) return 0;
  const double u = uniform_unit(gen);
  // inversion: floor(log(1-u) / log(1-p)); 1-u in (0,1] avoids log(0)
  const double failures = std::log1p(-u) / std::log1p(-p);
  return failures < 0x1p64 ? static_cast<std::uint64_t>(failures)
                           : std::numeric_limits<std::uint64_t>::max();
}

/// Standard exponential with rate lambda > 0.
template <Uint64Generator G>
[[nodiscard]] double exponential(G& gen, double lambda) {
  const double u = uniform_unit(gen);
  return -std::log1p(-u) / lambda;
}

/// Unordered pair {i, j}, i != j, uniform over all pairs from [0, n), n >= 2.
template <Uint64Generator G>
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> distinct_pair(G& gen,
                                                                    std::uint64_t n) {
  const std::uint64_t i = uniform_below(gen, n);
  std::uint64_t j = uniform_below(gen, n - 1);
  if (j >= i) ++j;
  return {i, j};
}

/// In-place Fisher–Yates shuffle.
template <Uint64Generator G, typename T>
void shuffle(G& gen, std::span<T> items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_below(gen, i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

/// Reservoir-sample k indices uniformly without replacement from [0, n)
/// into `out` (out.size() == k <= n). Order of the output is unspecified.
template <Uint64Generator G>
void sample_without_replacement(G& gen, std::uint64_t n, std::span<std::uint64_t> out) {
  const std::size_t k = out.size();
  for (std::size_t i = 0; i < k; ++i) out[i] = i;
  for (std::uint64_t i = k; i < n; ++i) {
    const std::uint64_t j = uniform_below(gen, i + 1);
    if (j < k) out[static_cast<std::size_t>(j)] = i;
  }
}

}  // namespace cobra::rng
