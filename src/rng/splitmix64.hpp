#pragma once

#include <cstdint>

/// \file splitmix64.hpp
/// SplitMix64: a tiny, fast, well-distributed 64-bit PRNG used here for two
/// purposes: (1) seeding the larger xoshiro/PCG state from a single 64-bit
/// seed, and (2) deriving independent per-trial seeds for Monte-Carlo runs
/// (`derive_seed`), which keeps parallel trials reproducible regardless of
/// thread scheduling.
///
/// Reference: Steele, Lea, Flood. "Fast splittable pseudorandom number
/// generators", OOPSLA 2014. Constants are the standard Murmur3-derived
/// finalizer constants.

namespace cobra::rng {

/// One step of the splitmix64 sequence. Advances `state` by the golden-ratio
/// increment and returns a finalized 64-bit output.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mix: hash a single 64-bit value through the splitmix64
/// finalizer. Useful for turning (seed, index) pairs into stream seeds.
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64_next(s);
}

/// Derive the seed for sub-stream `stream_index` of a base seed. Two distinct
/// (base_seed, stream_index) pairs map to distinct, statistically independent
/// seeds with overwhelming probability. This is the sole seeding mechanism
/// used by the Monte-Carlo driver, making every trial reproducible.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t base_seed,
                                                  std::uint64_t stream_index) noexcept {
  // Feed the pair through two dependent rounds so that streams of adjacent
  // indices do not share low-bit structure.
  std::uint64_t s = base_seed ^ (0x9e3779b97f4a7c15ULL * (stream_index + 1));
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  return a ^ (b >> 1);
}

/// A minimal UniformRandomBitGenerator wrapper around splitmix64, usable
/// where a full engine is overkill (e.g. cheap tests).
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit SplitMix64(std::uint64_t seed = 0) noexcept : state_(seed) {}

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept { return splitmix64_next(state_); }

  /// Current internal state (tests read it).
  [[nodiscard]] constexpr std::uint64_t state() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

}  // namespace cobra::rng
