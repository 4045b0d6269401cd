#pragma once

#include <array>
#include <cstdint>

#include "rng/splitmix64.hpp"

/// \file xoshiro256.hpp
/// xoshiro256++ — the library's default random engine. It is the
/// all-purpose generator recommended by Blackman & Vigna ("Scrambled linear
/// pseudorandom number generators", TOMS 2021): 256 bits of state, period
/// 2^256 - 1, excellent statistical quality, and ~1ns per output — the hot
/// loop of a cobra-walk step is dominated by memory traffic, not by this.
///
/// The engine satisfies the C++ UniformRandomBitGenerator requirements, so
/// it composes with <random> distributions, but the simulators use the
/// faster unbiased samplers in distributions.hpp.

namespace cobra::rng {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64, as
  /// the xoshiro authors prescribe (never seed the state directly: an
  /// all-zero state is a fixed point).
  constexpr explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advance 2^128 steps. Partitions the period into 2^128 non-overlapping
  /// subsequences; an alternative to derive_seed for long-lived streams.
  constexpr void jump() noexcept {
    constexpr std::array<std::uint64_t, 4> kJump = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::array<std::uint64_t, 4> acc{};
    for (const std::uint64_t word : kJump) {
      for (int bit = 0; bit < 64; ++bit) {
        if ((word & (1ULL << bit)) != 0) {
          for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
        }
        (*this)();
      }
    }
    state_ = acc;
  }

  /// Internal state, exposed for tests and the build-time checks in
  /// xoshiro256.cpp.
  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  friend constexpr bool operator==(const Xoshiro256&, const Xoshiro256&) = default;

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace cobra::rng
