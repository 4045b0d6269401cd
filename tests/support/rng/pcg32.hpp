#pragma once

#include <cstdint>

/// \file pcg32.hpp
/// PCG32 (XSH-RR variant, 64-bit state / 32-bit output) — an alternative
/// engine with explicit multi-stream support. The cobra simulators run on
/// Xoshiro256; the tests use PCG32 to cross-check statistical results
/// under a structurally different generator (the classic "two-RNG"
/// hygiene test for Monte-Carlo code).
///
/// Reference: M.E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
/// Statistically Good Algorithms for Random Number Generation" (2014).

namespace cobra::rng {

class Pcg32 {
 public:
  using result_type = std::uint32_t;

  /// \param seed    initial state contribution
  /// \param stream  selects one of 2^63 independent sequences
  constexpr explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                           std::uint64_t stream = 0xda3e39cb94b95bdbULL) noexcept
      : state_(0), inc_((stream << 1) | 1ULL) {
    (*this)();
    state_ += seed;
    (*this)();
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0U; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
    const auto rot = static_cast<std::uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Advance the state by `delta` steps in O(log delta) time (Brown's
  /// jump-ahead via modular exponentiation of the LCG transition).
  constexpr void advance(std::uint64_t delta) noexcept {
    std::uint64_t cur_mult = kMultiplier;
    std::uint64_t cur_plus = inc_;
    std::uint64_t acc_mult = 1;
    std::uint64_t acc_plus = 0;
    while (delta > 0) {
      if ((delta & 1) != 0) {
        acc_mult *= cur_mult;
        acc_plus = acc_plus * cur_mult + cur_plus;
      }
      cur_plus = (cur_mult + 1) * cur_plus;
      cur_mult *= cur_mult;
      delta >>= 1;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  [[nodiscard]] constexpr std::uint64_t state() const noexcept { return state_; }
  [[nodiscard]] constexpr std::uint64_t stream() const noexcept { return inc_ >> 1; }

  friend constexpr bool operator==(const Pcg32&, const Pcg32&) = default;

 private:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  std::uint64_t state_;
  std::uint64_t inc_;  // must be odd; enforced by construction
};

/// Widens Pcg32 to a full-range 64-bit generator by concatenating two
/// consecutive 32-bit outputs. This is what makes PCG usable with the
/// full-range samplers in distributions.hpp.
class Pcg32x64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Pcg32x64(std::uint64_t seed = 0x853c49e6748fea9bULL,
                              std::uint64_t stream = 0xda3e39cb94b95bdbULL) noexcept
      : base_(seed, stream) {}

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0ULL; }

  constexpr result_type operator()() noexcept {
    const std::uint64_t hi = base_();
    const std::uint64_t lo = base_();
    return (hi << 32) | lo;
  }

  [[nodiscard]] constexpr Pcg32& base() noexcept { return base_; }

 private:
  Pcg32 base_;
};

}  // namespace cobra::rng
