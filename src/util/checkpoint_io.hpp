#pragma once

#include <cstdint>
#include <span>

/// \file checkpoint_io.hpp
/// util::fnv1a64, the byte fingerprint the trajectory and graph ledgers
/// and perfbench's run checks pin. The file keeps its name because
/// perfbench/src/checks.cpp includes it: a rename to a fingerprint name
/// has to change the benchmark in the same step.

namespace cobra::util {

/// FNV-1a 64-bit over `bytes`. Not cryptographic: it exists to tell
/// trajectories and graphs apart, and 64 bits of mixing is plenty for
/// that. Passing a previous result as `hash` chains the digest across
/// buffers (hash of A then B == hash of A ++ B), so a fingerprint can
/// cover many buffers without concatenating them.
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes,
    std::uint64_t hash = 0xcbf29ce484222325ULL) noexcept {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace cobra::util
