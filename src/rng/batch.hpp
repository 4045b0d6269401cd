#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/fault.hpp"

/// \file batch.hpp
/// Batched RNG buffering: wrap an engine and refill a block of raw 64-bit
/// outputs at a time (ramping geometrically from a small first block up to
/// N), so a chunk that needs only a handful of draws never pays for N.
/// The frontier engine's default chunk RNG (`FrontierEngine::ChunkRng`) is
/// a `Batched` view: it is what lets a sampler hand `inner()` to code that
/// takes an `Engine&` (GeneralizedCobraWalk's branching schedules).
///
/// The buffer is not the fast path. On a serial dense cobra round the bare
/// xoshiro engine, kept in registers for the whole chunk, draws in about
/// half the time: through `Batched` every draw stores and reloads the
/// cursor and writes and reads back a buffer slot, and the cursor stays in
/// memory because the sink's bitmap stores may alias it. `CobraWalk`
/// therefore draws from the bare engine (EXPERIMENTS.md A6).
///
/// Ordering guarantee: `operator()` returns the underlying engine's outputs
/// in generation order, so `Batched<E>` is stream-equivalent to `E` — the
/// buffering is invisible to any consumer of the values. The one exception
/// is `inner()`, which hands out the wrapped engine directly for callers
/// that need an `Engine&` (e.g. user-supplied branching schedules): draws
/// from `inner()` skip ahead of any still-buffered values. That reordering
/// is deterministic (consumption order is fixed by the caller's code path),
/// each output is still used at most once, and the two consumers see
/// disjoint subsequences, so reproducibility and statistical quality are
/// both preserved.

namespace cobra::rng {

template <typename Engine, std::size_t N = 256>
class Batched {
 public:
  using result_type = std::uint64_t;

  static_assert(N >= 1, "Batched: block size must be positive");

  explicit Batched(Engine engine) noexcept : engine_(std::move(engine)) {}

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    if (pos_ == filled_) refill();
    return buffer_[pos_++];
  }

  /// Direct access to the wrapped engine (see the ordering caveat above).
  [[nodiscard]] Engine& inner() noexcept {
    if (owed_ != 0) finish_block();
    return engine_;
  }

  /// Raw values still buffered (exposed for tests).
  [[nodiscard]] std::size_t buffered() const noexcept { return filled_ - pos_; }

  /// Blocks drawn from the engine so far — the trace layer's "rng_blocks"
  /// field. Pure bookkeeping on the (already amortized) refill path; the
  /// value stream is untouched.
  [[nodiscard]] std::uint64_t refills() const noexcept { return refills_; }

 private:
  void refill() noexcept {
    // Geometric ramp-up: the first block is small so a consumer that only
    // needs a couple of draws (tiny frontier chunk, lone surviving walker)
    // doesn't pay for N; sustained consumers double up to the full block
    // and get the amortization. Any refill size keeps the stream
    // generation-ordered, so this is invisible to the values produced.
    // A degraded refill left part of its block undrawn: finish that block
    // before starting the next, so the ramp never sees the fault.
    std::size_t block = owed_;
    if (block == 0) {
      block = next_fill_;
      next_fill_ = std::min(N, block * 2);
    }
    // Fault site `rng.block_refill` (GRACEFUL): model a refill that cannot
    // get its full block (the future SIMD/device refill path can fail
    // partway) by degrading THIS refill to a single draw. The ordering
    // guarantee above makes the degradation invisible to the value
    // stream — only the block count changes. The rest of the block stays
    // owed, and inner() draws it before handing out the engine, so inner()
    // draws also land where they would after a full refill.
    std::size_t fill = block;
    if (util::fault::should_fail("rng.block_refill")) fill = 1;
    for (std::size_t i = 0; i < fill; ++i) buffer_[i] = engine_();
    filled_ = fill;
    pos_ = 0;
    owed_ = block - fill;
    ++refills_;
  }

  /// Draw the owed rest of a degraded block behind the values still
  /// buffered (it fits: a block is at most N and started at index 0).
  void finish_block() noexcept {
    for (std::size_t i = 0; i < owed_; ++i) buffer_[filled_ + i] = engine_();
    filled_ += owed_;
    owed_ = 0;
  }

  static constexpr std::size_t kInitialFill = N < 8 ? N : 8;

  Engine engine_;
  std::array<std::uint64_t, N> buffer_;  // filled before read; no zero-init
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;  // empty until first refill
  std::size_t next_fill_ = kInitialFill;
  std::size_t owed_ = 0;  // draws a degraded refill left undrawn
  std::uint64_t refills_ = 0;
};

}  // namespace cobra::rng
