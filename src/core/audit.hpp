#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"

/// \file audit.hpp
/// Runtime invariant auditor for the frontier engine. The engine's whole
/// value is a CONTRACT — canonical ascending duplicate-free frontiers,
/// bit-identical across thread counts and representations — and that
/// contract is what every downstream estimate (cover time, collision
/// probability) silently leans on. The auditor makes the contract
/// self-checking at runtime: when armed via `COBRA_AUDIT` (or
/// `set_level`), the engine samples expand() rounds and verifies, on the
/// round's actual output:
///
///   * canonical order  — sparse lists strictly ascending (implies dedup)
///     with every vertex inside [0, n);
///   * bitmap health    — dense bitmaps sized to exactly (n+63)/64 words,
///     popcount == the round's claimed count, tail bits beyond n clear;
///   * CSR health       — `Graph::validate()` once per engine on the
///     first audited round (graphs are immutable after build, so once is
///     a proof, and the O(m) cost is paid a single time).
///
/// Levels: 0 = off, 1 = sample every 16th round, 2 = every round. The
/// disarmed cost mirrors util::fault and obs::trace — ONE relaxed load
/// per expand(), nothing else.
///
/// A violation increments the obs counter `audit.violations` and then
/// fails STRUCTURED AND LOUD: a `[audit] INVARIANT VIOLATION` block on
/// stderr naming the check, then std::abort() — a frontier that broke
/// canonical form has already corrupted downstream statistics, so
/// continuing is worse than dying. Tests flip `set_throw_on_violation`
/// to turn the abort into a std::logic_error they can EXPECT_THROW on.

namespace cobra::core::audit {

namespace detail {
extern std::atomic<int> armed_level;
extern std::atomic<bool> throw_on_violation;
}  // namespace detail

/// The armed audit level (0 = off); one relaxed load.
[[nodiscard]] inline int level() noexcept {
  return detail::armed_level.load(std::memory_order_relaxed);
}

/// True when any auditing is armed — the engine's per-expand gate.
[[nodiscard]] inline bool enabled() noexcept { return level() > 0; }

/// Arm auditing at `level` (clamped to [0, 2]).
void set_level(int level) noexcept;

/// Parse `COBRA_AUDIT` (an integer level) and arm it; returns the armed
/// level (0 when unset). Malformed values warn on stderr and arm nothing.
int arm_from_env();

/// Should the `seq`-th audited-engine round (0-based) actually be
/// checked, under the current level's sampling policy?
[[nodiscard]] bool sample_round(std::uint64_t seq) noexcept;

/// Tests: report violations as std::logic_error instead of abort().
void set_throw_on_violation(bool enable) noexcept;

/// --- Pure checks (no global state; exposed for direct unit testing) ---

/// Strictly ascending (so duplicate-free), all vertices < n_vertices.
[[nodiscard]] bool check_canonical_list(std::span<const graph::Vertex> list,
                                        std::size_t n_vertices,
                                        std::string* why);

/// words holds exactly (n+63)/64 words, popcount sum == count, tail bits
/// beyond n_vertices clear.
[[nodiscard]] bool check_bitmap(std::span<const std::uint64_t> words,
                                std::size_t count, std::size_t n_vertices,
                                std::string* why);

/// Violation sink: bump `audit.violations`, then throw (test mode) or
/// print the structured block and abort.
[[noreturn]] void report_violation(const char* check, const std::string& why);

}  // namespace cobra::core::audit
