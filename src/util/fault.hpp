#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file fault.hpp
/// Fault-injection registry — the failure-testing backbone of the
/// resilience layer, grown into a seedable chaos subsystem. Code that can
/// fail in production (allocation on the dense-frontier switch, graph
/// generation, bench child startup) declares a named *site*; tests, the
/// sweep driver, and the cobra_chaos fuzzer *arm* sites to fail, and the
/// site's `should_fail()` query tells the code to take its degradation
/// path exactly as a real failure would.
///
/// Design constraints, in priority order:
///
///   1. ZERO cost when disabled. Sites sit on hot paths (the frontier
///      engine's representation switch), so the disabled check is one
///      relaxed load of a global atomic flag that is false unless
///      something armed a fault — no string compare, no map lookup, no
///      lock. Arming is test/startup-time only and may be slow.
///   2. Deterministic. A site armed with `after = k` fails on its k-th
///      hit (0-based) and every later hit; a site armed with a firing
///      probability draws from a per-site xoshiro256++ stream seeded from
///      the plan seed, one draw per eligible hit IN HIT ORDER (under the
///      registry lock), so the SET of firing hit indices is a pure
///      function of (plan, seed) — reproducible regardless of which
///      threads produced the hits.
///   3. Thread-safe queries. Sites are hit from pool workers; the hit
///      counter is atomic and arming mutates the registry only under its
///      own lock (callers must not arm concurrently with queries of the
///      same test — the normal arm-then-run pattern).
///
/// Fault-plan grammar (one entry; comma-separate for lists):
///
///   site[@after][%prob][#limit]
///
///   @after   first eligible hit, 0-based (default 0: every hit eligible)
///   %prob    firing probability per eligible hit in [0, 1] (default 1:
///            deterministic); draws come from the plan-seeded stream
///   #limit   maximum number of firings, after which the site goes
///            dormant (default 0 = unlimited)
///
/// e.g. "gen.alloc@3,trace.write%0.25#2" — the 4th and later graph
/// allocations fail; each trace line is dropped with probability 1/4, at
/// most twice.
///
/// Arming paths:
///   * programmatic: `arm("frontier.dense_alloc", 2)` or
///     `arm_plan(FaultPlan::parse("a@1%0.5,b#3"), seed)` in a test;
///   * environment: `COBRA_FAULT="<plan>"` (+ optional `COBRA_FAULT_SEED`)
///     parsed by `arm_from_env()`, which benches call at startup — this is
///     how a *child process* of the sweep driver gets its faults armed
///     without new flags on every bench;
///   * file: `--fault-plan <path>` on any bench, parsed by
///     `arm_plan_file()` — entry lines plus an optional `seed=<N>` line,
///     `#`-prefixed lines are comments (the replay format cobra_chaos and
///     quarantined sweep cells print).
///
/// When the obs trace sink is armed, every firing is emitted as a
/// `{"fault": ...}` JSONL line (site, hit index, firing ordinal, engine
/// round) next to the per-round traces, so a chaotic run can be replayed
/// and post-mortemed from its artifacts.
///
/// Registered site names in this repo (grep for `fault::should_fail`),
/// with their contract class — GRACEFUL sites must degrade to a
/// bit-identical trajectory; HARD sites must fail loudly naming the site:
///
///   frontier.dense_alloc       GRACEFUL  dense-bitmap allocation in the
///                              frontier engine (degrades to sparse path)
///   frontier.worker_bits_alloc GRACEFUL  per-worker private bitmaps of a
///                              pool dense round (the round runs in-line
///                              as worker 0 into the output bitmap)
///   pool.thread_spawn          GRACEFUL  worker spawn in ThreadPool
///                              (pool comes up smaller, >= 1 worker;
///                              results are thread-count-invariant)
///   trace.write                GRACEFUL  trace-sink line write (line
///                              dropped + counted; telemetry never
///                              affects results)
///   gen.alloc                  HARD      graph-family allocation in
///                              build_graph (throws std::bad_alloc)
///   gen.build_graph            HARD      build_graph mid-build, after the
///                              family factory (throws, naming the site)
///   sweep.child_spawn          GRACEFUL  sweep child process launch (the
///                              attempt fails and rides retry/quarantine)
///   chaos.degrade_bug          TEST-ONLY a deliberately broken
///                              "degradation" in bench/chaos that corrupts
///                              the trajectory — exists so cobra_chaos can
///                              prove it catches contract violations
///   bench.crash                TEST-ONLY checked once at bench startup:
///                              the bench dies at once (exit 86, no --out);
///                              armed through COBRA_FAULT, which every
///                              cobra_sweep child inherits
///
/// bench.crash stays out of cobra_chaos's fuzz catalogs: it ends the
/// process on purpose, which no fuzzed run could survive.

namespace cobra::util::fault {

namespace detail {
/// The one-word disabled gate. Never set directly — arm/disarm own it.
extern std::atomic<bool> any_armed;
/// Engine round clock for the fault trace lines: FrontierEngine ticks it once per
/// expand while any fault is armed (zero cost otherwise).
extern std::atomic<std::uint64_t> round_clock;
}  // namespace detail

/// True when at least one site is armed — the cheap gate every site
/// checks first.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::any_armed.load(std::memory_order_relaxed);
}

/// One fault-plan entry (grammar above).
struct FaultSpec {
  std::string site;
  std::uint64_t after = 0;  ///< first eligible hit (0-based)
  double prob = 1.0;        ///< firing probability per eligible hit
  std::uint64_t limit = 0;  ///< max firings; 0 = unlimited

  /// Canonical spec text: site@after[%prob][#limit].
  [[nodiscard]] std::string render() const;
};

/// A parsed fault plan: the entries plus the seed for their probabilistic
/// streams. (plan, seed) fully determines the firing schedule.
struct FaultPlan {
  std::vector<FaultSpec> specs;
  std::uint64_t seed = 0;

  /// Parse a comma-separated entry list. Throws std::invalid_argument on
  /// any malformed entry, naming the offending token.
  static FaultPlan parse(std::string_view text);

  /// Canonical comma-joined spec text (parse(render()) round-trips).
  [[nodiscard]] std::string render() const;
};

/// Arm `site`: its `should_fail()` returns true from the `after`-th hit
/// (0-based) onward. Re-arming an armed site resets its hit counter.
void arm(std::string_view site, std::uint64_t after = 0);

/// Arm one spec entry; `seed` seeds its probabilistic stream (unused when
/// prob == 1). Re-arming resets hit/firing counters and the stream.
void arm_spec(const FaultSpec& spec, std::uint64_t seed = 0);

/// Arm every entry of `plan` under `plan.seed`; returns the count armed.
std::size_t arm_plan(const FaultPlan& plan);

/// Disarm every site and reset the round clock
/// (test teardown).
void disarm_all();

/// Slow path: count a hit against `site` and report whether it should
/// fail now. Only called when `enabled()`; unarmed sites never fail.
[[nodiscard]] bool should_fail_slow(std::string_view site) noexcept;

/// The site query: false (one relaxed load) unless some fault is armed.
[[nodiscard]] inline bool should_fail(std::string_view site) noexcept {
  return enabled() && should_fail_slow(site);
}

/// Hits recorded against `site` since it was (re-)armed; 0 when unarmed.
/// Observability for tests asserting a site was actually reached.
[[nodiscard]] std::uint64_t hits(std::string_view site) noexcept;

/// Firings recorded against `site` since it was (re-)armed; 0 when
/// unarmed. hits() counts queries, fired() counts should_fail() == true.
[[nodiscard]] std::uint64_t fired(std::string_view site) noexcept;

/// Parse `COBRA_FAULT` (the plan grammar) and arm each entry, seeding the
/// probabilistic streams from `COBRA_FAULT_SEED` (default 0). Returns the
/// number of sites armed (0 when unset/empty). Malformed entries are
/// skipped with a warning on stderr — a typo'd injection must not turn
/// into a silently fault-free run, so the warning names the dropped token.
std::size_t arm_from_env();

/// Arm a plan file (`--fault-plan`): entry lines (comma lists allowed),
/// optional `seed=<N>` line, `#` comments. Throws std::invalid_argument
/// on an unreadable file or malformed entry.
std::size_t arm_plan_file(const std::string& path);

/// Advance the engine round clock — the frontier engine calls
/// this once per expand when enabled() (never on the fault-free path).
inline void tick_round() noexcept {
  detail::round_clock.fetch_add(1, std::memory_order_relaxed);
}

/// The current round-clock value stamped into fault trace lines.
[[nodiscard]] inline std::uint64_t current_round() noexcept {
  return detail::round_clock.load(std::memory_order_relaxed);
}

}  // namespace cobra::util::fault
