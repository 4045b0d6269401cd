#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file metrics.hpp
/// The process-global metrics registry — named counters, gauges, and phase
/// timers that any layer (engine, runner, generators, fault registry)
/// bumps and that `--metrics <path>` snapshots into a JSON file next to
/// every bench's records.
///
/// Design constraints, in priority order:
///
///   1. NEVER perturb results. Metrics read wall clocks and bump atomics;
///      they must not touch any RNG stream. Collection on vs off yields
///      bit-identical trajectories (pinned by tests/obs/test_inert.cpp).
///   2. Cheap on hot paths. Instrumented call sites cache a reference
///      (`static obs::Counter& c = obs::registry().counter("x")`), so the
///      steady-state cost is one relaxed fetch_add; the by-name lookup
///      happens once. Timers accumulate into thread-striped, cache-line
///      padded slots so concurrent pool workers do not ping-pong one line.
///   3. Compile-out-able. Building with -DCOBRA_OBS_LEVEL=0 turns the
///      *instrumentation helpers* (obs::count / obs::set_gauge /
///      obs::ScopedTimer / the trace layer) into no-ops that fold away.
///      The primitive types themselves (Counter/Gauge/Timer/Registry)
///      stay functional at every level, because subsystems with semantic
///      counting needs (the fault registry's `after = k` arming) build on
///      them — telemetry disappears, behavior does not.
///
/// Registration is by name: `registry().counter("frontier.dense_fallbacks")`
/// returns a stable reference (entries live in deques and are never
/// removed), `snapshot()` reads everything, `reset()` zeroes values while
/// keeping registrations — so cached references stay valid across resets.

#ifndef COBRA_OBS_LEVEL
#define COBRA_OBS_LEVEL 1
#endif

namespace cobra::obs {

/// Compile-time instrumentation level (see file comment). 0 compiles the
/// helpers and the trace layer out; >= 1 enables them.
inline constexpr int kLevel = COBRA_OBS_LEVEL;

/// Monotonic event count (relaxed atomics; safe from pool workers).
class Counter {
 public:
  /// Add `d`, returning the PREVIOUS value (fetch_add semantics — the
  /// fault registry's "fail from the k-th hit" arming needs the old
  /// count atomically with the bump).
  std::uint64_t add(std::uint64_t d = 1) noexcept {
    return v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void set(std::uint64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value (e.g. "current frontier size", "bytes resident").
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Accumulated phase time. Workers land on one of kSlots cache-line
/// padded slots (hashed from the thread id), so N pool threads timing the
/// same phase do not serialize on a single line; totals are summed at
/// snapshot time.
class Timer {
 public:
  static constexpr std::size_t kSlots = 16;

  void add(std::uint64_t ns, std::uint64_t count = 1) noexcept;

  [[nodiscard]] std::uint64_t total_ns() const noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> count{0};
  };
  Slot slots_[kSlots];
};

/// One snapshot row; `value` is the counter value, gauge value, or the
/// timer's total seconds; `count` is nonzero for timers only.
struct Sample {
  std::string name;
  std::string kind;  ///< "counter" | "gauge" | "timer"
  double value = 0.0;
  std::uint64_t count = 0;
};

class Registry {
 public:
  /// By-name lookup-or-create; the returned reference is stable for the
  /// registry's lifetime (cache it at the call site).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Timer& timer(std::string_view name);

  /// Every registered metric, sorted by name (deterministic output).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// Zero every value; registrations (and cached references) survive.
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-global registry.
Registry& registry();

/// Render `registry().snapshot()` plus the run manifest as a standalone
/// JSON document — what `--metrics <path>` writes.
[[nodiscard]] std::string render_metrics_json();

/// Write render_metrics_json() to `path`; reports failure on stderr and
/// returns false instead of silently losing the snapshot.
bool write_metrics_json(const std::string& path);

// ---------------------------------------------------------- helpers -----
// The compiled-out-able instrumentation layer: call sites use these, and
// at COBRA_OBS_LEVEL=0 they fold to nothing.

/// Bump the named counter by `d` (by-name lookup: fine on cold paths;
/// hot paths cache `registry().counter(...)` themselves).
inline void count(std::string_view name, std::uint64_t d = 1) {
  if constexpr (kLevel >= 1) registry().counter(name).add(d);
}

inline void set_gauge(std::string_view name, double v) {
  if constexpr (kLevel >= 1) registry().gauge(name).set(v);
}

/// RAII phase timer: accumulates the scope's wall time into `t` on exit.
/// A no-op (no clock call) at COBRA_OBS_LEVEL=0.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& t) noexcept : t_(&t) {
    if constexpr (kLevel >= 1) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if constexpr (kLevel >= 1) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      t_->add(static_cast<std::uint64_t>(ns));
    }
  }

 private:
  Timer* t_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace cobra::obs
