#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"  // COBRA_OBS_LEVEL / kLevel

/// \file trace.hpp
/// Per-round JSONL trace sink. When armed with `--trace <path>` (any
/// bench) the FrontierEngine appends one JSON line per expand() call:
///
///   {"trace": 1, "round": 12, "frontier": 4096, "produced": 11890,
///    "mode": "dense", "path": "parallel", "switch": "auto-grow",
///    "chunks": 32, "max_chunk": 201, "mean_chunk": 128.0,
///    "sample_s": 0.0009, "merge_s": 0.0002, "seconds": 0.0013}
///
///   trace      engine instance id (several engines can share one file —
///              replicate() trials, multi-process sweeps via O_APPEND)
///   round      0-based expand() count for that engine
///   frontier   |input frontier|
///   produced   |output frontier| (post-coalescing)
///   mode       representation used this round: "sparse" | "dense"
///   path       execution path: "serial" | "parallel"
///   switch     why the mode is what it is: "" (no change), "auto-grow",
///              "auto-shrink", "forced-sparse", "forced-dense",
///              "dense-alloc-fallback"
///   chunks     OCCUPIED vertex-id chunks (chunk_size granularity) the
///              input frontier spanned — the units the parallel path
///              spreads over workers, reported on both paths
///   max_chunk / mean_chunk
///              input-frontier occupancy of the fullest occupied chunk
///              and the mean — the load-imbalance proxy
///   sample_s   the chunk walk: sampling plus the sink writes
///   merge_s    the dedup merge: the dense rounds' OR of the per-worker
///              bitmaps (with popcount), or the sparse rounds' sort +
///              unique of the concatenated claim lists
///   seconds    expand() wall time (the two phases plus representation
///              choice, bitmap clear and materialization)
///
/// The disarmed cost is a single relaxed atomic load per expand() (the
/// same pattern as util::fault's global gate); at COBRA_OBS_LEVEL=0 the
/// gate is constexpr-false and every trace call folds away. Writing is
/// mutex-serialized per line, and lines are appended with one fwrite so
/// concurrent engines never interleave partial lines.

namespace cobra::obs {

/// One expand() observation; field meanings above.
struct RoundTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t round = 0;
  std::uint64_t frontier = 0;
  std::uint64_t produced = 0;
  const char* mode = "sparse";
  const char* path = "serial";
  const char* switch_reason = "";
  std::uint64_t chunks = 1;
  std::uint64_t max_chunk = 0;
  double mean_chunk = 0.0;
  double sample_s = 0.0;
  double merge_s = 0.0;
  double seconds = 0.0;
};

/// Wall-time measurement for the trace's `seconds` field. Clock reads are
/// the obs layer's business — engine code holds a Stopwatch instead of
/// touching std::chrono, so cobra_lint's D1-clock rule can keep every
/// clock out of src/core (timing is telemetry, never trajectory data).
class Stopwatch {
 public:
  void start() noexcept { t0_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_{};
};

namespace detail {
inline std::atomic<bool> trace_armed{false};
}

/// True when a trace file is open; ONE relaxed load on the hot path.
inline bool trace_enabled() noexcept {
  if constexpr (kLevel >= 1)
    return detail::trace_armed.load(std::memory_order_relaxed);
  else
    return false;
}

/// Open `path` (truncating) as the process-global trace sink; returns
/// false (with a stderr note) if the file cannot be opened. Arms
/// trace_enabled().
bool open_global_trace(const std::string& path);

/// Flush and close the sink; disarms trace_enabled(). Safe when not open.
void close_global_trace();

/// Append one JSONL line. Call sites must check trace_enabled() first —
/// everything expensive (occupancy scan, clock reads) belongs behind
/// that check, not in here.
void trace_round(const RoundTrace& t);

/// Append one fault-event JSONL line:
///
///   {"fault": "frontier.dense_alloc", "hit": 3, "fire": 1, "round": 12}
///
/// Emitted by util::fault on every firing when the sink is armed, so a
/// chaotic run's schedule is replayable from its trace artifact. This
/// writer deliberately BYPASSES the `trace.write` fault site — the fault
/// log must never be suppressed by the faults it is logging. Call sites
/// must check trace_enabled() first.
void trace_fault(std::string_view site, std::uint64_t hit,
                 std::uint64_t fire, std::uint64_t round);

/// Process-unique engine ids for the "trace" field, starting at 1.
std::uint64_t next_trace_id() noexcept;

}  // namespace cobra::obs
