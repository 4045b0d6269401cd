#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <utility>

#include "core/types.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "sim/checkpoint.hpp"
#include "sim/observers.hpp"
#include "sim/process.hpp"
#include "sim/stop.hpp"
#include "stats/summary.hpp"

/// \file runner.hpp
/// sim::Runner — THE step loop. Every experiment in the paper is "run a
/// process on a graph until a stopping condition, recording a statistic";
/// the Runner is that sentence as one reusable function:
///
///   core::CobraWalk walk(g, 0, 2);
///   sim::CoverStop cover;
///   const auto r = sim::Runner().run(walk, gen, cover);
///   // r.rounds = cover time, r.stopped = covered within budget
///
/// with observers riding along:
///
///   sim::GrowthCurve curve;
///   sim::FirstVisitTimes visits;
///   sim::Runner().run(walk, gen, cover, curve, visits);
///
/// Hooks are resolved structurally at compile time (if constexpr), so a
/// zero-observer run compiles to the bare while-step loop — measurement is
/// opt-in, never a tax. The stop rule receives each round before the
/// observers do.
///
/// Budget: every run carries a max-round budget (explicit, or
/// default_step_budget(p.n()) when constructed with 0) so a bugged stop
/// condition terminates instead of spinning; `stopped == false` means the
/// budget ran out (for a CoverStop run: not covered).
///
/// Replication: `sim::replicate` is the repetition + CI aggregation every
/// bench uses — `trials` independent trials on the global pool under the
/// par::monte_carlo determinism contract (trial i's engine is seeded
/// derive_seed(seed, i), bit-identical at any thread count), summarized to
/// a stats::Summary.

namespace cobra::sim {

/// Default round budget for an `n`-vertex process: 32 n^3 (the simple
/// random walk's worst-case Θ(n^3) cover time, padded), floored at 2^20 so
/// tiny graphs aren't budget-bound either, and saturating at UINT64_MAX
/// instead of wrapping, so a run that hits it signals a real bug, not
/// tight budgeting.
[[nodiscard]] std::uint64_t default_step_budget(std::uint32_t num_vertices);

/// Outcome of one run.
struct RunResult {
  std::uint64_t rounds = 0;  ///< steps taken in this run
  bool stopped = false;      ///< stop rule fired (false = budget exhausted)
};

/// Where and how often `Runner::run_snapshotting` persists progress.
/// `every = k` snapshots after rounds k, 2k, 3k, ...; 0 never snapshots
/// periodically (useful with `Runner::save_snapshot` for explicit saves).
struct SnapshotPolicy {
  std::string path;
  std::uint64_t every = 0;
};

class Runner {
 public:
  /// `max_rounds` = 0 derives the budget per run from the process size
  /// (default_step_budget), generous enough that hitting it signals
  /// a real bug or an impossible stop condition.
  constexpr Runner() = default;
  constexpr explicit Runner(std::uint64_t max_rounds)
      : max_rounds_(max_rounds) {}

  /// Drive `p` until `stop` fires or the budget runs out, feeding every
  /// round (including the initial state) to the stop rule and observers.
  /// `run` is const and keeps all mutable state in its arguments, so one
  /// Runner value is safely shared across pool workers.
  template <Process P, typename Stop, typename... Obs>
  RunResult run(P& p, core::Engine& gen, Stop&& stop, Obs&&... obs) const {
    start_hook(stop, p);
    (start_hook(obs, p), ...);
    return loop(p, gen, 0, SnapshotPolicy{}, stop, obs...);
  }

  /// `run` with periodic durable snapshots: after rounds `every`,
  /// 2*`every`, ... the full run state (process, engine, round count,
  /// stop/observer state) is written atomically to `policy.path`. A failed
  /// periodic snapshot warns on stderr and the run continues — losing a
  /// checkpoint must not kill the computation it protects; the previous
  /// snapshot on disk stays valid.
  template <typename P, typename Stop, typename... Obs>
    requires Checkpointable<P>
  RunResult run_snapshotting(P& p, core::Engine& gen,
                             const SnapshotPolicy& policy, Stop&& stop,
                             Obs&&... obs) const {
    start_hook(stop, p);
    (start_hook(obs, p), ...);
    return loop(p, gen, 0, policy, stop, obs...);
  }

  /// Continue a run from the snapshot at `policy.path`: restores `p`,
  /// `gen`, the round count, and stop/observer state, then resumes the
  /// step loop (still snapshotting per `policy`). `p` must be constructed
  /// with the same arguments as the snapshotted process, and the
  /// stop/observer pack must match the one that wrote the snapshot —
  /// leftover or missing payload bytes throw util::CheckpointError.
  /// The resumed trajectory is bit-identical to the uninterrupted run at
  /// any thread count (pinned by tests); the returned `rounds` counts the
  /// whole run, pre- and post-resume, and the budget applies to that
  /// total, so interrupting never extends a run's allowance.
  template <typename P, typename Stop, typename... Obs>
    requires Checkpointable<P>
  RunResult resume_from(P& p, core::Engine& gen, const SnapshotPolicy& policy,
                        Stop&& stop, Obs&&... obs) const {
    SnapshotInfo snap_info;
    const std::vector<std::uint8_t> payload =
        read_snapshot_file(policy.path, &snap_info);
    // A snapshot resumed under a different binary is legitimate (crash
    // recovery after a redeploy) but must never be silent: trajectory
    // equivalence is only guaranteed when the code is the same.
    const obs::Manifest& manifest = obs::current_manifest();
    if (snap_info.git_sha != manifest.git_sha ||
        snap_info.build_type != manifest.build_type) {
      std::fprintf(stderr,
                   "[runner] WARNING: snapshot '%s' was written by build "
                   "%s/%s but this binary is %s/%s — resumed trajectories "
                   "may diverge from the uninterrupted run\n",
                   policy.path.c_str(), snap_info.git_sha.c_str(),
                   snap_info.build_type.c_str(), manifest.git_sha.c_str(),
                   manifest.build_type.c_str());
    }
    util::CheckpointReader r(payload);
    p.restore_state(r);
    detail::restore_engine(r, gen);
    const std::uint64_t rounds_done = r.u64();
    restore_hook(stop, r, p);
    (restore_hook(obs, r, p), ...);
    if (!r.exhausted()) {
      throw util::CheckpointError(
          "snapshot has trailing bytes (stop/observer pack mismatch?)");
    }
    obs::count("sim.snapshots_restored");
    return loop(p, gen, rounds_done, policy, stop, obs...);
  }

  /// Explicitly snapshot a run's state to `path` (what the periodic hook
  /// calls; public so callers can save at their own boundaries). Throws
  /// util::CheckpointError on I/O failure or an armed checkpoint.write
  /// fault.
  template <typename P, typename Stop, typename... Obs>
    requires Checkpointable<P>
  static void save_snapshot(const P& p, const core::Engine& gen,
                            std::uint64_t rounds, const std::string& path,
                            const Stop& stop, const Obs&... obs) {
    util::CheckpointWriter w;
    p.save_state(w);
    detail::save_engine(w, gen);
    w.u64(rounds);
    save_hook(stop, w);
    (save_hook(obs, w), ...);
    write_snapshot_file(path, w.buffer());
  }

  [[nodiscard]] std::uint64_t max_rounds() const noexcept {
    return max_rounds_;
  }

 private:
  template <typename Hook, Process P>
  static void start_hook(Hook& h, const P& p) {
    if constexpr (requires { h.start(p); }) h.start(p);
  }
  template <typename Hook, Process P>
  static void observe_hook(Hook& h, const P& p) {
    if constexpr (requires { h.observe(p); }) h.observe(p);
  }
  /// Stop/observer serialization hooks, structural like start/observe.
  /// A hook without save/restore contributes zero bytes; on restore it
  /// falls back to `start(p)` so stateless hooks (Extinction, FixedRounds
  /// re-anchored below) come up initialized. save/restore must be paired
  /// per type or the payload misaligns — caught by the exhausted() check.
  template <typename Hook>
  static void save_hook(const Hook& h, util::CheckpointWriter& w) {
    if constexpr (requires { h.save_state(w); }) h.save_state(w);
  }
  template <typename Hook, Process P>
  static void restore_hook(Hook& h, util::CheckpointReader& r, const P& p) {
    if constexpr (requires { h.restore_state(r); }) {
      h.restore_state(r);
    } else {
      start_hook(h, p);
    }
  }

  /// THE step loop, shared by run/run_snapshotting/resume_from:
  /// `rounds_done` already on the clock, and periodic snapshotting when
  /// `policy.every` is set (only Checkpointable processes can snapshot;
  /// for the rest the block compiles away).
  template <Process P, typename Stop, typename... Obs>
  RunResult loop(P& p, core::Engine& gen, std::uint64_t rounds_done,
                 const SnapshotPolicy& policy, Stop& stop,
                 Obs&... obs) const {
    const std::uint64_t budget =
        max_rounds_ != 0
            ? max_rounds_
            : default_step_budget(static_cast<std::uint32_t>(p.n()));
    RunResult result;
    result.rounds = rounds_done;
    while (!stop.done(p)) {
      if (result.rounds >= budget) {  // stopped stays false
        record_run(result);
        return result;
      }
      p.step(gen);
      ++result.rounds;
      observe_hook(stop, p);
      (observe_hook(obs, p), ...);
      if constexpr (Checkpointable<P>) {
        if (policy.every != 0 && result.rounds % policy.every == 0) {
          try {
            save_snapshot(p, gen, result.rounds, policy.path, stop, obs...);
            obs::count("sim.snapshots_saved");
          } catch (const util::CheckpointError& e) {
            obs::count("sim.snapshot_failures");
            std::cerr << "[sim] WARNING: snapshot failed at round "
                      << result.rounds << ": " << e.what()
                      << " (run continues)\n";
          }
        }
      }
    }
    result.stopped = true;
    // Metrics land AFTER the loop (per run, not per round) so the loop
    // body stays the bare step loop the zero-observer contract promises.
    record_run(result);
    return result;
  }

  /// Per-run registry bumps — rounds driven, runs finished, stop-rule
  /// firings vs budget exhaustions. Called once per run, outside the loop.
  static void record_run(const RunResult& result) {
    obs::count("sim.runs");
    obs::count("sim.rounds", result.rounds);
    if (result.stopped) obs::count("sim.stops_fired");
  }

  std::uint64_t max_rounds_ = 0;
};

/// Run `trial` `trials` times on the global pool (deterministic seeding
/// per the monte_carlo contract) and summarize mean/CI/quantiles.
[[nodiscard]] stats::Summary replicate(
    std::uint32_t trials, std::uint64_t seed,
    const std::function<double(core::Engine&)>& trial);

/// One-shot: run to cover, default budget when `max_rounds` == 0.
template <Process P>
RunResult run_cover(P& p, core::Engine& gen, std::uint64_t max_rounds = 0) {
  CoverStop cover;
  return Runner(max_rounds).run(p, gen, cover);
}

/// One-shot: run until `target` is active, default budget when
/// `max_rounds` == 0.
template <Process P>
RunResult run_hit(P& p, core::Vertex target, core::Engine& gen,
                  std::uint64_t max_rounds = 0) {
  HitTarget hit(target);
  return Runner(max_rounds).run(p, gen, hit);
}

/// Construct a fresh `P` from `args` and run it to cover — the dominant
/// replicate-trial body across the benches, shared here so every bench
/// doesn't re-spell the same two-line lambda:
///
///   sim::replicate(trials, seed, [&](core::Engine& gen) {
///     return sim::cover_rounds<core::CobraWalk>(gen, g, 0, 2);
///   });
template <typename P, typename... Args>
  requires Process<P>
double cover_rounds(core::Engine& gen, Args&&... args) {
  P process(std::forward<Args>(args)...);
  return static_cast<double>(run_cover(process, gen).rounds);
}

/// Construct-and-run twin for hitting times (`target` first, then the
/// process's constructor arguments).
template <typename P, typename... Args>
  requires Process<P>
double hit_rounds(core::Engine& gen, core::Vertex target, Args&&... args) {
  P process(std::forward<Args>(args)...);
  return static_cast<double>(run_hit(process, target, gen).rounds);
}

/// Monte-Carlo estimate of h_max = max_{u,v} H(u, v) for the k-cobra walk
/// (§2, §5: Theorems 15 and 20 and the Matthews bound are phrased in it).
/// `pair_samples` == 0 sweeps all ordered pairs (only sane for small n);
/// otherwise that many uniformly random distinct pairs, each drawn from
/// `gen` right before its trials. Every pair is averaged over
/// `trials_per_pair` default-budget run_hit runs, all on `gen`.
struct HmaxEstimate {
  double hmax = 0.0;  ///< max over pairs of mean hitting time
  core::Vertex argmax_from = 0;
  core::Vertex argmax_to = 0;
  std::uint64_t pairs = 0;
  bool all_hit = true;  ///< false if any run exhausted its budget
};
[[nodiscard]] HmaxEstimate estimate_cobra_hmax(const core::Graph& g,
                                               std::uint32_t branching,
                                               core::Engine& gen,
                                               std::uint64_t pair_samples,
                                               std::uint32_t trials_per_pair);

}  // namespace cobra::sim
