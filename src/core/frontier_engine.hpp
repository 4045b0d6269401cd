#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "core/audit.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/monte_carlo.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/batch.hpp"
#include "rng/splitmix64.hpp"
#include "util/fault.hpp"

/// \file frontier_engine.hpp
/// The shared frontier-expansion engine: executes one branching/coalescing
/// round of any frontier process (cobra walk, coalescing walks, gossip
/// push/pull, ...) with the per-vertex sampling work spread across the
/// thread pool. This is the library's hottest path — on expanders the
/// frontier grows to Θ(n) vertices in O(log n) rounds, so per-round work,
/// not per-trial work, is the unit of parallelism that matters (the same
/// altitude at which Ghaffari & Uitto's sparsified MPC rounds and parallel
/// greedy MIS operate).
///
/// One round driver (`run_round`) executes every round: for each active
/// vertex v it calls a per-vertex body `body(v, rng, sink)` and
/// deduplicates what the body emits. `expand` passes the client's sampler
/// as the body; `retain` — the removal round shrinking processes (greedy
/// MIS, LLL resampling) step — passes the filter `if (keep(v)) sink(v)`,
/// which draws no randomness, so a removal round is just an expand whose
/// offspring are its own survivors. The driver owns the whole round
/// skeleton once: the empty-frontier return, the fault round clock, the
/// step timer, the representation choice, the one output audit and the
/// trace line. The span overload of `expand` runs the same driver over a
/// scratch Frontier that borrows the caller's vector and materializes the
/// dense form into it.
///
/// Representations (the Beamer-style sparse/dense switch): a frontier is
/// either a SPARSE sorted vertex list or a DENSE bitmap over [0, n). The
/// engine picks per round from the frontier size — dense once
/// |frontier| * dense_alpha > n, back to sparse below half that entry
/// threshold (hysteresis, so a frontier hovering at the boundary does not
/// flap) — and the choice affects SPEED only, never results:
///
///   * sparse rounds dedup offspring against a per-vertex 32-bit epoch
///     stamp (one plain store serially, one compare_exchange in parallel)
///     and sort the claimed list;
///   * dense rounds dedup by setting bits with fetch_or on 64-bit bitmap
///     words — the output is a set materialized in ascending vertex order
///     by construction, so no sort, no ownership resolution, and ~1/32 of
///     the stamp path's dedup memory traffic.
///
/// Determinism contract (mirrors monte_carlo.hpp): a round's randomness is
/// a pure function of its `round_seed`. The VERTEX-ID SPACE [0, n) is split
/// into fixed ranges of `chunk_size` ids (rounded up to a multiple of 64 so
/// ranges align with bitmap words); the active vertices of range c are
/// visited in ascending id order drawing from an engine seeded
/// rng::derive_seed(round_seed, c). Because both representations walk the
/// same ranges in the same order, and both dedups produce the same set
/// materialized ascending, the produced frontier is bit-identical across
/// 1, 2, ... N threads, identical to the serial in-line path, AND identical
/// across the sparse and dense paths. (This is simpler than the previous
/// frontier-position chunking: ordering is canonical — ascending — rather
/// than "whatever the serial visit order was", so the parallel merge needs
/// no min-chunk CAS ownership protocol.) The one requirement this puts on
/// callers: a frontier passed as a raw span must be sorted ascending and
/// duplicate-free — which `expand` and `dedupe` outputs always are.
///
/// Epoch-wrap audit (the stamp idiom's one failure mode): advancing the
/// 32-bit epoch past 2^32 would alias stamps from 2^32 sparse rounds ago,
/// so the advance wipes the array on wrap (`advance_epoch`). Dense rounds
/// do not touch the stamps at all — their bitmap is cleared at round start
/// — so representation switches compose with the epoch scheme with no
/// extra invalidation. A round returns before touching any state when the
/// frontier is empty: an extinct process stepped in a loop burns neither
/// epochs nor bitmap clears.
///
/// Scheduling: one chunk walker serves every round. Pool rounds claim
/// chunks dynamically over a fixed set of workers
/// (par::parallel_for_chunks), each owning a reusable claim buffer and a
/// decode scratch — no per-chunk allocation in steady state. In-line
/// rounds run as worker 0 and walk a sparse input run by run, so a small
/// frontier never scans empty chunks. Claims go through one of two sinks
/// (stamp list or bitmap), each in a plain flavour for in-line rounds and
/// an atomic one for pool rounds (filter rounds, whose claims never
/// collide, stay plain); sinks are inlined lambdas, never an indirect call
/// per sample. The sampling loop software-prefetches the CSR
/// adjacency row a few vertices ahead (ascending visit order makes the
/// offsets stream sequential, so only the targets row needs the hint).

namespace cobra::core {

/// How `expand` chooses the round's representation.
enum class FrontierMode : std::uint8_t {
  Auto,         ///< size-based switch with hysteresis (the default)
  ForceSparse,  ///< always the stamp/list path (tests, tiny graphs)
  ForceDense,   ///< always the bitmap path (tests)
};

struct FrontierOptions {
  /// Vertex IDs per chunk (rounded up to a multiple of 64 internally).
  /// Fixed chunking (not pool-size-derived) is what makes results
  /// independent of the thread count; changing it changes the
  /// seed-to-stream assignment, i.e. the trajectories a seed produces.
  std::size_t chunk_size = 1024;
  /// Estimated samples (|frontier| * branching_hint) below which a round
  /// runs in-line on the calling thread: below it, pool hand-off costs
  /// more than the sampling itself.
  std::size_t parallel_threshold = 8192;
  /// Pool to spread chunks over; nullptr means par::global_pool().
  par::ThreadPool* pool = nullptr;
  /// Expected sink() calls per frontier vertex — the work estimate that
  /// parallel_threshold is compared against. Clients that know their
  /// branching factor set it (CobraWalk sets k); 1.0 is the conservative
  /// default (one sample per vertex, the gossip/coalescing case).
  double branching_hint = 1.0;
  /// Dense once |frontier| * dense_alpha > n; back to sparse below half
  /// that. The default is where the bitmap's O(n/64)-word fixed costs
  /// (clear + materialize scan) drop below the sparse path's sort of the
  /// claimed list. Values < 1 effectively disable the dense path.
  double dense_alpha = 256.0;
  /// Representation override for tests and experiments.
  FrontierMode mode = FrontierMode::Auto;
  /// Spread the dense rounds' O(n/64) fixed costs (bitmap clear,
  /// span-overload materialization) over the round's pool once the bitmap
  /// outgrows cache scale. Value-independent work, so this affects SPEED
  /// only, never results; off = the serial clear/decode (tests pin it to
  /// isolate the sampling path).
  bool parallel_dense_ops = true;
};

namespace detail {

/// Append the set bits of `words[first_word, last_word)` to `out` as
/// vertex ids, ascending — the one bitmap-decode idiom, shared by
/// Frontier materialization, chunk decoding, and the span-overload
/// output path.
inline void decode_bits(std::span<const std::uint64_t> words,
                        std::size_t first_word, std::size_t last_word,
                        std::vector<Vertex>& out) {
  for (std::size_t w = first_word; w < last_word; ++w) {
    std::uint64_t word = words[w];
    while (word != 0) {
      out.push_back(static_cast<Vertex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
}

}  // namespace detail

/// A frontier in either representation, owned by the process that steps
/// it. Sparse form is a sorted duplicate-free vertex list; dense form is a
/// bitmap over [0, n) plus a popcount. `vertices()` is always available —
/// after a dense round it materializes (and caches) the sorted list from
/// the bitmap in O(n/64 + size). `size()` is O(1) in both forms, so hot
/// loops that only need the count (benches, growth tracking) never pay for
/// materialization.
class Frontier {
 public:
  Frontier() = default;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// True when the bitmap is the authoritative representation.
  [[nodiscard]] bool dense() const noexcept { return dense_; }

  /// The frontier as a sorted, duplicate-free span. Materializes from the
  /// bitmap on first call after a dense round; cached until the engine
  /// next writes this frontier.
  [[nodiscard]] std::span<const Vertex> vertices() const {
    if (!list_valid_) {
      list_.clear();
      list_.reserve(count_);
      detail::decode_bits(bits_, 0, bits_.size(), list_);
      list_valid_ = true;
    }
    return list_;
  }

  /// Reset to the empty sparse frontier (storage retained).
  void clear() noexcept {
    list_.clear();
    list_valid_ = true;
    dense_ = false;
    count_ = 0;
  }

  void swap(Frontier& other) noexcept {
    list_.swap(other.list_);
    bits_.swap(other.bits_);
    std::swap(list_valid_, other.list_valid_);
    std::swap(dense_, other.dense_);
    std::swap(count_, other.count_);
  }

 private:
  friend class FrontierEngine;
  friend class FrontierView;

  mutable std::vector<Vertex> list_;  ///< sparse form / dense-form cache
  mutable bool list_valid_ = true;
  std::vector<std::uint64_t> bits_;  ///< dense form, (n + 63) / 64 words
  bool dense_ = false;
  std::size_t count_ = 0;
};

/// Non-owning view of a frontier in either representation — what the
/// engine's round driver walks. Sparse views require the span to be
/// sorted ascending and duplicate-free, i.e. strictly ascending (asserted
/// in debug builds).
class FrontierView {
 public:
  /* implicit */ FrontierView(std::span<const Vertex> sorted) noexcept
      : list_(sorted), count_(sorted.size()) {
    assert(std::adjacent_find(sorted.begin(), sorted.end(),
                              std::greater_equal<>()) == sorted.end());
  }

  FrontierView(std::span<const std::uint64_t> words, std::size_t count) noexcept
      : words_(words), count_(count), dense_(true) {}

  /// View of `f` in its cheapest walkable form: the cached list when one
  /// is valid (no decode needed), the bitmap otherwise.
  explicit FrontierView(const Frontier& f) noexcept {
    if (f.dense_ && !f.list_valid_) {
      words_ = f.bits_;
      dense_ = true;
    } else {
      list_ = f.list_;
    }
    count_ = f.count_;
  }

  [[nodiscard]] bool dense() const noexcept { return dense_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::span<const Vertex> list() const noexcept { return list_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

 private:
  std::span<const Vertex> list_;
  std::span<const std::uint64_t> words_;
  std::size_t count_ = 0;
  bool dense_ = false;
};

/// Uniform neighbor selection with a regular-degree fast path. When the
/// graph is regular with a power-of-two degree d >= 2, Lemire's bounded
/// sampler degenerates to a shift (2^64 mod d == 0, so the rejection zone
/// is empty and m >> 64 == x >> (64 - log2 d)); precomputing that shift
/// replaces the 128-bit multiply with a mask-like single shift, and the
/// result is bit-identical to the generic path.
class NeighborSampler {
 public:
  NeighborSampler() = default;

  explicit NeighborSampler(const Graph& g) {
    if (g.num_vertices() == 0 || !g.is_regular()) return;
    const std::uint32_t degree = g.degree(0);
    if (degree >= 2 && std::has_single_bit(degree)) {
      shift_ = static_cast<int>(64 - std::bit_width(degree) + 1);  // 64 - log2(degree)
    }
  }

  template <rng::Uint64Generator G>
  [[nodiscard]] Vertex operator()(std::span<const Vertex> neighbors,
                                  G& gen) const {
    if (shift_ != 0) {
      return neighbors[static_cast<std::size_t>(gen() >> shift_)];
    }
    return neighbors[static_cast<std::size_t>(
        rng::uniform_below(gen, neighbors.size()))];
  }

  /// True when the shift fast path is armed (exposed for tests).
  [[nodiscard]] bool fast_path() const noexcept { return shift_ != 0; }

 private:
  int shift_ = 0;  // 0 = generic Lemire path
};

class FrontierEngine {
 public:
  /// The RNG handed to samplers: a block-buffered xoshiro (rng/batch.hpp).
  using ChunkRng = rng::Batched<Engine, 256>;

  explicit FrontierEngine(const Graph& g, FrontierOptions opts = {});

  /// Expand one round: for every frontier vertex v (ascending order within
  /// each vertex-range chunk), invoke `sampler(v, rng, sink)`, which must
  /// call `sink(u)` once per offspring vertex u. `next` receives the
  /// deduplicated offspring in the representation the round's mode picked;
  /// `frontier` and `next` must be distinct objects. `sampler` is shared
  /// across worker threads — it must be const-callable and must not mutate
  /// shared state without synchronization.
  template <typename Sampler>
  void expand(const Frontier& frontier, Frontier& next,
              std::uint64_t round_seed, const Sampler& sampler) {
    assert(&frontier != &next);
    run_round</*kFilter=*/false>(FrontierView(frontier), next, round_seed,
                                 sampler, /*materialize=*/false);
  }

  /// Span-in / vector-out variant for processes that maintain their own
  /// lists (gossip). `frontier` must be sorted ascending and duplicate-free
  /// (all engine outputs are); `next` receives the deduplicated offspring
  /// sorted ascending (cleared first), materialized even after dense
  /// rounds (via the engine's scratch bitmap).
  template <typename Sampler>
  void expand(std::span<const Vertex> frontier, std::vector<Vertex>& next,
              std::uint64_t round_seed, const Sampler& sampler) {
    // A scratch Frontier borrows the caller's vector as its list and the
    // engine's scratch bitmap as its dense form; the driver materializes
    // dense rounds into the list, so both forms hold the round's output.
    Frontier out;
    out.list_.swap(next);
    out.bits_.swap(scratch_bits_);
    run_round</*kFilter=*/false>(FrontierView(frontier), out, round_seed,
                                 sampler, /*materialize=*/true);
    out.list_.swap(next);
    out.bits_.swap(scratch_bits_);
  }

  /// Filter one round: `next` receives exactly the frontier vertices v with
  /// keep(v) true, in the representation the round's mode picked. This is
  /// the remove-from-frontier round that shrinking processes (greedy MIS,
  /// LLL resampling) step — an expand whose body emits v when v survives.
  /// It draws no RNG at all, so the output is a pure function of
  /// (frontier, keep) regardless of thread count or representation. `keep`
  /// is shared across worker threads — it must be const-callable on
  /// concurrent vertices.
  template <typename Pred>
  void retain(const Frontier& frontier, Frontier& next, const Pred& keep) {
    assert(&frontier != &next);
    run_round</*kFilter=*/true>(
        FrontierView(frontier), next, /*round_seed=*/0,
        [&keep](Vertex v, ChunkRng& /*rng*/, const auto& sink) {
          if (keep(v)) sink(v);
        },
        /*materialize=*/false);
  }

  /// Serial dedup of `in` into `out` (reset paths): keeps the first
  /// occurrence of each vertex, preserving order. Shares the stamp array,
  /// so it composes with expand rounds.
  void dedupe(std::span<const Vertex> in, std::vector<Vertex>& out);

  /// Dedup `in` into a canonical (sorted ascending) sparse frontier — the
  /// reset path of every engine client.
  void dedupe(std::span<const Vertex> in, Frontier& out);

  [[nodiscard]] const Graph& graph() const noexcept { return *g_; }

  /// Mutable knobs — tests pin chunk_size / threshold / pool explicitly.
  [[nodiscard]] FrontierOptions& options() noexcept { return opts_; }

  /// How many rounds took each execution path (observability).
  [[nodiscard]] std::uint64_t parallel_rounds() const noexcept {
    return parallel_rounds_;
  }
  [[nodiscard]] std::uint64_t serial_rounds() const noexcept {
    return serial_rounds_;
  }

  /// How many rounds ran each representation, and how often the
  /// representation changed between consecutive rounds (the benches record
  /// all three next to their timings).
  [[nodiscard]] std::uint64_t dense_rounds() const noexcept {
    return dense_rounds_;
  }
  [[nodiscard]] std::uint64_t sparse_rounds() const noexcept {
    return sparse_rounds_;
  }
  [[nodiscard]] std::uint64_t switches() const noexcept { return switches_; }

  /// Rounds that wanted the dense bitmap but could not get its storage
  /// (allocation failure, or the "frontier.dense_alloc" fault site) and
  /// ran sparse instead. The dense path is an optimization, so memory
  /// pressure degrades throughput, never correctness — the sparse round
  /// produces the identical frontier. Retried per round: the next round
  /// re-attempts dense as usual.
  [[nodiscard]] std::uint64_t dense_fallbacks() const noexcept {
    return dense_fallbacks_;
  }

  /// Set the dedup epoch counter directly — ONLY for tests exercising the
  /// 32-bit wrap path (e.g. a resumed run crossing the wrap) without
  /// stepping 2^32 sparse rounds first.
  void set_epoch_for_testing(std::uint32_t epoch) noexcept { epoch_ = epoch; }

  /// Total sink() invocations of the most recent round — i.e. the
  /// offspring emitted before dedup (for a retain round, the survivors).
  /// Counted per worker and summed at the end (no shared atomic in the
  /// sampling loop), so callers whose per-vertex emission count is
  /// data-dependent (random branching schedules) read their work measure
  /// here instead of maintaining a contended counter inside the sampler.
  [[nodiscard]] std::uint64_t last_emitted() const noexcept {
    return last_emitted_;
  }

  /// Why the most recent round's representation is what it is: "" when the
  /// mode simply carried over, else one of "auto-grow", "auto-shrink",
  /// "forced-sparse", "forced-dense", "dense-alloc-fallback" — the trace
  /// sink's "switch" field.
  [[nodiscard]] const char* last_switch_reason() const noexcept {
    return last_switch_reason_;
  }

  /// Batched-RNG blocks drawn during the most recent round (summed over
  /// chunks) — the trace sink's "rng_blocks" field.
  [[nodiscard]] std::uint64_t last_rng_blocks() const noexcept {
    return last_rng_blocks_;
  }

 private:
  /// Reusable per-worker round state (sized once, reset per round).
  struct WorkerSlot {
    std::vector<Vertex> claims;  ///< sparse-round claims
    std::vector<Vertex> decode;  ///< dense-input chunk decode
    std::uint64_t emitted = 0;
    std::uint64_t claimed = 0;  ///< dense-round newly set bits
    std::uint64_t blocks = 0;   ///< RNG refills
  };

  /// What a sink counts over one chunk — locals, so the sampling loop
  /// keeps them in registers; folded into the worker's slot per chunk.
  struct Tally {
    std::uint64_t emitted = 0;
    std::uint64_t claimed = 0;
  };

  /// Advance the epoch, wiping stamps on 32-bit wrap (the aliasing guard).
  std::uint32_t advance_epoch();

  /// Pick the round's representation: the size/hysteresis policy
  /// (want_dense), then a guarded grab of the bitmap storage — a failed
  /// grab (bad_alloc or the "frontier.dense_alloc" fault site) demotes the
  /// round to sparse instead of propagating. Updates the mode counters for
  /// the representation the round will ACTUALLY run.
  bool choose_dense(std::size_t frontier_size,
                    std::vector<std::uint64_t>& dense_bits);

  /// The size/hysteresis policy alone (no side effects).
  [[nodiscard]] bool want_dense(std::size_t frontier_size) const;

  /// Record the round's representation (hysteresis memory + counters).
  bool commit_mode(bool dense);

  /// Ensure `bits` can hold num_words() words; false on failure.
  bool acquire_dense_words(std::vector<std::uint64_t>& bits);

  /// The pool to use for a round of `work` estimated samples, or nullptr
  /// for the in-line path.
  [[nodiscard]] par::ThreadPool* pick_pool(std::size_t frontier_size) const;

  [[nodiscard]] std::size_t chunk_span() const noexcept {
    const std::size_t raw = opts_.chunk_size > 0 ? opts_.chunk_size : 1;
    return (raw + 63) / 64 * 64;  // word-aligned vertex ranges
  }

  [[nodiscard]] std::size_t num_words() const noexcept {
    return (static_cast<std::size_t>(g_->num_vertices()) + 63) / 64;
  }

  /// Size the worker slots to `workers` and reset them for a round.
  void reset_workers(std::size_t workers);

  /// Zero `bits` (sized to num_words()) — in parallel over `pool` once the
  /// bitmap outgrows cache scale (the dense rounds' fixed O(n/64) cost the
  /// ROADMAP called out), serially below that or with parallel_dense_ops
  /// off.
  void clear_words(std::vector<std::uint64_t>& bits, par::ThreadPool* pool);

  /// Decode `words` (holding `count` set bits) into `out` ascending — the
  /// span overload's output path. Parallel two-pass (per-range popcount,
  /// prefix offsets, in-place range decode) on large bitmaps; identical
  /// output to the serial decode by construction.
  void materialize_bits(std::span<const std::uint64_t> words,
                        std::size_t count, std::vector<Vertex>& out);

  /// Active vertices of vertex-range chunk c, ascending. Sparse views
  /// return a subspan located by binary search; dense views decode the
  /// chunk's words into `scratch`.
  [[nodiscard]] std::span<const Vertex> chunk_vertices(
      const FrontierView& in, std::size_t span, std::size_t c,
      std::vector<Vertex>& scratch) const;

  /// Read-only load-imbalance scan for the trace sink: how many vertex
  /// chunks hold active vertices and how full the fullest is. O(|frontier|)
  /// sparse / O(n/64) dense — run ONLY on traced rounds.
  void occupancy_stats(const FrontierView& in, std::size_t span,
                       std::uint64_t& chunks, std::uint64_t& max_occ) const;

  /// Append the finished round to the global trace sink (the driver gates
  /// on obs::trace_enabled() so untraced rounds pay one relaxed load).
  void emit_trace(const FrontierView& in, std::size_t produced, bool dense,
                  const obs::Stopwatch& watch);

  /// Invariant audit of a finished round's output (the driver gates on
  /// audit::enabled(), the one relaxed load). Sampling policy and the
  /// checks themselves live in core/audit.*; this adapter hands them the
  /// engine's private state (stamps, epoch). Every round — expand or
  /// retain — claims its output through the same sinks, so one check set
  /// covers all of them: bitmap health for dense output, stamps for
  /// sparse output, canonical order for any materialized list.
  void audit_round(const Frontier& next);
  void audit_graph_once();

  /// THE round: runs `body` over `in` and publishes the deduplicated
  /// output into `next` (cleared first) in the representation the mode
  /// picks; `materialize` also decodes a dense output into `next`'s list
  /// (the span overload's output). `kFilter` marks a body that emits only
  /// its own vertex and reads no adjacency: such a round is billed to
  /// "frontier.retain" instead of "frontier.step", skips the CSR prefetch,
  /// and its claims never collide — a chunk's vertices, stamps and
  /// (word-aligned) bitmap words belong to the one worker that walks it —
  /// so it keeps the plain sinks on the pool too.
  template <bool kFilter, typename Body>
  void run_round(const FrontierView& in, Frontier& next,
                 std::uint64_t round_seed, const Body& body,
                 bool materialize);

  /// The chunk walker: visit every chunk with active vertices in
  /// ascending order, seeding chunk c's RNG from derive_seed(round_seed,
  /// c), with the sink `make_sink(w, atomic, tally)` builds for worker w.
  /// In-line rounds run as worker 0 with `atomic` = std::false_type (plain
  /// sinks); pool rounds pass std::true_type unless `kFilter`. Expand
  /// bodies get the CSR row prefetched a few vertices ahead. Leaves the
  /// per-worker tallies in `workers_`.
  template <bool kFilter, typename Body, typename MakeSink>
  void walk_chunks(const FrontierView& in, std::uint64_t round_seed,
                   par::ThreadPool* pool, const Body& body,
                   const MakeSink& make_sink);

  const Graph* g_;
  FrontierOptions opts_;
  std::vector<std::uint32_t> stamp_;  ///< per-vertex epoch of last claim
  std::uint32_t epoch_ = 0;
  bool last_dense_ = false;  ///< hysteresis memory
  bool have_mode_ = false;   ///< false until the first non-empty round
  std::vector<std::uint64_t> scratch_bits_;  ///< span-overload dense output
  std::vector<WorkerSlot> workers_;
  std::uint64_t parallel_rounds_ = 0;
  std::uint64_t serial_rounds_ = 0;
  std::uint64_t dense_rounds_ = 0;
  std::uint64_t sparse_rounds_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t dense_fallbacks_ = 0;
  std::uint64_t last_emitted_ = 0;
  std::uint64_t last_rng_blocks_ = 0;
  const char* last_switch_reason_ = "";
  bool last_parallel_ = false;     ///< the trace sink's "path" field
  std::uint64_t trace_id_ = 0;     ///< lazily drawn on first traced round
  std::uint64_t audit_seq_ = 0;    ///< audited-round ordinal (sampling)
  bool audit_graph_checked_ = false;  ///< CSR validated once per engine
};

template <bool kFilter, typename Body, typename MakeSink>
void FrontierEngine::walk_chunks(const FrontierView& in,
                                 std::uint64_t round_seed,
                                 par::ThreadPool* pool, const Body& body,
                                 const MakeSink& make_sink) {
  const std::size_t span = chunk_span();
  const std::size_t n_chunks =
      (static_cast<std::size_t>(g_->num_vertices()) + span - 1) / span;
  [[maybe_unused]] const auto& offsets = g_->offsets();
  [[maybe_unused]] const Vertex* targets = g_->targets().data();
  const auto run_chunk = [&](std::size_t w, std::size_t c,
                             std::span<const Vertex> vs, auto atomic) {
    Tally tally;
    const auto sink = make_sink(w, atomic, tally);
    ChunkRng rng(Engine(rng::derive_seed(round_seed, c)));
    for (std::size_t i = 0; i < vs.size(); ++i) {
#if defined(__GNUC__) || defined(__clang__)
      // Ascending visits stream the offsets; only the targets row needs
      // the hint.
      constexpr std::size_t kLookahead = 8;
      if (!kFilter && i + kLookahead < vs.size()) {
        __builtin_prefetch(targets + offsets[vs[i + kLookahead]]);
      }
#endif
      body(vs[i], rng, sink);
    }
    WorkerSlot& slot = workers_[w];
    slot.emitted += tally.emitted;
    slot.claimed += tally.claimed;
    slot.blocks += rng.refills();
  };

  if (pool == nullptr || n_chunks <= 1) {
    ++serial_rounds_;
    last_parallel_ = false;
    reset_workers(1);
    if (!in.dense()) {
      // Run by run over the sorted list: no scan over empty chunks — a
      // 24-vertex ring frontier touches 1-2 chunks, not n/span.
      const auto list = in.list();
      std::size_t i = 0;
      while (i < list.size()) {
        const std::size_t c = list[i] / span;
        const auto limit = static_cast<Vertex>(
            std::min<std::uint64_t>((c + 1) * span, g_->num_vertices()));
        const auto end = static_cast<std::size_t>(
            std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(i),
                             list.end(), limit) -
            list.begin());
        run_chunk(0, c, list.subspan(i, end - i), std::false_type{});
        i = end;
      }
    } else {
      for (std::size_t c = 0; c < n_chunks; ++c) {
        const auto vs = chunk_vertices(in, span, c, workers_[0].decode);
        if (!vs.empty()) run_chunk(0, c, vs, std::false_type{});
      }
    }
  } else {
    ++parallel_rounds_;
    last_parallel_ = true;
    const std::size_t workers = std::min(pool->size(), n_chunks);
    reset_workers(workers);
    par::parallel_for_chunks(
        *pool, n_chunks, workers, [&](std::size_t w, std::size_t c) {
          const auto vs = chunk_vertices(in, span, c, workers_[w].decode);
          if (!vs.empty()) run_chunk(w, c, vs, std::bool_constant<!kFilter>{});
        });
  }
  last_emitted_ = 0;
  last_rng_blocks_ = 0;
  for (const WorkerSlot& slot : workers_) {
    last_emitted_ += slot.emitted;
    last_rng_blocks_ += slot.blocks;
  }
}

template <bool kFilter, typename Body>
void FrontierEngine::run_round(const FrontierView& in, Frontier& next,
                               std::uint64_t round_seed, const Body& body,
                               bool materialize) {
  next.clear();
  last_emitted_ = 0;
  if (in.size() == 0) return;  // no epoch/bitmap burn for extinct processes

  // Advance the chaos round clock (event-log context for fault firings).
  // Gated on the fault registry's relaxed load — free in fault-free runs.
  if (util::fault::enabled()) util::fault::tick_round();

#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& step_timer = obs::registry().timer("frontier.step");
  static obs::Timer& retain_timer = obs::registry().timer("frontier.retain");
  obs::ScopedTimer timed(kFilter ? retain_timer : step_timer);
#endif
  // One relaxed load when untraced; everything trace-priced (occupancy
  // scan, clock reads) stays behind it. Telemetry reads state only — the
  // produced frontier is bit-identical traced or not.
  const bool traced = obs::trace_enabled();
  obs::Stopwatch watch;
  if (traced) watch.start();

  const bool dense = choose_dense(in.size(), next.bits_);
  par::ThreadPool* pool = pick_pool(in.size());
  if (dense) {
    clear_words(next.bits_, pool);  // the round's one O(n/64) clear
    std::uint64_t* bits = next.bits_.data();  // after the clear: may realloc
    walk_chunks<kFilter>(
        in, round_seed, pool, body,
        [bits](std::size_t, auto atomic, Tally& tally) {
          return [bits, &tally](Vertex u) {
            ++tally.emitted;
            const std::uint64_t bit = 1ULL << (u & 63);
            if constexpr (decltype(atomic)::value) {
              std::atomic_ref<std::uint64_t> word(bits[u >> 6]);
              const std::uint64_t old =
                  word.fetch_or(bit, std::memory_order_relaxed);
              tally.claimed += (old & bit) == 0;
            } else {
              std::uint64_t& word = bits[u >> 6];
              tally.claimed += (word & bit) == 0;
              word |= bit;
            }
          };
        });
    std::size_t claimed = 0;
    for (const WorkerSlot& slot : workers_) claimed += slot.claimed;
    next.count_ = claimed;
    next.dense_ = true;
    next.list_valid_ = materialize;  // else materialized lazily by vertices()
    if (materialize) materialize_bits(next.bits_, claimed, next.list_);
  } else {
    const std::uint32_t epoch = advance_epoch();
    std::uint32_t* stamps = stamp_.data();
    walk_chunks<kFilter>(
        in, round_seed, pool, body,
        [this, stamps, epoch](std::size_t w, auto atomic, Tally& tally) {
          std::vector<Vertex>* claims = &workers_[w].claims;
          return [stamps, epoch, claims, &tally](Vertex u) {
            ++tally.emitted;
            if constexpr (decltype(atomic)::value) {
              std::atomic_ref<std::uint32_t> cell(stamps[u]);
              std::uint32_t cur = cell.load(std::memory_order_relaxed);
              // One strong CAS suffices: every contending write this round
              // installs the same epoch value, so failure == already
              // claimed.
              if (cur != epoch &&
                  cell.compare_exchange_strong(cur, epoch,
                                               std::memory_order_relaxed)) {
                claims->push_back(u);
              }
            } else if (stamps[u] != epoch) {
              stamps[u] = epoch;
              claims->push_back(u);
            }
          };
        });
    std::vector<Vertex>& out = next.list_;
    std::size_t total = 0;
    for (const WorkerSlot& slot : workers_) total += slot.claims.size();
    out.reserve(total);
    for (const WorkerSlot& slot : workers_) {
      out.insert(out.end(), slot.claims.begin(), slot.claims.end());
    }
    // Canonical ascending order: what makes the result independent of both
    // the schedule (claim sets are schedule-independent) and the
    // representation (the dense path is ascending by construction). An
    // in-line filter round claims in visit order, which already is
    // ascending; the check costs one early-exit scan otherwise.
    if (!std::is_sorted(out.begin(), out.end())) {
      std::sort(out.begin(), out.end());
    }
    next.count_ = out.size();
  }
  // One relaxed load when unarmed, mirroring fault/trace; the sampled
  // checks read the produced frontier only, never mutate it.
  if (audit::enabled()) audit_round(next);
  if (traced) emit_trace(in, next.count_, dense, watch);
}

}  // namespace cobra::core
