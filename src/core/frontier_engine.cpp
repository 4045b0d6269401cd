#include "core/frontier_engine.hpp"

#include <new>
#include <stdexcept>

#include "parallel/bucket_sort.hpp"
#include "util/fault.hpp"

namespace cobra::core {

FrontierEngine::FrontierEngine(const Graph& g, FrontierOptions opts)
    : g_(&g), opts_(opts) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("FrontierEngine: empty graph");
  }
}

bool FrontierEngine::want_dense(std::size_t frontier_size) const {
  switch (opts_.mode) {
    case FrontierMode::ForceSparse:
      return false;
    case FrontierMode::ForceDense:
      return true;
    default: {
      // Enter dense above n / alpha; once dense, stay until the frontier
      // falls below half the entry threshold (hysteresis: a frontier
      // hovering at the boundary pays one switch, not one per round).
      const double scaled =
          static_cast<double>(frontier_size) * opts_.dense_alpha;
      const auto n = static_cast<double>(g_->num_vertices());
      return last_dense_ ? scaled * 2.0 >= n : scaled > n;
    }
  }
}

bool FrontierEngine::commit_mode(bool dense) {
  if (have_mode_ && dense != last_dense_) ++switches_;
  have_mode_ = true;
  last_dense_ = dense;
  ++(dense ? dense_rounds_ : sparse_rounds_);
  return dense;
}

bool FrontierEngine::acquire_dense_words(std::vector<std::uint64_t>& bits) {
  if (util::fault::should_fail("frontier.dense_alloc")) return false;
  try {
    bits.reserve(num_words());
  } catch (const std::bad_alloc&) {
    return false;
  }
  return true;
}

bool FrontierEngine::choose_dense(std::size_t frontier_size,
                                  std::vector<std::uint64_t>& dense_bits) {
  bool dense = want_dense(frontier_size);
  const char* reason = "";
  // The bitmap's O(n/64) words are the dense path's one allocation; if
  // they can't be had, the sparse path still works in the memory the
  // frontier already owns — identical results, degraded speed. Demote
  // BEFORE committing, so hysteresis and counters see the real mode.
  if (dense && !acquire_dense_words(dense_bits)) {
    dense = false;
    reason = "dense-alloc-fallback";
    ++dense_fallbacks_;
    obs::count("frontier.dense_fallbacks");
  }
  // A reason is only a SWITCH note: the first round's mode is a choice,
  // not a change, so it traces as "" like any other steady round.
  if (reason[0] == '\0' && have_mode_ && dense != last_dense_) {
    switch (opts_.mode) {
      case FrontierMode::ForceSparse:
        reason = "forced-sparse";
        break;
      case FrontierMode::ForceDense:
        reason = "forced-dense";
        break;
      default:
        reason = dense ? "auto-grow" : "auto-shrink";
        break;
    }
  }
  last_switch_reason_ = reason;
  return commit_mode(dense);
}

par::ThreadPool* FrontierEngine::pick_pool(std::size_t frontier_size) const {
  // Work estimate, not raw frontier length: a 5k-vertex frontier at k = 4
  // is as much sampling as a 20k one at k = 1, and it is the sampling that
  // must amortize the pool hand-off.
  const double work = static_cast<double>(frontier_size) *
                      std::max(opts_.branching_hint, 1.0);
  if (work < static_cast<double>(opts_.parallel_threshold)) return nullptr;
  // Resolve the pool lazily: a walk whose frontier never clears the
  // threshold must not spawn the process-wide pool as a side effect.
  par::ThreadPool* pool =
      opts_.pool != nullptr ? opts_.pool : &par::global_pool();
  if (pool->size() <= 1 || pool->on_worker_thread()) return nullptr;
  return pool;
}

bool FrontierEngine::acquire_worker_bits(std::size_t workers) {
  // Fault site `frontier.worker_bits_alloc` (GRACEFUL): the private
  // bitmaps cannot be had — the round runs in-line as worker 0 straight
  // into the output bitmap, which produces the same set.
  if (util::fault::should_fail("frontier.worker_bits_alloc")) return false;
  try {
    if (workers_.size() < workers) workers_.resize(workers);
    if (worker_bits_dirty_) {
      for (WorkerSlot& slot : workers_) slot.bits.assign(slot.bits.size(), 0);
    }
    for (std::size_t w = 1; w < workers; ++w) {
      workers_[w].bits.resize(num_words());  // new words arrive zeroed
    }
  } catch (const std::bad_alloc&) {
    return false;
  }
  worker_bits_dirty_ = true;  // until merge_bits has read them back
  return true;
}

void FrontierEngine::clear_words(std::vector<std::uint64_t>& bits,
                                 par::ThreadPool* pool) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("frontier.clear");
  obs::ScopedTimer timed(timer);
#endif
  const std::size_t words = num_words();
  // Parallel clearing only pays once the bitmap outgrows the last-level
  // cache scale (n >= ~2^21); below that the pool dispatch costs more than
  // the memset it replaces.
  constexpr std::size_t kMinParallelClearWords = std::size_t{1} << 15;
  if (pool == nullptr || !opts_.parallel_dense_ops ||
      words < kMinParallelClearWords || bits.size() != words) {
    bits.assign(words, 0);
    return;
  }
  constexpr std::size_t kClearChunkWords = std::size_t{1} << 13;  // 64 KiB
  const std::size_t n_chunks = (words + kClearChunkWords - 1) / kClearChunkWords;
  std::uint64_t* data = bits.data();
  par::parallel_for(*pool, 0, n_chunks, [&](std::size_t c) {
    const std::size_t lo = c * kClearChunkWords;
    const std::size_t hi = std::min(words, lo + kClearChunkWords);
    std::fill(data + lo, data + hi, std::uint64_t{0});
  });
}

std::size_t FrontierEngine::merge_bits(std::vector<std::uint64_t>& bits,
                                       std::size_t workers) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("frontier.merge");
  obs::ScopedTimer timed(timer);
#endif
  // Serial on purpose: at n = 2^20 and 2^22 on four workers the whole
  // merge takes 35-120 us, no more than spreading it over the pool did
  // (EXPERIMENTS.md A2), and well under 1% of a dense round.
  const std::size_t n_words = bits.size();
  std::uint64_t* out = bits.data();
  // Ranges of 16 KiB per bitmap: a range's output words stay in L1 while
  // each private bitmap streams through them in turn.
  constexpr std::size_t kRangeWords = std::size_t{1} << 11;
  std::size_t count = 0;
  for (std::size_t lo = 0; lo < n_words; lo += kRangeWords) {
    const std::size_t hi = std::min(n_words, lo + kRangeWords);
    for (std::size_t w = 1; w < workers; ++w) {
      if (workers_[w].emitted == 0) continue;  // never written: still zero
      std::uint64_t* src = workers_[w].bits.data();
      for (std::size_t i = lo; i < hi; ++i) {
        out[i] |= src[i];
        src[i] = 0;
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      count += static_cast<std::size_t>(std::popcount(out[i]));
    }
  }
  if (workers > 1) worker_bits_dirty_ = false;
  return count;
}

void FrontierEngine::merge_claims(std::vector<Vertex>& out) {
#if COBRA_OBS_LEVEL >= 1
  static obs::Timer& timer = obs::registry().timer("frontier.merge");
  obs::ScopedTimer timed(timer);
#endif
  std::size_t total = 0;
  for (const WorkerSlot& slot : workers_) total += slot.claims.size();
  out.reserve(total);
  for (const WorkerSlot& slot : workers_) {
    out.insert(out.end(), slot.claims.begin(), slot.claims.end());
  }
  // Canonical ascending order: what makes the result independent of both
  // the schedule and the representation (the dense path is ascending by
  // construction). An in-line filter round claims in visit order, which
  // already is ascending and duplicate-free; the check costs one
  // early-exit scan otherwise. A sparse round's claims arrive in random
  // order with duplicates, where the radix sort beats std::sort.
  if (!std::is_sorted(out.begin(), out.end())) {
    par::radix_sort(out, sort_scratch_, [](Vertex v) { return v; });
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

void FrontierEngine::reset_workers(std::size_t workers) {
  if (workers_.size() < workers) workers_.resize(workers);
  // Every slot, not just the round's: the driver sums over all of them.
  for (WorkerSlot& slot : workers_) {
    slot.claims.clear();
    slot.emitted = 0;
  }
}

std::span<const Vertex> FrontierEngine::chunk_vertices(
    const FrontierView& in, std::size_t span, std::size_t c,
    std::vector<Vertex>& scratch) const {
  const std::uint64_t lo = static_cast<std::uint64_t>(c) * span;
  const std::uint64_t hi =
      std::min<std::uint64_t>(lo + span, g_->num_vertices());
  if (!in.dense()) {
    const auto list = in.list();
    const auto begin = std::lower_bound(list.begin(), list.end(),
                                        static_cast<Vertex>(lo));
    const auto end =
        std::lower_bound(begin, list.end(), static_cast<Vertex>(hi));
    return list.subspan(static_cast<std::size_t>(begin - list.begin()),
                        static_cast<std::size_t>(end - begin));
  }
  // Dense: decode the chunk's words (span is a multiple of 64, so chunk
  // boundaries are word boundaries) into the caller's scratch.
  scratch.clear();
  const auto words = in.words();
  const std::size_t w0 = static_cast<std::size_t>(lo >> 6);
  const std::size_t w1 = std::min<std::size_t>(
      static_cast<std::size_t>((hi + 63) >> 6), words.size());
  detail::decode_bits(words, w0, w1, scratch);
  return scratch;
}

void FrontierEngine::occupancy_stats(const FrontierView& in, std::size_t span,
                                     std::uint64_t& chunks,
                                     std::uint64_t& max_occ) const {
  chunks = 0;
  max_occ = 0;
  if (!in.dense()) {
    // Walk the sorted list run by run: one pass, no touch of empty chunks.
    const auto list = in.list();
    std::size_t i = 0;
    while (i < list.size()) {
      const std::size_t c = list[i] / span;
      std::size_t occ = 0;
      while (i < list.size() && list[i] / span == c) {
        ++occ;
        ++i;
      }
      ++chunks;
      max_occ = std::max<std::uint64_t>(max_occ, occ);
    }
    return;
  }
  // Dense: popcount per chunk (span is a multiple of 64, so chunk
  // boundaries are word boundaries).
  const auto words = in.words();
  const std::size_t words_per_chunk = span >> 6;
  for (std::size_t w0 = 0; w0 < words.size(); w0 += words_per_chunk) {
    const std::size_t w1 = std::min(words.size(), w0 + words_per_chunk);
    std::uint64_t occ = 0;
    for (std::size_t w = w0; w < w1; ++w) {
      occ += static_cast<std::uint64_t>(std::popcount(words[w]));
    }
    if (occ == 0) continue;
    ++chunks;
    max_occ = std::max(max_occ, occ);
  }
}

void FrontierEngine::emit_trace(const FrontierView& in, std::size_t produced,
                                bool dense, const obs::Stopwatch& watch,
                                double sample_s, double merge_s) {
  if (trace_id_ == 0) trace_id_ = obs::next_trace_id();
  obs::RoundTrace t;
  t.trace_id = trace_id_;
  t.round = sparse_rounds_ + dense_rounds_;  // 1-based: already committed
  t.frontier = in.size();
  t.produced = produced;
  t.mode = dense ? "dense" : "sparse";
  t.path = last_parallel_ ? "parallel" : "serial";
  t.switch_reason = last_switch_reason_;
  occupancy_stats(in, chunk_span(), t.chunks, t.max_chunk);
  t.mean_chunk = t.chunks > 0 ? static_cast<double>(in.size()) /
                                    static_cast<double>(t.chunks)
                              : 0.0;
  t.sample_s = sample_s;
  t.merge_s = merge_s;
  t.seconds = watch.seconds();
  obs::trace_round(t);
}

void FrontierEngine::audit_graph_once() {
  if (audit_graph_checked_) return;
  audit_graph_checked_ = true;
  std::string why;
  if (!g_->validate(&why)) audit::report_violation("graph-csr", why);
}

void FrontierEngine::audit_round(const Frontier& next) {
  if (!audit::sample_round(audit_seq_++)) return;
  audit_graph_once();
  const std::size_t n = g_->num_vertices();
  std::string why;
  if (next.list_valid_ &&
      !audit::check_canonical_list(next.list_, n, &why)) {
    audit::report_violation("canonical-order", why);
  }
  if (next.dense_) {
    // A materialized list came from the bitmap — the two must agree on the
    // count, and the bitmap itself must be healthy.
    const std::size_t count =
        next.list_valid_ ? next.list_.size() : next.count_;
    if (!audit::check_bitmap(next.bits_, count, n, &why)) {
      audit::report_violation("bitmap", why);
    }
  }
}

void FrontierEngine::dedupe(std::span<const Vertex> in, Frontier& out) {
  out.clear();
  out.list_.assign(in.begin(), in.end());
  // Canonical ascending order — the invariant every expand input relies on.
  // Callers often pass it already sorted (GreedyMIS passes 0..n-1).
  if (!std::is_sorted(out.list_.begin(), out.list_.end())) {
    std::sort(out.list_.begin(), out.list_.end());
  }
  out.list_.erase(std::unique(out.list_.begin(), out.list_.end()),
                  out.list_.end());
  out.count_ = out.list_.size();
}

}  // namespace cobra::core
