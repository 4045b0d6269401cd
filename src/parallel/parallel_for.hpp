#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <type_traits>

#include "parallel/thread_pool.hpp"

/// \file parallel_for.hpp
/// Chunked parallel loops over index ranges, layered on ThreadPool.
/// Three schedules are provided (plus for_each_index, which picks
/// parallel_for_dynamic or an in-line loop):
///   * parallel_for        — static chunking; best when iterations are uniform
///   * parallel_for_dynamic — atomic work-stealing counter; best when
///     iteration cost varies wildly (e.g. cover-time trials whose length is
///     itself the random variable under study).
///   * parallel_for_chunks — dynamic claiming with stable worker ids; best
///     when workers carry reusable scratch (buffers, decode space) across
///     the chunks they claim — the FrontierEngine's range-chunk schedule.
///
/// Exceptions thrown by the body are captured and rethrown (first one wins)
/// on the calling thread, so callers see normal C++ error flow.

namespace cobra::par {

namespace detail {

/// Captures the first exception thrown by any worker.
class ExceptionCollector {
 public:
  void capture() noexcept {
    if (!armed_.exchange(true, std::memory_order_acq_rel)) {
      exception_ = std::current_exception();
    }
  }

  void rethrow_if_any() {
    if (armed_.load(std::memory_order_acquire) && exception_) {
      std::rethrow_exception(exception_);
    }
  }

 private:
  std::atomic<bool> armed_{false};
  std::exception_ptr exception_;
};

}  // namespace detail

/// Apply body(i) for i in [begin, end) using static chunking over `pool`.
/// body must be invocable as void(std::size_t) and thread-safe across
/// distinct indices.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Body&& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, pool.size() * 4);  // mild oversubscription
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  detail::ExceptionCollector errors;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    pool.submit([lo, hi, &body, &errors] {
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        errors.capture();
      }
    });
  }
  pool.wait_idle();
  errors.rethrow_if_any();
}

/// Apply body(i) for i in [begin, end) with dynamic (self-scheduling)
/// distribution: each worker repeatedly claims the next index from an atomic
/// counter. Use when per-iteration cost is highly variable.
template <typename Body>
void parallel_for_dynamic(ThreadPool& pool, std::size_t begin, std::size_t end,
                          Body&& body) {
  if (begin >= end) return;
  // The loop state lives in this frame, which wait_idle keeps alive until
  // every task is done, so a task captures one pointer and fits in
  // std::function's in-place buffer. A heap-allocated task would be freed
  // on a worker thread, and such frees strand small chunks between large
  // blocks of the caller's heap, which keeps glibc from trimming it.
  struct Loop {
    std::atomic<std::size_t> next;
    std::size_t end;
    std::remove_reference_t<Body>* body;
    detail::ExceptionCollector errors;
  } loop{{begin}, end, &body, {}};
  const std::size_t workers = std::min(pool.size(), end - begin);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.submit([state = &loop] {
      try {
        for (;;) {
          const std::size_t i =
              state->next.fetch_add(1, std::memory_order_relaxed);
          if (i >= state->end) return;
          (*state->body)(i);
        }
      } catch (...) {
        state->errors.capture();
      }
    });
  }
  pool.wait_idle();
  loop.errors.rethrow_if_any();
}

/// Apply body(i) for i in [0, count): dynamically over `pool`, or in-line
/// on the calling thread when `pool` is nullptr or count <= 1. The caller
/// picks a pool it may wait on (not one whose worker it is running on).
template <typename Body>
void for_each_index(ThreadPool* pool, std::size_t count, Body&& body) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  parallel_for_dynamic(*pool, 0, count, body);
}

/// Apply body(worker, chunk) for chunk in [0, n_chunks), claimed
/// dynamically by `workers` workers with STABLE ids in [0, workers)
/// (clamped to pool.size() and n_chunks): worker 0 is the calling thread,
/// the others are pool tasks. The worker id lets callers keep
/// reusable per-worker scratch without allocation inside the loop, while
/// the chunk id stays the deterministic unit of work (callers key
/// per-chunk RNG streams off it, so results never depend on which worker
/// ran which chunk). With 0 or 1 effective workers the chunks run in-line
/// on the calling thread.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t n_chunks,
                         std::size_t workers, Body&& body) {
  if (n_chunks == 0) return;
  workers = std::min({workers, pool.size(), n_chunks});
  if (workers <= 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) body(std::size_t{0}, c);
    return;
  }
  // Caller-stack loop state, as in parallel_for_dynamic: a task captures
  // its worker id and one pointer, which fits std::function's in-place
  // buffer, so a round allocates nothing and no worker frees anything.
  struct Loop {
    std::atomic<std::size_t> next;
    std::size_t n_chunks;
    std::remove_reference_t<Body>* body;
    detail::ExceptionCollector errors;
  } loop{{0}, n_chunks, &body, {}};
  const auto claim_chunks = [state = &loop](std::size_t w) {
    try {
      for (;;) {
        const std::size_t c =
            state->next.fetch_add(1, std::memory_order_relaxed);
        if (c >= state->n_chunks) return;
        (*state->body)(w, c);
      }
    } catch (...) {
      state->errors.capture();
    }
  };
  for (std::size_t w = 1; w < workers; ++w) {
    pool.submit([w, claim_chunks] { claim_chunks(w); });
  }
  // The caller is worker 0: it starts claiming at once, while the pool
  // workers it just woke take tens of microseconds to join.
  claim_chunks(0);
  pool.wait_idle();
  loop.errors.rethrow_if_any();
}

}  // namespace cobra::par
