#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

/// \file bucket_sort.hpp
/// A deterministic parallel sort. The output is the ascending order of the
/// input multiset, which is unique, so it equals std::sort's output element
/// for element at any thread count and with no pool at all. The thread
/// count, chunk size and bucket count decide only who does which part of
/// the work.
///
/// Three passes, each parallel over the pool:
///   1. count: every fixed-size chunk of the input builds a histogram of
///      its values' buckets;
///   2. scatter: an exclusive prefix sum in (bucket, chunk) order gives
///      each chunk its slice of each bucket, and the chunks copy their
///      values there;
///   3. sort: std::sort each bucket on its own.
/// The buckets are contiguous value ranges in ascending order (see
/// `bucket_of` below), so the sorted buckets concatenate to the sorted
/// whole.

namespace cobra::par {

/// Input elements per count/scatter chunk.
inline constexpr std::size_t kSortChunk = std::size_t{1} << 16;

/// The bucket count bucket_sorted() works well with for n elements: a
/// power of two, about 2^12 elements per bucket, at most 2^10 buckets (the
/// scatter's write streams per chunk), at least 1.
[[nodiscard]] constexpr std::size_t sort_buckets(std::size_t n) noexcept {
  return std::bit_floor(
      std::clamp<std::size_t>(n >> 12, 1, std::size_t{1} << 10));
}

/// Sorted copy of value_at(0), ..., value_at(n - 1); value_at must be a
/// pure function of its index (it is called twice per index, possibly
/// from different threads). `bucket_of` maps each value into
/// [0, n_buckets) and must be monotone: a < b implies bucket_of(a) <=
/// bucket_of(b). Skewed buckets stay correct, only slower (one bucket is
/// sorted by one thread). `pool` == nullptr runs every pass in-line.
template <typename ValueAt, typename BucketOf>
[[nodiscard]] auto bucket_sorted(std::size_t n, std::size_t n_buckets,
                                 const ValueAt& value_at,
                                 const BucketOf& bucket_of, ThreadPool* pool) {
  using T = std::decay_t<std::invoke_result_t<const ValueAt&, std::size_t>>;
  std::vector<T> out(n);
  if (n == 0) return out;
  const std::size_t n_chunks = (n + kSortChunk - 1) / kSortChunk;
  const auto chunk_end = [n](std::size_t c) {
    return std::min(n, (c + 1) * kSortChunk);
  };

  // cursor[c * n_buckets + b]: chunk c's count of bucket b, then (after the
  // prefix sum) the next output slot chunk c writes in bucket b.
  std::vector<std::size_t> cursor(n_chunks * n_buckets, 0);
  for_each_index(pool, n_chunks, [&](std::size_t c) {
    std::size_t* counts = cursor.data() + c * n_buckets;
    for (std::size_t i = c * kSortChunk; i < chunk_end(c); ++i) {
      ++counts[bucket_of(value_at(i))];
    }
  });
  std::vector<std::size_t> bucket_start(n_buckets + 1);
  std::size_t slot = 0;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    bucket_start[b] = slot;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      slot += std::exchange(cursor[c * n_buckets + b], slot);
    }
  }
  bucket_start[n_buckets] = slot;

  for_each_index(pool, n_chunks, [&](std::size_t c) {
    std::size_t* next = cursor.data() + c * n_buckets;
    for (std::size_t i = c * kSortChunk; i < chunk_end(c); ++i) {
      const T value = value_at(i);
      out[next[bucket_of(value)]++] = value;
    }
  });
  for_each_index(pool, n_buckets, [&](std::size_t b) {
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(bucket_start[b]),
              out.begin() + static_cast<std::ptrdiff_t>(bucket_start[b + 1]));
  });
  return out;
}

}  // namespace cobra::par
