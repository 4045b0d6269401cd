#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

/// \file bucket_sort.hpp
/// The library's sort: a stable LSD radix sort by an unsigned key
/// projection (radix_sort), and a deterministic parallel sort built on it
/// (bucket_sorted). Both order values by key and keep equal keys in input
/// order. That order is unique, so bucket_sorted's output is the same
/// element for element at any thread count and with no pool at all; the
/// thread count, chunk size and bucket count decide only who does which
/// part of the work.
///
/// bucket_sorted runs three passes, each parallel over the pool:
///   1. count: every fixed-size chunk of the input builds a histogram of
///      its values' buckets, the top bits of their keys;
///   2. scatter: an exclusive prefix sum in (bucket, chunk) order gives
///      each chunk its slice of each bucket, and the chunks copy their
///      values (not their keys) there, so each bucket holds its values in
///      input order;
///   3. sort: each bucket is copied into its worker's (key, value) buffer,
///      radix-sorted by key and copied back.
/// The buckets are contiguous key ranges in ascending order, so the sorted
/// buckets concatenate to the sorted whole.

namespace cobra::par {

/// Stable sort of `items` by key(item), an unsigned integer: an LSD radix
/// sort over 8-bit digits of (key - min), with only as many passes as the
/// key span needs, and `scratch` as the second buffer (the two may trade
/// storage). It costs O(passes * (size + 256)) and no comparisons, where
/// std::sort's comparisons mispredict on keys in random order.
template <typename T, typename Key>
void radix_sort(std::vector<T>& items, std::vector<T>& scratch,
                const Key& key) {
  using K = std::decay_t<std::invoke_result_t<const Key&, const T&>>;
  static_assert(std::is_unsigned_v<K>, "radix_sort: unsigned keys");
  if (items.size() < 2) return;
  K lo = key(items[0]);
  K hi = lo;
  for (const T& item : items) {
    lo = std::min<K>(lo, key(item));
    hi = std::max<K>(hi, key(item));
  }
  const auto digit = [&](const T& item, int shift) {
    return static_cast<std::size_t>((key(item) - lo) >> shift & 0xFF);
  };
  const auto bits = static_cast<int>(std::bit_width(static_cast<K>(hi - lo)));
  scratch.resize(items.size());
  for (int shift = 0; shift < bits; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const T& item : items) ++start[digit(item, shift) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const T& item : items) scratch[start[digit(item, shift)]++] = item;
    items.swap(scratch);
  }
}

/// Input elements per count/scatter chunk.
inline constexpr std::size_t kSortChunk = std::size_t{1} << 16;

/// The bucket count bucket_sorted() uses for n elements: a power of two,
/// about 2^12 elements per bucket, at most 2^10 buckets (the scatter's
/// write streams per chunk), at least 1.
[[nodiscard]] constexpr std::size_t sort_buckets(std::size_t n) noexcept {
  return std::bit_floor(
      std::clamp<std::size_t>(n >> 12, 1, std::size_t{1} << 10));
}

/// value_at(0), ..., value_at(n - 1) sorted stably by key_of(value), a
/// std::uint64_t at most `key_max`. value_at and key_of must be pure
/// (value_at is called twice per index and key_of three times per value,
/// possibly from different threads). Skewed keys stay correct, only slower
/// (one bucket is sorted by one thread). `pool` == nullptr runs every pass
/// in-line.
template <typename ValueAt, typename KeyOf>
[[nodiscard]] auto bucket_sorted(std::size_t n, std::uint64_t key_max,
                                 const ValueAt& value_at, const KeyOf& key_of,
                                 ThreadPool* pool) {
  using T = std::decay_t<std::invoke_result_t<const ValueAt&, std::size_t>>;
  std::vector<T> out(n);
  if (n == 0) return out;
  const std::size_t n_buckets = sort_buckets(n);
  const int bits = std::countr_zero(n_buckets);
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(key_max)) - bits);
  const auto bucket_of = [&](const T& value) {
    return bits == 0 ? 0 : static_cast<std::size_t>(key_of(value) >> shift);
  };
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

  using Keyed = std::pair<std::uint64_t, T>;
  const std::size_t workers = pool != nullptr ? pool->size() : 1;
  std::vector<std::vector<Keyed>> keyed(workers), scratch(workers);
  const auto sort_bucket = [&](std::size_t w, std::size_t b) {
    T* first = out.data() + bucket_start[b];
    std::vector<Keyed>& buffer = keyed[w];
    buffer.resize(bucket_start[b + 1] - bucket_start[b]);
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      buffer[i] = {key_of(first[i]), first[i]};
    }
    radix_sort(buffer, scratch[w], [](const Keyed& k) { return k.first; });
    for (std::size_t i = 0; i < buffer.size(); ++i) first[i] = buffer[i].second;
  };
  if (pool == nullptr) {
    for (std::size_t b = 0; b < n_buckets; ++b) sort_bucket(0, b);
  } else {
    parallel_for_chunks(*pool, n_buckets, workers, sort_bucket);
  }
  return out;
}

}  // namespace cobra::par
