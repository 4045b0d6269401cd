#include "parallel/bucket_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "rng/splitmix64.hpp"

namespace cobra::par {
namespace {

/// Sort `input` with bucket_sorted in-line and on pools of 1/2/4/8 threads,
/// and expect std::sort's result every time.
template <typename T, typename BucketOf>
void expect_matches_std_sort(const std::vector<T>& input,
                             std::size_t n_buckets, const BucketOf& bucket_of) {
  std::vector<T> expected = input;
  std::sort(expected.begin(), expected.end());
  const auto value_at = [&](std::size_t i) { return input[i]; };
  EXPECT_EQ(
      bucket_sorted(input.size(), n_buckets, value_at, bucket_of, nullptr),
      expected)
      << "in-line, n=" << input.size();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(
        bucket_sorted(input.size(), n_buckets, value_at, bucket_of, &pool),
        expected)
        << threads << " threads, n=" << input.size();
  }
}

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng::derive_seed(seed, i);
  return v;
}

/// Top-bits bucket of a uniform 64-bit value over 2^bits buckets.
auto top_bits(int bits) {
  return [bits](std::uint64_t x) {
    return static_cast<std::size_t>(x >> (64 - bits));
  };
}

TEST(BucketSort, SortBucketsIsAPowerOfTwoInRange) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5000},
                              std::size_t{1} << 20, std::size_t{1} << 30}) {
    const std::size_t b = sort_buckets(n);
    EXPECT_GE(b, 1u);
    EXPECT_LE(b, 1024u);
    EXPECT_TRUE(std::has_single_bit(b)) << n;
  }
}

TEST(BucketSort, EmptyAndSingleElement) {
  expect_matches_std_sort(std::vector<std::uint64_t>{}, 4, top_bits(2));
  expect_matches_std_sort(std::vector<std::uint64_t>{42}, 4, top_bits(2));
}

TEST(BucketSort, UniformKeysAcrossChunkSizesNotDivisibleByChunk) {
  for (const std::size_t n :
       {kSortChunk - 1, kSortChunk, kSortChunk + 1, 3 * kSortChunk + 17}) {
    expect_matches_std_sort(random_values(n, n), 64, top_bits(6));
  }
}

TEST(BucketSort, EverythingInOneBucket) {
  expect_matches_std_sort(random_values(2 * kSortChunk + 5, 7), 16,
                          [](std::uint64_t) { return std::size_t{0}; });
}

TEST(BucketSort, HeavilySkewedBuckets) {
  // 90% of the values sit in bucket 0 of 256; the rest spread uniformly.
  std::vector<std::uint64_t> v = random_values(3 * kSortChunk + 1, 11);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 10 != 0) v[i] >>= 8;
  }
  expect_matches_std_sort(v, 256, top_bits(8));
}

TEST(BucketSort, DuplicateEdgesSortLikeStdSort) {
  // Canonical edges of a small vertex set, many repeated: the rmat
  // simplify case, bucketed by the first endpoint.
  using Edge = std::pair<std::uint32_t, std::uint32_t>;
  constexpr std::uint32_t kVertices = 300;
  std::vector<Edge> edges;
  for (const std::uint64_t x : random_values(2 * kSortChunk + 3, 13)) {
    auto u = static_cast<std::uint32_t>(x % kVertices);
    auto v = static_cast<std::uint32_t>((x >> 32) % kVertices);
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  expect_matches_std_sort(edges, 32, [](const Edge& e) {
    return static_cast<std::size_t>(e.first * 32 / kVertices);
  });
}

TEST(BucketSort, HashIndexPairsLikeTheStubPermutation) {
  using Keyed = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<Keyed> keyed;
  for (std::uint64_t i = 0; i < 5 * kSortChunk / 2; ++i) {
    keyed.emplace_back(rng::derive_seed(99, i), i);
  }
  expect_matches_std_sort(keyed, 128, [](const Keyed& k) {
    return static_cast<std::size_t>(k.first >> 57);
  });
}

}  // namespace
}  // namespace cobra::par
