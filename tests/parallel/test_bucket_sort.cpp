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
/// and expect std::stable_sort's result by the same key every time.
template <typename T, typename KeyOf>
void expect_matches_stable_sort(const std::vector<T>& input,
                                std::uint64_t key_max, const KeyOf& key_of) {
  std::vector<T> expected = input;
  std::stable_sort(
      expected.begin(), expected.end(),
      [&](const T& a, const T& b) { return key_of(a) < key_of(b); });
  const auto value_at = [&](std::size_t i) { return input[i]; };
  EXPECT_EQ(bucket_sorted(input.size(), key_max, value_at, key_of, nullptr),
            expected)
      << "in-line, n=" << input.size();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(bucket_sorted(input.size(), key_max, value_at, key_of, &pool),
              expected)
        << threads << " threads, n=" << input.size();
  }
}

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng::derive_seed(seed, i);
  return v;
}

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};
constexpr auto identity = [](std::uint64_t x) { return x; };

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
  expect_matches_stable_sort(std::vector<std::uint64_t>{}, kAllOnes, identity);
  expect_matches_stable_sort(std::vector<std::uint64_t>{42}, kAllOnes,
                             identity);
}

TEST(BucketSort, UniformKeysAcrossChunkSizesNotDivisibleByChunk) {
  for (const std::size_t n :
       {kSortChunk - 1, kSortChunk, kSortChunk + 1, 3 * kSortChunk + 17}) {
    expect_matches_stable_sort(random_values(n, n), kAllOnes, identity);
  }
}

TEST(BucketSort, EverythingInOneBucket) {
  // Keys below 2^44 of a 2^64 range: every value lands in bucket 0.
  std::vector<std::uint64_t> v = random_values(2 * kSortChunk + 5, 7);
  for (std::uint64_t& x : v) x >>= 20;
  expect_matches_stable_sort(v, kAllOnes, identity);
}

TEST(BucketSort, HeavilySkewedBuckets) {
  // 90% of the values sit in the lowest bucket; the rest spread uniformly.
  std::vector<std::uint64_t> v = random_values(3 * kSortChunk + 1, 11);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i % 10 != 0) v[i] >>= 8;
  }
  expect_matches_stable_sort(v, kAllOnes, identity);
}

TEST(BucketSort, DuplicateEdgesSortLikeStdSort) {
  // Canonical edges of a small vertex set, many repeated: the rmat
  // simplify case, keyed by (first << 32) | second. The key is injective,
  // so the stable order is std::sort's.
  using Edge = std::pair<std::uint32_t, std::uint32_t>;
  constexpr std::uint32_t kVertices = 300;
  std::vector<Edge> edges;
  for (const std::uint64_t x : random_values(2 * kSortChunk + 3, 13)) {
    auto u = static_cast<std::uint32_t>(x % kVertices);
    auto v = static_cast<std::uint32_t>((x >> 32) % kVertices);
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  const auto key = [](const Edge& e) {
    return std::uint64_t{e.first} << 32 | e.second;
  };
  expect_matches_stable_sort(edges, key({kVertices - 1, kVertices - 1}), key);
}

TEST(BucketSort, HashedIndicesLikeTheStubPermutation) {
  // Values are indices, keys a hash of them: the (key, index) order.
  constexpr std::uint64_t n = 5 * kSortChunk / 2;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keyed;
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < n; ++i) {
    keyed.emplace_back(rng::derive_seed(99, i), i);
    indices.push_back(i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint64_t> expected;
  for (const auto& [key, i] : keyed) expected.push_back(i);
  const auto hash = [](std::uint64_t i) { return rng::derive_seed(99, i); };
  expect_matches_stable_sort(indices, kAllOnes, hash);
  ThreadPool pool(4);
  EXPECT_EQ(bucket_sorted(
                n, kAllOnes, [](std::size_t i) { return std::uint64_t{i}; },
                hash, &pool),
            expected);
}

TEST(BucketSort, EqualKeysKeepInputOrder) {
  // 28 distinct keys over 2^17 values, in several buckets and sort chunks,
  // far apart within a bucket: each key's values must come out in input
  // order (std::stable_sort's order), through every radix pass.
  std::vector<std::uint64_t> values = random_values(2 * kSortChunk + 9, 5);
  expect_matches_stable_sort(values, kAllOnes, [](std::uint64_t x) {
    return (x % 7) << 58 | x >> 62;
  });
}

TEST(RadixSort, SortsStablyByKeyOverAnySpan) {
  // Keys spanning 0, 8, 9 and 64 bits; the payload records input order.
  using Item = std::pair<std::uint64_t, std::uint32_t>;
  for (const std::uint64_t span : {std::uint64_t{0}, std::uint64_t{255},
                                   std::uint64_t{300}, kAllOnes}) {
    std::vector<Item> items;
    std::uint32_t at = 0;
    for (const std::uint64_t x : random_values(5000, span)) {
      items.emplace_back(span == kAllOnes ? x : 1000 + x % (span + 1), at++);
    }
    std::vector<Item> expected = items;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Item& a, const Item& b) {
                       return a.first < b.first;
                     });
    std::vector<Item> scratch;
    radix_sort(items, scratch, [](const Item& it) { return it.first; });
    EXPECT_EQ(items, expected) << "span " << span;
  }
}

}  // namespace
}  // namespace cobra::par
