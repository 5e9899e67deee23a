// Ascending sort and two-way merge for the runs the batched rank feed
// produces between events.
//
// A site's eventless run is sorted once before it enters the run-merge
// ladder. Runs are short at large k (small per-site spans) and about one
// leaf long otherwise (hundreds of values), and std::sort is slow at both
// ends: its dispatch and pivot branches dominate short inputs, and its
// comparisons cost ~40 ns per value on leaf-sized runs. SortRun routes
// short inputs through data-independent compare-exchange networks
// (Batcher's merge-exchange, Knuth 5.2.2 Algorithm M — every compare
// compiles to min/max cmovs, no data-dependent branch), long ones
// through an LSD radix sort over 8-bit digits that skips every digit
// constant across the run (keys below 2^20 take three passes, not
// eight), and the middle through std::sort. The sorted output of uint64
// keys is unique, so the algorithm choice can never change a tracker
// estimate.
//
// MergeSorted is the one merge of two ascending runs: the run ladder's
// pair merges and window pulls and the compactor's level merges all go
// through it. It merges back to front, so its output may be the first
// input's own buffer: the run ladder and the compactor grow the older
// run's buffer and merge the newer run into it, with no third buffer and
// no copy back. Its inner loop is a branchless select (cmovs, no
// data-dependent branch to mispredict on interleaved keys) that loads
// both inputs' next values ahead of the compare, so each step waits on
// a register move rather than on a load. Every eight selects it first
// checks for a block: when the top eight values left in one input all
// sort at or above the other input's largest, it moves them with one
// 64-byte copy. Skewed streams (long runs of equal or ordered keys) and
// merges of a small run into a big one take that path. A merge of
// uint64 keys has exactly one ascending output, so neither path can
// change where a value lands.

#ifndef DISTTRACK_COMMON_SMALL_SORT_H_
#define DISTTRACK_COMMON_SMALL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace disttrack {

namespace small_sort_internal {

inline void CompareExchange(uint64_t* v, size_t i, size_t j) {
  uint64_t a = v[i];
  uint64_t b = v[j];
  v[i] = a < b ? a : b;  // cmov pair, no branch
  v[j] = a < b ? b : a;
}

// Batcher merge-exchange: a sorting network for any n, O(n log^2 n)
// data-independent compare-exchanges.
inline void NetworkSort(uint64_t* v, size_t n) {
  size_t t = 1;
  while ((size_t{1} << t) < n) ++t;  // t = ceil(log2 n), n >= 2
  size_t p = size_t{1} << (t - 1);
  while (p > 0) {
    size_t q = size_t{1} << (t - 1);
    size_t r = 0;
    size_t d = p;
    for (;;) {
      for (size_t i = 0; i + d < n; ++i) {
        if ((i & p) == r) CompareExchange(v, i, i + d);
      }
      if (q == p) break;
      d = q - p;
      q >>= 1;
      r = p;
    }
    p >>= 1;
  }
}

// Radix cutover, measured against std::sort on the reference container
// (ns per value, fresh inputs per call): a pass costs ~3 ns per value
// plus a 256-bucket prefix sum, so the break-even length grows with the
// number of varying digits d. Radix wins from n = 64 at d <= 2 (2.4x at
// one digit, 1.3x at two), from ~96 at d = 5 (1.15x) and from ~128-192
// at d = 8 (full-width keys; 0.98-1.35x in between, 1.3x at 192), and
// runs ~4x faster on leaf-sized runs of 20-bit keys (10-11 vs 40-45).
// The rule n >= max(64, 24 d) keeps every measured shape at or above
// std::sort.
inline constexpr size_t kRadixMin = 64;
inline constexpr size_t kRadixPerDigit = 24;

// LSD radix sort of v[0, n) over the 8-bit digits that vary across the
// input, ping-ponging through tmp[0, n). Returns false (input untouched)
// when the run is too short for its digit count.
inline bool RadixSort(uint64_t* v, size_t n, uint64_t* tmp) {
  uint64_t diff = 0;
  const uint64_t first = v[0];
  for (size_t i = 1; i < n; ++i) diff |= v[i] ^ first;
  unsigned shifts[8];
  size_t digits = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if ((diff >> shift) & 0xFF) shifts[digits++] = shift;
  }
  if (n < kRadixPerDigit * digits || n > UINT32_MAX) return false;
  if (digits == 0) return true;  // all equal
  uint32_t counts[8][256];
  std::memset(counts, 0, digits * sizeof(counts[0]));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = v[i];
    for (size_t d = 0; d < digits; ++d) ++counts[d][(x >> shifts[d]) & 0xFF];
  }
  uint64_t* src = v;
  uint64_t* dst = tmp;
  for (size_t d = 0; d < digits; ++d) {
    uint32_t* offsets = counts[d];
    uint32_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      const uint32_t c = offsets[b];
      offsets[b] = sum;
      sum += c;
    }
    const unsigned shift = shifts[d];
    for (size_t i = 0; i < n; ++i) {
      const uint64_t x = src[i];
      dst[offsets[(x >> shift) & 0xFF]++] = x;
    }
    std::swap(src, dst);
  }
  if (src != v) std::memcpy(v, src, n * sizeof(uint64_t));
  return true;
}

}  // namespace small_sort_internal

/// Sorts v[0, n) ascending (see file comment); `scratch` is the radix
/// path's caller-owned ping-pong buffer, grown as needed and never
/// shrunk. Identical output to std::sort for any input. Runs up to 16
/// take the network, which wins up to ~2x there. Longer runs take the
/// radix sort where it wins (kRadixMin, kRadixPerDigit) and std::sort
/// otherwise.
inline void SortRun(uint64_t* v, size_t n, std::vector<uint64_t>* scratch) {
  if (n < 2) return;
  if (n <= 16) {
    small_sort_internal::NetworkSort(v, n);
    return;
  }
  if (n >= small_sort_internal::kRadixMin) {
    if (scratch->size() < n) scratch->resize(std::max(n, scratch->size() * 2));
    if (small_sort_internal::RadixSort(v, n, scratch->data())) return;
  }
  std::sort(v, v + n);
}

/// Merges ascending a[0, na) and b[0, nb) into out[0, na + nb), ascending
/// (see the file comment). `out` may be `a` itself, whose buffer must
/// then hold na + nb values: the merge runs in place, and the prefix of
/// a that sorts before every b value is never moved. Otherwise `out`
/// must not overlap a; `b` never overlaps `out`. Byte-identical to
/// std::merge output.
inline void MergeSorted(const uint64_t* a, size_t na, const uint64_t* b,
                        size_t nb, uint64_t* out) {
  constexpr size_t kBlock = 8;
  // Back to front: the next write, out[i + j - 1], lies at or past a[i]
  // while j > 0, so an in-place merge never overwrites an unread a value.
  size_t i = na;
  size_t j = nb;
  while (i > 0 && j > 0) {
    const uint64_t* block = nullptr;
    if (i >= kBlock && a[i - kBlock] >= b[j - 1]) {
      block = a + (i - kBlock);
      i -= kBlock;
    } else if (j >= kBlock && b[j - kBlock] >= a[i - 1]) {
      block = b + (j - kBlock);
      j -= kBlock;
    }
    if (block != nullptr) {
      // The block sorts at or above every value left in the other
      // input. In place, an a block may overlap its destination.
      std::memmove(out + i + j, block, kBlock * sizeof(uint64_t));
      continue;
    }
    // Up to eight selects. Each but the last loads the next value of both
    // inputs before it compares (in bounds: with n selects left, both
    // inputs hold at least n values), so the next compare waits on a
    // cmov, not on a load whose address the previous compare decided.
    uint64_t x = a[i - 1];
    uint64_t y = b[j - 1];
    for (size_t n = std::min({i, j, kBlock}); n > 1; --n) {
      const uint64_t x_next = a[i - 2];
      const uint64_t y_next = b[j - 2];
      const bool take_a = x > y;
      out[i + j - 1] = take_a ? x : y;
      x = take_a ? x_next : x;
      y = take_a ? y : y_next;
      i -= take_a;
      j -= !take_a;
    }
    const bool take_a = x > y;
    out[i + j - 1] = take_a ? x : y;
    i -= take_a;
    j -= !take_a;
  }
  if (j > 0) std::memcpy(out, b, j * sizeof(uint64_t));
  if (i > 0 && out != a) std::memcpy(out, a, i * sizeof(uint64_t));
}

}  // namespace disttrack

#endif  // DISTTRACK_COMMON_SMALL_SORT_H_
