// The repo's single SIMD seam: every intrinsic lives in this header, each
// kernel next to the scalar mirror that defines its semantics (enforced by
// the `simd-isolation` lint rule — see docs/STATIC_ANALYSIS.md).
//
// Dispatch contract. Kernels are compiled with per-function
// `target("avx2")` attributes, so the surrounding translation units keep
// the portable baseline ISA and one binary serves every x86-64 machine:
// the vector path is taken only when (a) the build enabled it
// (`DISTTRACK_SIMD`, default ON — compiled out entirely when OFF, making
// that build token-for-token the scalar tree), (b) cpuid reports AVX2 at
// runtime, and (c) neither the `DISTTRACK_SIMD_DISPATCH=scalar`
// environment override nor SetDispatchMode(kForceScalar) is in effect.
// The env override is how CI proves the scalar fallback on the same
// binary; SetDispatchMode is how the bench and the kernel differential
// test flip modes in-process.
//
// Determinism contract (docs/ARCHITECTURE.md "SIMD kernels & dispatch").
// Every kernel here is RNG-free and value-exact: sorted/merged uint64
// output is a pure function of the input multiset, a probe-group match is
// a pure function of the ctrl bytes, and a merge-path selection is a pure
// function of the two arrays. Flipping dispatch therefore cannot move a
// coin draw, a CommMeter charge, or an estimate by even an ulp — all SIMD
// paths stay in determinism tier A, pinned by tests/simd_kernel_test.cc
// differentials plus the existing bit-identity tiers run in both dispatch
// modes.

#ifndef DISTTRACK_COMMON_SIMD_H_
#define DISTTRACK_COMMON_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(DISTTRACK_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define DISTTRACK_SIMD_ENABLED 1
#include <immintrin.h>
#define DISTTRACK_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define DISTTRACK_SIMD_ENABLED 0
#endif

namespace disttrack {
namespace simd {

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

enum class DispatchMode {
  kAuto,         // AVX2 iff compiled in, cpuid-supported, and no env override
  kForceScalar,  // scalar mirrors everywhere (bench A/B, CI fallback leg)
};

namespace internal {

inline int ComputeDispatch() {
#if DISTTRACK_SIMD_ENABLED
  const char* env = std::getenv("DISTTRACK_SIMD_DISPATCH");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return 0;
  return __builtin_cpu_supports("avx2") ? 1 : 0;
#else
  return 0;
#endif
}

// -1 = undecided, 0 = scalar, 1 = avx2. A relaxed atomic: the value is
// write-once in normal runs (bench/tests flip it only between phases).
inline std::atomic<int>& DispatchState() {
  static std::atomic<int> state{-1};
  return state;
}

}  // namespace internal

/// True when kernels will take the AVX2 path. Cheap enough to query per
/// call (one relaxed load + compare after first use).
inline bool Avx2Active() {
  int s = internal::DispatchState().load(std::memory_order_relaxed);
  if (s < 0) {
    s = internal::ComputeDispatch();
    internal::DispatchState().store(s, std::memory_order_relaxed);
  }
  return s == 1;
}

/// Bench/test hook: kForceScalar pins every kernel to its scalar mirror;
/// kAuto re-derives from the build/cpuid/env rule. Not for library code.
inline void SetDispatchMode(DispatchMode mode) {
  internal::DispatchState().store(
      mode == DispatchMode::kForceScalar ? 0 : internal::ComputeDispatch(),
      std::memory_order_relaxed);
}

/// True when the AVX2 kernels exist in this binary at all.
inline bool CompiledWithSimd() { return DISTTRACK_SIMD_ENABLED != 0; }

// ---------------------------------------------------------------------------
// Ctrl-byte group probe (CounterTable)
//
// SwissTable-style: one 32-byte load of the control mirror answers "which
// of the next 32 probe positions carry this fingerprint, and which are
// empty" as two bitmasks. The caller visits match bits below the first
// empty bit — exactly the scalar linear-probe visit order.
// ---------------------------------------------------------------------------

inline constexpr size_t kCtrlGroupWidth = 32;

struct CtrlGroup {
  uint32_t match;  // bit i: ctrl[i] == fp
  uint32_t empty;  // bit i: ctrl[i] == 0
};

inline CtrlGroup MatchCtrlGroupScalar(const uint8_t* ctrl, uint8_t fp) {
  CtrlGroup g{0, 0};
  for (uint32_t i = 0; i < kCtrlGroupWidth; ++i) {
    g.match |= static_cast<uint32_t>(ctrl[i] == fp) << i;
    g.empty |= static_cast<uint32_t>(ctrl[i] == 0) << i;
  }
  return g;
}

#if DISTTRACK_SIMD_ENABLED
DISTTRACK_TARGET_AVX2 inline CtrlGroup MatchCtrlGroupAvx2(const uint8_t* ctrl,
                                                          uint8_t fp) {
  __m256i g =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ctrl));
  uint32_t match = static_cast<uint32_t>(_mm256_movemask_epi8(
      _mm256_cmpeq_epi8(g, _mm256_set1_epi8(static_cast<char>(fp)))));
  uint32_t empty = static_cast<uint32_t>(_mm256_movemask_epi8(
      _mm256_cmpeq_epi8(g, _mm256_setzero_si256())));
  return CtrlGroup{match, empty};
}
#endif

inline CtrlGroup MatchCtrlGroup(const uint8_t* ctrl, uint8_t fp) {
#if DISTTRACK_SIMD_ENABLED
  if (Avx2Active()) return MatchCtrlGroupAvx2(ctrl, fp);
#endif
  return MatchCtrlGroupScalar(ctrl, fp);
}

// ---------------------------------------------------------------------------
// In-register sorting networks for uint64 (small_sort.h's <=16 regime)
//
// Four ymm registers hold a 4x4 matrix of sign-flipped values (AVX2 has
// only signed 64-bit compares; x ^ 2^63 order-embeds unsigned into
// signed). Column-sort + transpose yields four ascending 4-runs; bitonic
// mergers fuse them to 8 and 16. Short inputs are padded with UINT64_MAX,
// so the first n outputs are the sorted input regardless of n.
// ---------------------------------------------------------------------------

#if DISTTRACK_SIMD_ENABLED
namespace internal {

DISTTRACK_TARGET_AVX2 inline __m256i SignFlip(__m256i v) {
  return _mm256_xor_si256(
      v, _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull)));
}

DISTTRACK_TARGET_AVX2 inline __m256i Min64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

DISTTRACK_TARGET_AVX2 inline __m256i Max64(__m256i a, __m256i b) {
  return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

// Vertical compare-exchange: per lane, a <- min, b <- max.
DISTTRACK_TARGET_AVX2 inline void Coex(__m256i& a, __m256i& b) {
  __m256i lo = Min64(a, b);
  b = Max64(a, b);
  a = lo;
}

// Intra-register compare-exchange of lane pairs (0,1)(2,3).
DISTTRACK_TARGET_AVX2 inline __m256i CoexPairs(__m256i v) {
  __m256i y = _mm256_permute4x64_epi64(v, 0xB1);  // lanes 1,0,3,2
  return _mm256_blend_epi32(Min64(v, y), Max64(v, y), 0xCC);
}

// Intra-register compare-exchange of lane pairs (0,2)(1,3).
DISTTRACK_TARGET_AVX2 inline __m256i CoexHalves(__m256i v) {
  __m256i y = _mm256_permute4x64_epi64(v, 0x4E);  // lanes 2,3,0,1
  return _mm256_blend_epi32(Min64(v, y), Max64(v, y), 0xF0);
}

// Full 4-element sorting network inside one register.
DISTTRACK_TARGET_AVX2 inline __m256i Sort4(__m256i v) {
  v = CoexPairs(v);   // (0,1)(2,3)
  v = CoexHalves(v);  // (0,2)(1,3)
  __m256i y = _mm256_permute4x64_epi64(v, 0xD8);  // lanes 0,2,1,3
  return _mm256_blend_epi32(Min64(v, y), Max64(v, y), 0x30);  // (1,2)
}

// Cleans a 4-lane bitonic sequence into ascending order.
DISTTRACK_TARGET_AVX2 inline __m256i BitonicClean4(__m256i v) {
  return CoexPairs(CoexHalves(v));
}

DISTTRACK_TARGET_AVX2 inline __m256i Reverse4(__m256i v) {
  return _mm256_permute4x64_epi64(v, 0x1B);  // lanes 3,2,1,0
}

// a, b ascending 4-runs -> (a, b) one ascending 8-run.
DISTTRACK_TARGET_AVX2 inline void Merge8(__m256i& a, __m256i& b) {
  b = Reverse4(b);
  Coex(a, b);
  a = BitonicClean4(a);
  b = BitonicClean4(b);
}

// (a0,a1), (b0,b1) ascending 8-runs -> a0,a1,b0,b1 one ascending 16-run.
DISTTRACK_TARGET_AVX2 inline void Merge16(__m256i& a0, __m256i& a1,
                                          __m256i& b0, __m256i& b1) {
  __m256i r0 = Reverse4(b1);
  __m256i r1 = Reverse4(b0);
  Coex(a0, r0);
  Coex(a1, r1);
  Coex(a0, a1);
  a0 = BitonicClean4(a0);
  a1 = BitonicClean4(a1);
  Coex(r0, r1);
  b0 = BitonicClean4(r0);
  b1 = BitonicClean4(r1);
}

// 4x4 transpose of 64-bit lanes across four registers.
DISTTRACK_TARGET_AVX2 inline void Transpose4x4(__m256i& r0, __m256i& r1,
                                               __m256i& r2, __m256i& r3) {
  __m256i t0 = _mm256_unpacklo_epi64(r0, r1);
  __m256i t1 = _mm256_unpackhi_epi64(r0, r1);
  __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
  __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
  r0 = _mm256_permute2x128_si256(t0, t2, 0x20);
  r1 = _mm256_permute2x128_si256(t1, t3, 0x20);
  r2 = _mm256_permute2x128_si256(t0, t2, 0x31);
  r3 = _mm256_permute2x128_si256(t1, t3, 0x31);
}

DISTTRACK_TARGET_AVX2 inline void SortSmallAvx2(uint64_t* v, size_t n) {
  alignas(32) uint64_t buf[16];
  // Copy into the flipped domain; pad with +inf (flipped UINT64_MAX).
  for (size_t i = 0; i < n; ++i) buf[i] = v[i] ^ 0x8000000000000000ull;
  size_t width = n <= 8 ? 8 : 16;
  for (size_t i = n; i < width; ++i) buf[i] = 0x7FFFFFFFFFFFFFFFull;
  __m256i r0 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf));
  __m256i r1 = _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 4));
  if (width == 8) {
    r0 = Sort4(r0);
    r1 = Sort4(r1);
    Merge8(r0, r1);
  } else {
    __m256i r2 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 8));
    __m256i r3 =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(buf + 12));
    // Sort the four lane-columns vertically, transpose to four ascending
    // 4-runs, then bitonic-merge 4+4 and 8+8.
    Coex(r0, r2);
    Coex(r1, r3);
    Coex(r0, r1);
    Coex(r2, r3);
    Coex(r1, r2);
    Transpose4x4(r0, r1, r2, r3);
    Merge8(r0, r1);
    Merge8(r2, r3);
    Merge16(r0, r1, r2, r3);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), r2);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 12), r3);
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf), r0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 4), r1);
  for (size_t i = 0; i < n; ++i) v[i] = buf[i] ^ 0x8000000000000000ull;
}

}  // namespace internal
#endif  // DISTTRACK_SIMD_ENABLED

/// Below this the scalar network beats the register sort: the vector path
/// always runs the full 16-lane network (shorter inputs pad with +inf), so
/// at n=5..8 it does 2-3x the useful work plus the out-of-line avx2 call.
/// Measured on the reference container (Xeon 2.1GHz, varied inputs):
/// 0.58x at n=5, 0.74x at n=8, 1.03x at n=12, 1.34x at n=16.
inline constexpr size_t kRegisterSortMin = 12;

/// Sorts v[0, n) ascending in registers when the AVX2 path is active and
/// kRegisterSortMin <= n <= 16; returns false (input untouched) otherwise
/// so the caller runs its scalar network. Output equals std::sort for any
/// input.
inline bool SortSmall16(uint64_t* v, size_t n) {
#if DISTTRACK_SIMD_ENABLED
  if (n >= kRegisterSortMin && n <= 16 && Avx2Active()) {
    internal::SortSmallAvx2(v, n);
    return true;
  }
#else
  (void)v;
  (void)n;
#endif
  return false;
}

// ---------------------------------------------------------------------------
// Two-array merge (run_ladder's gap-merge inner loop)
//
// Blockwise bitonic merge: a 4-lane carry of the smallest unemitted
// values is merged with a 4-block from whichever input's head is
// smaller; the low half is emitted, the high half carries. The uint64
// output multiset is sorted either way, so the result is byte-identical
// to std::merge.
// ---------------------------------------------------------------------------

inline void MergeSortedScalar(const uint64_t* a, size_t na, const uint64_t* b,
                              size_t nb, uint64_t* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) *out++ = a[i] <= b[j] ? a[i++] : b[j++];
  while (i < na) *out++ = a[i++];
  while (j < nb) *out++ = b[j++];
}

#if DISTTRACK_SIMD_ENABLED
namespace internal {

DISTTRACK_TARGET_AVX2 inline void MergeSortedAvx2(const uint64_t* a,
                                                  size_t na, const uint64_t* b,
                                                  size_t nb, uint64_t* out) {
  const uint64_t* pa = a;
  const uint64_t* pb = b;
  const uint64_t* ea = a + na;
  const uint64_t* eb = b + nb;
  uint64_t* po = out;
  alignas(32) uint64_t cbuf[4];
  size_t cn = 0;
  if (na >= 4 && nb >= 4) {
    __m256i va = SignFlip(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa)));
    __m256i vb = SignFlip(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb)));
    pa += 4;
    pb += 4;
    Merge8(va, vb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(po), SignFlip(va));
    po += 4;
    __m256i carry = vb;
    while (pa + 4 <= ea && pb + 4 <= eb) {
      const uint64_t* src;
      if (*pa <= *pb) {
        src = pa;
        pa += 4;
      } else {
        src = pb;
        pb += 4;
      }
      __m256i v = SignFlip(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
      Merge8(v, carry);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(po), SignFlip(v));
      po += 4;
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(cbuf), SignFlip(carry));
    cn = 4;
  }
  // Three-way scalar finish: carry (sorted) + both tails.
  size_t ci = 0;
  for (;;) {
    int which = -1;
    uint64_t best = 0;
    if (ci < cn) {
      best = cbuf[ci];
      which = 0;
    }
    if (pa < ea && (which < 0 || *pa < best)) {
      best = *pa;
      which = 1;
    }
    if (pb < eb && (which < 0 || *pb < best)) {
      best = *pb;
      which = 2;
    }
    if (which < 0) break;
    *po++ = best;
    if (which == 0) {
      ++ci;
    } else if (which == 1) {
      ++pa;
    } else {
      ++pb;
    }
  }
}

}  // namespace internal
#endif  // DISTTRACK_SIMD_ENABLED

/// Merges ascending a[0,na) and b[0,nb) into out[0, na+nb), ascending.
/// `out` must not alias the inputs. Byte-identical to std::merge output.
///
/// The 16/16 floor is measured (reference container, fresh inputs each
/// call so the branch predictor cannot memorize a merge sequence): the
/// bitonic path wins 1.3-1.6x from 16+16 up, but loses (0.60x at 8+8)
/// below it, where the call + vzeroupper overhead dominates.
inline void MergeSorted(const uint64_t* a, size_t na, const uint64_t* b,
                        size_t nb, uint64_t* out) {
#if DISTTRACK_SIMD_ENABLED
  if (Avx2Active() && na >= 16 && nb >= 16) {
    internal::MergeSortedAvx2(a, na, b, nb, out);
    return;
  }
#endif
  MergeSortedScalar(a, na, b, nb, out);
}

// ---------------------------------------------------------------------------
// Two-array merge-path selection (compactor_summary's 2-view accessor)
//
// TwoViewSelect is the classic selection: element at sorted position i of
// the merge of two ascending arrays, by binary-searching the split point.
// TwoViewSelect4 resolves four independent selections. It stays scalar:
// masked 64-bit gathers measured 0.35x (view sizes 32-128) to 0.75x
// (1024) against these well-predicted adjacent searches.
// ---------------------------------------------------------------------------

inline uint64_t TwoViewSelect(const uint64_t* A, size_t a, const uint64_t* B,
                              size_t b, size_t i) {
  size_t need = i + 1;
  size_t lo = need > b ? need - b : 0;
  size_t hi = need < a ? need : a;
  while (lo < hi) {
    size_t j = (lo + hi) / 2;
    if (A[j] < B[need - j - 1]) {
      lo = j + 1;
    } else {
      hi = j;
    }
  }
  size_t j = lo;
  if (j == 0) return B[need - 1];
  if (need == j) return A[j - 1];
  uint64_t va = A[j - 1];
  uint64_t vb = B[need - j - 1];
  return va > vb ? va : vb;
}

/// Resolves out[t] = TwoViewSelect(A, a, B, b, idx[t]) for t in [0, 4).
inline void TwoViewSelect4(const uint64_t* A, size_t a, const uint64_t* B,
                           size_t b, const size_t idx[4], uint64_t* out) {
  for (int t = 0; t < 4; ++t) out[t] = TwoViewSelect(A, a, B, b, idx[t]);
}

}  // namespace simd
}  // namespace disttrack

#endif  // DISTTRACK_COMMON_SIMD_H_
