// Tests for disttrack/common: Rng, math utilities, running statistics,
// and the run sort and merge of small_sort.h.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/math_util.h"
#include "disttrack/common/random.h"
#include "disttrack/common/small_sort.h"
#include "disttrack/common/stats.h"
#include "disttrack/common/status.h"

namespace disttrack {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.UniformU64(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(19);
  const int kDraws = 200000;
  int heads = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateEnds) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(0.0));
  }
}

TEST(RngTest, GeometricLevelDistribution) {
  Rng rng(29);
  const int kDraws = 200000;
  std::vector<int> level_count(20, 0);
  for (int i = 0; i < kDraws; ++i) {
    int level = rng.GeometricLevel();
    if (level < 20) ++level_count[level];
  }
  // P(level == j) = 2^-(j+1).
  EXPECT_NEAR(level_count[0], kDraws / 2.0, kDraws * 0.01);
  EXPECT_NEAR(level_count[1], kDraws / 4.0, kDraws * 0.01);
  EXPECT_NEAR(level_count[2], kDraws / 8.0, kDraws * 0.01);
}

TEST(RngTest, GeometricFailuresMean) {
  Rng rng(31);
  const double p = 0.05;
  const int kDraws = 100000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(rng.GeometricFailures(p));
  }
  // Mean failures = (1-p)/p = 19.
  EXPECT_NEAR(sum / kDraws, (1 - p) / p, 0.5);
}

TEST(RngTest, GeometricFailuresWithPOne) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.GeometricFailures(1.0), 0u);
}

TEST(RngTest, SampleWithoutReplacementIsASubset) {
  Rng rng(41);
  std::vector<uint32_t> out;
  rng.SampleWithoutReplacement(100, 30, &out);
  ASSERT_EQ(out.size(), 30u);
  std::vector<bool> seen(100, false);
  for (uint32_t v : out) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]) << "duplicate " << v;
    seen[v] = true;
  }
}

TEST(RngTest, SampleWithoutReplacementUniformMarginals) {
  Rng rng(43);
  std::vector<int> hits(20, 0);
  const int kDraws = 20000;
  std::vector<uint32_t> out;
  for (int i = 0; i < kDraws; ++i) {
    rng.SampleWithoutReplacement(20, 5, &out);
    for (uint32_t v : out) ++hits[v];
  }
  for (int h : hits) {
    EXPECT_NEAR(h, kDraws * 5 / 20, kDraws * 0.05);
  }
}

TEST(MathUtilTest, FloorPow2) {
  EXPECT_EQ(FloorPow2(1.0), 1u);
  EXPECT_EQ(FloorPow2(1.5), 1u);
  EXPECT_EQ(FloorPow2(2.0), 2u);
  EXPECT_EQ(FloorPow2(3.99), 2u);
  EXPECT_EQ(FloorPow2(4.0), 4u);
  EXPECT_EQ(FloorPow2(1023.0), 512u);
  EXPECT_EQ(FloorPow2(1024.0), 1024u);
}

TEST(MathUtilTest, CeilPow2) {
  EXPECT_EQ(CeilPow2(1), 1u);
  EXPECT_EQ(CeilPow2(2), 2u);
  EXPECT_EQ(CeilPow2(3), 4u);
  EXPECT_EQ(CeilPow2(1025), 2048u);
}

TEST(MathUtilTest, IsPow2) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(63));
}

TEST(MathUtilTest, CeilAndFloorLog2) {
  EXPECT_EQ(CeilLog2(1), 0);
  EXPECT_EQ(CeilLog2(2), 1);
  EXPECT_EQ(CeilLog2(3), 2);
  EXPECT_EQ(CeilLog2(8), 3);
  EXPECT_EQ(CeilLog2(9), 4);
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(8), 3);
  EXPECT_EQ(FloorLog2(9), 3);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
}

TEST(MathUtilTest, SafeDiv) {
  EXPECT_DOUBLE_EQ(SafeDiv(10, 2), 5.0);
  EXPECT_DOUBLE_EQ(SafeDiv(10, 0, -1.0), -1.0);
}

TEST(StatsTest, RunningStatsMeanVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(StatsTest, RunningStatsEmptyAndSingle) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5}), 5.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, SampleQuantile) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 1.0), 10.0);
  EXPECT_NEAR(SampleQuantile(v, 0.5), 6.0, 1.0);
}

TEST(StatsTest, CoverageWithin) {
  std::vector<double> errors{-0.5, 0.2, 1.5, -2.0, 0.0};
  EXPECT_DOUBLE_EQ(CoverageWithin(errors, 1.0), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(CoverageWithin(errors, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(CoverageWithin({}, 1.0), 1.0);
}

TEST(StatsTest, LogLogSlopeRecoversExponent) {
  std::vector<double> x{2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 * std::pow(v, 1.7));
  EXPECT_NEAR(LogLogSlope(x, y), 1.7, 1e-9);
}

TEST(StatsTest, LogLogSlopeDegenerate) {
  EXPECT_DOUBLE_EQ(LogLogSlope({1.0}, {2.0}), 0.0);
  EXPECT_DOUBLE_EQ(LogLogSlope({1, 2}, {0, 2}), 0.0);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status bad = Status::InvalidArgument("epsilon");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "InvalidArgument: epsilon");
  Status pre = Status::FailedPrecondition("not built");
  EXPECT_EQ(pre.code(), Status::Code::kFailedPrecondition);
  EXPECT_NE(pre.ToString().find("not built"), std::string::npos);
}

// NetworkSort on its own, at every length SortRun hands it (2..16), from
// unaligned starts, on distinct and on duplicate-heavy keys.
TEST(SmallSortTest, NetworkSortAgreesWithStdSortAtEveryLengthAndAlignment) {
  Rng rng(0x5eed0002);
  for (int trial = 0; trial < 400; ++trial) {
    for (size_t n = 2; n <= 16; ++n) {
      size_t off = rng.UniformU64(4);
      std::vector<uint64_t> buf(off + n);
      bool dup_heavy = trial % 3 == 0;
      for (size_t i = 0; i < n; ++i) {
        buf[off + i] = dup_heavy ? rng.UniformU64(4) : rng.NextU64();
      }
      std::vector<uint64_t> want(buf.begin() + static_cast<long>(off),
                                 buf.end());
      std::sort(want.begin(), want.end());
      small_sort_internal::NetworkSort(buf.data() + off, n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[off + i], want[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

// SortRun over every tier: every length 0..320 (the network, the
// std::sort middle and the radix cutovers at 64 and 24 per varying digit,
// up to 192 for full-width keys), then sparser lengths up to 4096, for
// key shapes that vary in no digit, one digit at either end, every digit,
// only a few distinct values, and only the extremes. One scratch serves
// every call, as in the tracker, so stale scratch contents are covered.
TEST(SmallSortTest, SortRunMatchesStdSortAcrossCutovers) {
  Rng rng(0x5eed0006);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 320; ++n) lengths.push_back(n);
  for (size_t n = 321; n <= 4096; n = n * 9 / 8 + 1) lengths.push_back(n);
  lengths.push_back(4096);
  auto key = [&](int shape) -> uint64_t {
    switch (shape) {
      case 0: return 0x0123456789ABCDEFull;                // all equal
      case 1: return rng.UniformU64(256) << 56;            // top byte
      case 2: return 0x5500000000000000ull | rng.UniformU64(256);  // bottom
      case 3: return rng.NextU64();                        // full width
      case 4: return rng.UniformU64(5) * 0x0101010101ull;  // duplicates
      default: return rng.UniformU64(2) == 0 ? 0 : ~0ull;  // 0 / max
    }
  };
  std::vector<uint64_t> scratch;
  for (int shape = 0; shape < 6; ++shape) {
    for (size_t n : lengths) {
      std::vector<uint64_t> v(n);
      for (auto& x : v) x = key(shape);
      std::vector<uint64_t> want = v;
      std::sort(want.begin(), want.end());
      SortRun(v.data(), n, &scratch);
      ASSERT_EQ(v, want) << "shape " << shape << " n " << n;
    }
  }
}

// MergeSorted against std::merge: every (na, nb) in 0..24 x 0..24 and
// long runs on either side (the eight-value block path's edges 7-9 and
// 15-17 among them); interleaved, disjoint (either input entirely below
// the other) and duplicate-heavy keys; into a separate output and in
// place (output == first input); the output 1-4 words past the start
// of its buffer, so every alignment is hit. Guard words on both sides of
// the output must stay untouched.
TEST(SmallSortTest, MergeSortedAgreesWithStdMergeAllTailsAndAlignments) {
  Rng rng(0x5eed0004);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 24; ++n) lengths.push_back(n);
  for (size_t n : {31, 32, 33, 100, 257, 1000}) lengths.push_back(n);
  constexpr uint64_t kGuard = 0xDEADBEEFull;
  constexpr size_t kPad = 4;
  enum Keys { kInterleaved, kABelowB, kBBelowA, kDuplicates, kNumKeys };
  auto draw = [&](int keys, bool first) -> uint64_t {
    const uint64_t below = rng.UniformU64(uint64_t{1} << 32);
    switch (keys) {
      case kInterleaved: return rng.NextU64();
      case kABelowB: return first ? below : below + (uint64_t{1} << 32);
      case kBBelowA: return first ? below + (uint64_t{1} << 32) : below;
      default: return rng.UniformU64(4);
    }
  };
  for (int keys = 0; keys < kNumKeys; ++keys) {
    for (size_t na : lengths) {
      for (size_t nb : lengths) {
        std::vector<uint64_t> a(na);
        std::vector<uint64_t> b(nb);
        for (auto& x : a) x = draw(keys, true);
        for (auto& x : b) x = draw(keys, false);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        std::vector<uint64_t> want(na + nb);
        std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
        const size_t off = 1 + rng.UniformU64(4);
        for (bool in_place : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "keys " << keys << " na " << na << " nb " << nb
                       << " offset " << off << " in place " << in_place);
          std::vector<uint64_t> buf(off + na + nb + kPad, kGuard);
          uint64_t* out = buf.data() + off;
          if (in_place) {
            std::copy(a.begin(), a.end(), out);
            MergeSorted(out, na, b.data(), nb, out);
          } else {
            MergeSorted(a.data(), na, b.data(), nb, out);
          }
          ASSERT_TRUE(std::equal(want.begin(), want.end(), out));
          for (size_t i = 0; i < off; ++i) ASSERT_EQ(buf[i], kGuard);
          for (size_t i = off + na + nb; i < buf.size(); ++i) {
            ASSERT_EQ(buf[i], kGuard);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace disttrack
