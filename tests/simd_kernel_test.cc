// Differential suite for every kernel in common/simd.h: the AVX2 path
// must agree with its scalar mirror on randomized inputs covering all
// alignments, tail lengths 0-15, and duplicate-heavy key distributions —
// and the whole suite runs in both dispatch modes, so on an AVX2 machine
// the vector kernels are exercised and on any machine the scalar
// fallback is proven to satisfy the same contracts.

#include "disttrack/common/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "disttrack/common/random.h"
#include "disttrack/common/small_sort.h"
#include "disttrack/frequency/counter_table.h"

namespace disttrack {
namespace {

// Runs `body` under both dispatch modes and always restores kAuto.
template <typename Fn>
void InBothDispatchModes(Fn&& body) {
  simd::SetDispatchMode(simd::DispatchMode::kAuto);
  body();
  simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
  body();
  simd::SetDispatchMode(simd::DispatchMode::kAuto);
}

TEST(SimdDispatch, ForceScalarPinsAvx2Off) {
  simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
  EXPECT_FALSE(simd::Avx2Active());
  simd::SetDispatchMode(simd::DispatchMode::kAuto);
  if (!simd::CompiledWithSimd()) EXPECT_FALSE(simd::Avx2Active());
}

TEST(SimdCtrlGroup, MatchesScalarMirrorAtEveryAlignment) {
  Rng rng(0x5eed0001);
  // Oversized buffer so the group window can start at any byte offset.
  std::vector<uint8_t> ctrl(4096 + simd::kCtrlGroupWidth);
  InBothDispatchModes([&] {
    for (int trial = 0; trial < 200; ++trial) {
      for (auto& c : ctrl) {
        // Mix of empties, one repeated fingerprint, and arbitrary bytes.
        uint64_t r = rng.UniformU64(4);
        c = r == 0 ? 0
                   : (r == 1 ? 0x80 : static_cast<uint8_t>(
                                          rng.UniformU64(256)));
      }
      for (size_t off = 0; off < simd::kCtrlGroupWidth; ++off) {
        uint8_t fp = trial % 2 == 0
                         ? 0x80
                         : static_cast<uint8_t>(0x80 | rng.UniformU64(128));
        simd::CtrlGroup got = simd::MatchCtrlGroup(ctrl.data() + off, fp);
        simd::CtrlGroup want =
            simd::MatchCtrlGroupScalar(ctrl.data() + off, fp);
        ASSERT_EQ(got.match, want.match) << "offset " << off;
        ASSERT_EQ(got.empty, want.empty) << "offset " << off;
      }
    }
  });
}

TEST(SimdSortSmall, AgreesWithStdSortForEveryLengthAndAlignment) {
  Rng rng(0x5eed0002);
  InBothDispatchModes([&] {
    for (int trial = 0; trial < 400; ++trial) {
      for (size_t n = 0; n <= 16; ++n) {
        // Unaligned starts: sort inside an offset window of a buffer.
        size_t off = rng.UniformU64(4);
        std::vector<uint64_t> buf(off + n);
        bool dup_heavy = trial % 3 == 0;
        for (size_t i = 0; i < n; ++i) {
          buf[off + i] = dup_heavy ? rng.UniformU64(4)
                                   : rng.NextU64();
        }
        std::vector<uint64_t> want(buf.begin() + static_cast<long>(off),
                                   buf.end());
        std::sort(want.begin(), want.end());
        std::vector<uint64_t> input(buf.begin() + static_cast<long>(off),
                                    buf.end());
        if (!simd::SortSmall16(buf.data() + off, n)) {
          // Contract: a declined call leaves the input untouched.
          for (size_t i = 0; i < n; ++i) ASSERT_EQ(buf[off + i], input[i]);
          small_sort_internal::NetworkSort(buf.data() + off, n > 0 ? n : 1);
          if (n < 2) continue;
        }
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(buf[off + i], want[i]) << "n=" << n << " i=" << i;
        }
      }
    }
  });
}

TEST(SimdSortSmall, SortRunDispatchesIdentically) {
  Rng rng(0x5eed0003);
  InBothDispatchModes([&] {
    for (int trial = 0; trial < 200; ++trial) {
      size_t n = rng.UniformU64(40);
      std::vector<uint64_t> v(n);
      for (auto& x : v) x = rng.UniformU64(trial % 2 == 0 ? 8 : ~0ull);
      std::vector<uint64_t> want = v;
      std::sort(want.begin(), want.end());
      std::vector<uint64_t> scratch;
      SortRun(v.data(), n, &scratch);
      ASSERT_EQ(v, want);
    }
  });
}

// SortRun over the radix regime: every length 0..320 (the network, the
// std::sort middle and the radix cutovers at 64 and 24 per varying digit,
// up to 192 for full-width keys), then sparser lengths up to 4096, for
// key shapes that vary in no digit, one digit at either end, every digit,
// only a few distinct values, and only the extremes. One scratch serves
// every call, as in the tracker, so stale scratch contents are covered.
TEST(SimdSortSmall, SortRunMatchesStdSortAcrossRadixCutovers) {
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
  InBothDispatchModes([&] {
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
  });
}

TEST(SimdMerge, AgreesWithStdMergeAllTailsAndAlignments) {
  Rng rng(0x5eed0004);
  InBothDispatchModes([&] {
    for (int trial = 0; trial < 300; ++trial) {
      // Cover tails 0-15 on each side plus longer runs, every alignment.
      size_t na = trial % 2 == 0 ? rng.UniformU64(16)
                                 : 16 + rng.UniformU64(120);
      size_t nb = trial % 3 == 0 ? rng.UniformU64(16)
                                 : 16 + rng.UniformU64(120);
      size_t offa = rng.UniformU64(4);
      size_t offb = rng.UniformU64(4);
      uint64_t lim = trial % 4 == 0 ? 8 : ~0ull;  // duplicate-heavy mix
      std::vector<uint64_t> a(offa + na);
      std::vector<uint64_t> b(offb + nb);
      for (size_t i = 0; i < na; ++i) a[offa + i] = rng.UniformU64(lim);
      for (size_t i = 0; i < nb; ++i) b[offb + i] = rng.UniformU64(lim);
      std::sort(a.begin() + static_cast<long>(offa), a.end());
      std::sort(b.begin() + static_cast<long>(offb), b.end());
      std::vector<uint64_t> want(na + nb);
      std::merge(a.begin() + static_cast<long>(offa), a.end(),
                 b.begin() + static_cast<long>(offb), b.end(), want.begin());
      std::vector<uint64_t> got(na + nb + 7, 0xDEADull);
      size_t offo = rng.UniformU64(4);
      simd::MergeSorted(a.data() + offa, na, b.data() + offb, nb,
                        got.data() + offo);
      for (size_t i = 0; i < na + nb; ++i) {
        ASSERT_EQ(got[offo + i], want[i]) << "na=" << na << " nb=" << nb;
      }
    }
  });
}

// Whole-table differential: the grouped-probe increment path must leave
// the counter table in exactly the state the scalar walk leaves, for
// bursty (duplicate-run) and scattered key mixes alike.
TEST(SimdCounterTable, IncrementTrackedRunMatchesScalarTable) {
  Rng rng(0x5eed0006);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<uint64_t> tracked;
    size_t num_tracked = 1 + rng.UniformU64(200);
    for (size_t i = 0; i < num_tracked; ++i) {
      tracked.push_back(rng.UniformU64(1000));
    }
    std::vector<uint64_t> run;
    size_t run_len = rng.UniformU64(3000);
    for (size_t i = 0; i < run_len; ++i) {
      uint64_t key = rng.UniformU64(1000);
      size_t burst = 1 + rng.UniformU64(trial % 2 == 0 ? 6 : 1);
      for (size_t r = 0; r < burst; ++r) run.push_back(key);
    }
    simd::SetDispatchMode(simd::DispatchMode::kAuto);
    frequency::CounterTable simd_table;
    for (uint64_t key : tracked) {
      if (simd_table.Find(key) == nullptr) simd_table.Insert(key, 1);
    }
    simd_table.IncrementTrackedRun(run.data(), run.size());

    simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
    frequency::CounterTable scalar_table;
    for (uint64_t key : tracked) {
      if (scalar_table.Find(key) == nullptr) scalar_table.Insert(key, 1);
    }
    scalar_table.IncrementTrackedRun(run.data(), run.size());
    simd::SetDispatchMode(simd::DispatchMode::kAuto);

    ASSERT_EQ(simd_table.size(), scalar_table.size());
    simd_table.ForEach([&](uint64_t key, uint64_t value) {
      const uint64_t* other = scalar_table.Find(key);
      ASSERT_NE(other, nullptr) << "key " << key;
      ASSERT_EQ(value, *other) << "key " << key;
    });
  }
}

// Find/Insert/Clear/Grow keep the grouped probe and the scalar probe in
// agreement across epochs and growth (the mirrored ctrl tail must track
// every mutation).
TEST(SimdCounterTable, FindAgreesAcrossEpochsAndGrowth) {
  Rng rng(0x5eed0007);
  InBothDispatchModes([&] {
    frequency::CounterTable table;
    std::vector<std::pair<uint64_t, uint64_t>> live;
    for (int epoch = 0; epoch < 6; ++epoch) {
      live.clear();
      size_t inserts = 1 + rng.UniformU64(500);  // forces several grows
      for (size_t i = 0; i < inserts; ++i) {
        uint64_t key = rng.UniformU64(2000);
        if (table.Find(key) == nullptr) {
          uint64_t value = 1 + rng.UniformU64(100);
          table.Insert(key, value);
          live.emplace_back(key, value);
        }
      }
      for (const auto& [key, value] : live) {
        const uint64_t* found = table.Find(key);
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(*found, value);
      }
      for (int probe = 0; probe < 200; ++probe) {
        uint64_t key = 2000 + rng.UniformU64(2000);  // never inserted
        ASSERT_EQ(table.Find(key), nullptr);
      }
      table.Clear();
      ASSERT_EQ(table.size(), 0u);
    }
  });
}

}  // namespace
}  // namespace disttrack
