// Tests for the rank-summary substrate: the compactor ("algorithm A" of
// §4) — in particular the three properties §4 needs from A: unbiasedness,
// variance (εm)², small space — and its ingest of merged ladder windows.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/summaries/compactor_summary.h"
#include "disttrack/summaries/run_ladder.h"
#include "test_util.h"

namespace disttrack {
namespace summaries {
namespace {

uint64_t ExactRankOf(const std::vector<uint64_t>& data, uint64_t x) {
  uint64_t below = 0;
  for (uint64_t v : data) {
    if (v < x) ++below;
  }
  return below;
}

std::vector<uint64_t> RandomData(size_t n, uint64_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) v = rng.UniformU64(universe);
  return data;
}

TEST(CompactorTest, ExactWhileInBuffer) {
  CompactorSummary c(0.5, 3);
  for (uint64_t v : {4ull, 2ull, 9ull}) c.Insert(v);
  EXPECT_DOUBLE_EQ(c.EstimateRank(5), 2.0);
  EXPECT_DOUBLE_EQ(c.EstimateRank(1), 0.0);
  EXPECT_EQ(c.WeightTotal(), 3u);
}

TEST(CompactorTest, WeightIsConserved) {
  CompactorSummary c(0.05, 5);
  for (uint64_t i = 0; i < 12345; ++i) c.Insert(i * 7919 % 100000);
  EXPECT_EQ(c.WeightTotal(), 12345u);
}

TEST(CompactorTest, RankIsMonotoneInQuery) {
  CompactorSummary c(0.02, 7);
  auto data = RandomData(20000, 1 << 16, 13);
  for (uint64_t v : data) c.Insert(v);
  double prev = -1;
  for (uint64_t x = 0; x <= (1 << 16); x += 1 << 11) {
    double r = c.EstimateRank(x);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(CompactorTest, UnbiasedOverTrials) {
  // Property 1 of algorithm A: E[EstimateRank(x)] = rank(x).
  const size_t kN = 4096;
  auto data = RandomData(kN, 1 << 16, 17);
  uint64_t x = 1 << 15;
  double truth = static_cast<double>(ExactRankOf(data, x));
  const double eps = 0.1;
  auto errors = testing_util::CollectErrors(2000, [&](uint64_t seed) {
    CompactorSummary c(eps, seed);
    for (uint64_t v : data) c.Insert(v);
    return c.EstimateRank(x) - truth;
  });
  // |mean| should be ~ std/sqrt(trials) <= eps*n/sqrt(2000) ~ 9.
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 30.0);
}

TEST(CompactorTest, VarianceWithinEpsSquared) {
  // Property 2 of algorithm A: Var <= (eps * m)².
  const size_t kN = 8192;
  auto data = RandomData(kN, 1 << 16, 19);
  uint64_t x = 1 << 15;
  for (double eps : {0.05, 0.1, 0.2}) {
    auto errors = testing_util::CollectErrors(600, [&](uint64_t seed) {
      CompactorSummary c(eps, seed ^ 0xABCD);
      for (uint64_t v : data) c.Insert(v);
      return c.EstimateRank(x) -
             static_cast<double>(ExactRankOf(data, x));
    });
    double bound = eps * static_cast<double>(kN);
    EXPECT_LE(testing_util::VarianceOf(errors), bound * bound)
        << "eps " << eps;
  }
}

TEST(CompactorTest, SpaceIsLogarithmic) {
  const double eps = 0.01;
  CompactorSummary c(eps, 23);
  for (uint64_t i = 0; i < 200000; ++i) c.Insert(i * 2654435761u % 1000000);
  // s * (#levels): s = 2/eps = 200, levels ~ log2(eps m) = 11.
  EXPECT_LE(c.SpaceWords(), static_cast<uint64_t>(6.0 / eps *
                                                  std::log2(eps * 200000)));
  EXPECT_LT(c.SpaceWords(), 200000u / 10);
}

TEST(CompactorTest, MergePreservesWeightAndAccuracy) {
  const double eps = 0.05;
  auto data1 = RandomData(10000, 1 << 16, 29);
  auto data2 = RandomData(15000, 1 << 16, 31);
  CompactorSummary a(eps, 101), b(eps, 103);
  for (uint64_t v : data1) a.Insert(v);
  for (uint64_t v : data2) b.Insert(v);
  a.MergeFrom(b);
  EXPECT_EQ(a.WeightTotal(), 25000u);
  std::vector<uint64_t> all = data1;
  all.insert(all.end(), data2.begin(), data2.end());
  uint64_t x = 1 << 15;
  double err = std::fabs(a.EstimateRank(x) -
                         static_cast<double>(ExactRankOf(all, x)));
  // Generous: 4 eps m (merge at most doubles the variance budget).
  EXPECT_LE(err, 4 * eps * 25000);
}

TEST(CompactorTest, QuantileRoundTrip) {
  CompactorSummary c(0.02, 37);
  auto data = RandomData(30000, 1 << 20, 41);
  for (uint64_t v : data) c.Insert(v);
  uint64_t med = c.Quantile(0.5);
  double rank = static_cast<double>(ExactRankOf(data, med));
  EXPECT_NEAR(rank, 15000.0, 0.1 * 30000);
}

TEST(CompactorTest, EpsGreaterThanOneIsTiny) {
  CompactorSummary c(1.0, 43);
  for (uint64_t i = 0; i < 1000; ++i) c.Insert(i);
  EXPECT_EQ(c.WeightTotal(), 1000u);
  EXPECT_LE(c.buffer_capacity(), 4u);
  // Even with the coarsest parameter the estimate is within eps*m = m.
  EXPECT_LE(std::fabs(c.EstimateRank(500) - 500.0), 1000.0);
}

TEST(CompactorTest, SerializedWordsCountsItems) {
  CompactorSummary c(0.5, 47);
  for (uint64_t i = 0; i < 100; ++i) c.Insert(i);
  uint64_t items = 0;
  for (const auto& [v, w] : c.Items()) {
    (void)v;
    (void)w;
    ++items;
  }
  EXPECT_EQ(c.SerializedWords(),
            items + static_cast<uint64_t>(c.NumLevels()) + 1);
}

TEST(CompactorTest, ClearResets) {
  CompactorSummary c(0.1, 51);
  c.Insert(5);
  c.Clear();
  EXPECT_EQ(c.m(), 0u);
  EXPECT_EQ(c.WeightTotal(), 0u);
  EXPECT_DOUBLE_EQ(c.EstimateRank(100), 0.0);
}

TEST(CompactorTest, QuantileOnWeightZeroLevelsReturnsZero) {
  // A summary can hold only weight-0 (empty) levels: freshly constructed,
  // Reset() (which retains emptied levels for reuse), or merged from such
  // summaries (MergeFrom resizes the level vector even when every source
  // buffer is empty). Quantile must answer 0 without searching any level.
  CompactorSummary empty(0.1, 61);
  EXPECT_EQ(empty.Quantile(0.5), 0u);

  CompactorSummary c(0.1, 63);
  for (uint64_t i = 0; i < 1000; ++i) c.Insert(i);  // grows several levels
  ASSERT_GT(c.NumLevels(), 1);
  c.Reset(99);
  EXPECT_EQ(c.m(), 0u);
  EXPECT_EQ(c.WeightTotal(), 0u);
  EXPECT_EQ(c.Quantile(0.0), 0u);
  EXPECT_EQ(c.Quantile(0.5), 0u);
  EXPECT_EQ(c.Quantile(1.0), 0u);

  // The post-merge edge: merging the reset (multi-empty-level) summary
  // leaves the destination holding only weight-0 levels too.
  CompactorSummary merged(0.1, 65);
  merged.MergeFrom(c);
  merged.MergeFrom(empty);
  EXPECT_EQ(merged.Quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(merged.EstimateRank(123), 0.0);
  EXPECT_EQ(merged.WeightTotal(), 0u);

  // And the summary recovers once data arrives.
  merged.Insert(42);
  EXPECT_EQ(merged.Quantile(0.5), 42u);
}

TEST(CompactorTest, ResetRetainsGuaranteesOnReuse) {
  // Node pooling reuses summaries via Reset(); a reused summary must give
  // the same unbiased estimates as a fresh one.
  const double eps = 0.05;
  auto data = RandomData(20000, 1 << 16, 67);
  uint64_t x = 1 << 15;
  uint64_t truth = ExactRankOf(data, x);
  CompactorSummary c(eps, 71);
  for (uint64_t v : data) c.Insert(v);  // first life
  c.Reset(73);
  for (uint64_t v : data) c.Insert(v);  // reused life
  EXPECT_EQ(c.m(), 20000u);
  EXPECT_EQ(c.WeightTotal(), 20000u);
  double err = std::fabs(c.EstimateRank(x) - static_cast<double>(truth));
  EXPECT_LE(err, 4 * eps * 20000);
}

// --- Merged ladder windows ------------------------------------------------
//
// The rank tracker's levels ingest each ladder window as ONE ascending
// view: RunLadder::PullMerged merges a multi-run window once and every
// level due on it reads that copy. The invariant that rests on: ingesting
// the merged window is bit-identical to ingesting the same runs through
// the element-staging path (InsertBatch of the runs as pulled, which
// consolidates and compacts level by level at the same threshold). The
// twins below share a seed and pull the same windows from one ladder —
// the reference cursor as k borrowed runs, the merged cursor as one view.

using Export = std::pair<ValueBuffer,
                         std::vector<std::pair<uint64_t, uint32_t>>>;

// The wire export of `summary`: each nonempty level ascending, tagged
// with its weight and end offset.
Export ExportOf(const CompactorSummary& summary) {
  Export out;
  auto items = summary.Items();
  size_t i = 0;
  while (i < items.size()) {
    size_t j = i;
    while (j < items.size() && items[j].second == items[i].second) ++j;
    size_t from = out.first.size();
    for (size_t t = i; t < j; ++t) out.first.push_back(items[t].first);
    std::sort(out.first.begin() + static_cast<long>(from), out.first.end());
    out.second.emplace_back(items[i].second,
                            static_cast<uint32_t>(out.first.size()));
    i = j;
  }
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> SortedItems(
    const CompactorSummary& summary) {
  auto items = summary.Items();
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return items;
}

std::vector<uint64_t> Concat(const std::vector<RunView>& views) {
  std::vector<uint64_t> out;
  for (const RunView& v : views) out.insert(out.end(), v.data, v.data + v.size);
  return out;
}

// Appends one sorted run of `len` values; small universes make ties.
void AppendRun(RunLadder* ladder, Rng* rng, size_t len, uint64_t universe) {
  std::vector<uint64_t> run(len);
  for (auto& v : run) v = rng->UniformU64(universe);
  std::sort(run.begin(), run.end());
  ladder->AppendSortedRun(run.data(), run.size());
}

TEST(MergedWindowTest, MergedIngestMatchesRunByRunStagingAfterEveryPull) {
  const double kEps = 0.1;  // capacity 20
  // Shapes seen across all seeds: pulls over a residue of 0 and of 1
  // reaching capacity, with upper levels nonempty, windows below and
  // above capacity, and windows of several runs.
  int residue0 = 0, residue1 = 0, upper = 0, below = 0, above = 0, multi = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    CompactorSummary staged(kEps, seed);
    CompactorSummary merged(kEps, seed);
    RunLadder ladder;
    MergedWindow window;
    std::vector<RunView> views;
    // Cursors: 0 the reference, 1 the merged twin, 2 a pin that pulls at
    // random and so leaves boundaries inside the others' windows (the
    // leaf cursor's role in the tracker).
    ladder.Reset(3);
    for (int step = 0; step < 120; ++step) {
      uint64_t r = rng.UniformU64(10);
      if (r < 6) {
        // Singleton stragglers, short runs and runs past capacity.
        size_t len = r == 0 ? 1 : 1 + rng.UniformU64(r < 4 ? 8 : 40);
        AppendRun(&ladder, &rng, len, seed % 2 == 0 ? 16 : 1u << 20);
        if (rng.UniformU64(3) != 0) ladder.Pull(2, &views);
      } else if (ladder.pending(0) > 0) {
        size_t residue = merged.level0_size();
        size_t total = ladder.Pull(0, &views);
        multi += views.size() > 1;
        std::vector<uint64_t> runs = Concat(views);
        RunView one = ladder.PullMerged(1, &window);
        ASSERT_EQ(one.size, total);
        ASSERT_TRUE(std::is_sorted(one.data, one.data + one.size));
        bool compacts = residue + total >= 20;
        residue0 += compacts && residue == 0;
        residue1 += compacts && residue == 1;
        upper += compacts && merged.NumLevels() > 1;
        below += !compacts;
        above += compacts;
        staged.InsertBatch(runs.data(), runs.size());
        merged.InsertSortedWindow(one);
        ASSERT_EQ(SortedItems(merged), SortedItems(staged))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(merged.SerializedWords(), staged.SerializedWords());
        ASSERT_EQ(merged.WeightTotal(), staged.WeightTotal());
      }
      ladder.Consolidate();
    }
  }
  EXPECT_GT(residue0, 0);
  EXPECT_GT(residue1, 0);
  EXPECT_GT(upper, 0);
  EXPECT_GT(below, 0);
  EXPECT_GT(above, 0);
  EXPECT_GT(multi, 0);
}

TEST(MergedWindowTest, MergedExportMatchesRunByRunStaging) {
  const double kEps = 0.1;  // capacity 20
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 104729);
    CompactorSummary staged(kEps, seed);
    CompactorSummary merged(kEps, seed);
    RunLadder ladder;
    MergedWindow window;
    std::vector<RunView> views;
    ladder.Reset(3);
    // A history of whole pulls (residue 0 or 1, upper levels filling),
    // then the final flush window of 1..60 values over pinned runs.
    int pulls = static_cast<int>(rng.UniformU64(4));
    for (int p = 0; p <= pulls; ++p) {
      size_t runs = 1 + rng.UniformU64(4);
      for (size_t i = 0; i < runs; ++i) {
        AppendRun(&ladder, &rng, 1 + rng.UniformU64(15), 1u << 20);
        ladder.Pull(2, &views);
      }
      if (p == pulls) break;
      ladder.Pull(0, &views);
      std::vector<uint64_t> concat = Concat(views);
      staged.InsertBatch(concat.data(), concat.size());
      merged.InsertSortedWindow(ladder.PullMerged(1, &window));
      ladder.Consolidate();
    }
    ladder.Pull(0, &views);
    std::vector<uint64_t> concat = Concat(views);
    staged.InsertBatch(concat.data(), concat.size());
    Export got;
    uint64_t words = merged.InsertWindowAndExport(
        ladder.PullMerged(1, &window), &got.first, &got.second);
    EXPECT_EQ(words, staged.SerializedWords()) << "seed " << seed;
    EXPECT_EQ(got, ExportOf(staged)) << "seed " << seed;
  }
}

// The rank tracker's node-less flush at every tree level: a level whose
// node ingests exactly one ladder window ships CompactSortedWindowToWire
// of that window with the node's seed instead of building the node. The
// node path reaches the same export two ways — the window drained by the
// flush itself (InsertWindowAndExport), or pulled by the pump on the
// node's last arrival (InsertSortedWindow) and exported with an empty
// drain — and both, like element staging of the window's runs
// (InsertBatch), must match the wire cascade in values, segments and
// words at every level's eps 2^-level/sqrt(h).
TEST(MergedWindowTest, NodeLessFlushMatchesNodeFlushesAtEveryLevel) {
  for (int height : {1, 6, 11}) {
    for (int level = 0; level <= height; ++level) {
      const double eps =
          std::pow(2.0, -level) / std::sqrt(static_cast<double>(height));
      const size_t capacity = CompactorCapacity(eps);
      for (uint64_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE(::testing::Message() << "height " << height << " level "
                                          << level << " seed " << seed);
        Rng rng(seed * 7919 + static_cast<uint64_t>(level * 131 + height));
        // Total window below, at and just above capacity, up to ~4x it,
        // and far above it (up to ~100x, so cascades ~7 levels deep, as
        // on the rank tracker's zipf windows; capped at kFarCap values
        // for the widest levels), in one run or several; a small
        // universe makes duplicates.
        constexpr size_t kFarCap = size_t{1} << 16;
        size_t total;
        switch (seed % 5) {
          case 0: total = 1 + rng.UniformU64(capacity - 1); break;
          case 1: total = capacity; break;
          case 2: total = capacity + 1; break;
          case 3: total = capacity + 1 + rng.UniformU64(3 * capacity); break;
          default:
            total = capacity + 1 +
                    rng.UniformU64(std::min(100 * capacity, kFarCap));
            break;
        }
        const size_t runs =
            std::min<size_t>(total, seed % 3 == 0 ? 1 : 2 + rng.UniformU64(5));
        const uint64_t universe = seed % 2 == 0 ? 16 : 1u << 20;
        // Cursor r >= 1 rests at the start of run r, pinning every run
        // boundary, so a multi-run window is merged in the pull scratch.
        RunLadder ladder;
        MergedWindow window;
        std::vector<RunView> views;
        ladder.Reset(runs);
        std::vector<uint64_t> concat;
        size_t left = total;
        for (size_t r = 0; r < runs; ++r) {
          if (r > 0) ladder.Pull(r, &views);
          const size_t len =
              r + 1 == runs ? left : 1 + rng.UniformU64(left - (runs - r - 1));
          std::vector<uint64_t> run(len);
          for (auto& v : run) v = rng.UniformU64(universe);
          std::sort(run.begin(), run.end());
          ladder.AppendSortedRun(run.data(), run.size());
          concat.insert(concat.end(), run.begin(), run.end());
          left -= len;
        }
        const RunView view = ladder.PullMerged(0, &window);
        ASSERT_EQ(view.size, total);

        Export wire;
        const uint64_t wire_words = CompactSortedWindowToWire(
            capacity, seed, view, &wire.first, &wire.second);

        CompactorSummary drained(eps, seed);
        Export drained_export;
        const uint64_t drained_words = drained.InsertWindowAndExport(
            view, &drained_export.first, &drained_export.second);

        CompactorSummary pumped(eps, seed);
        pumped.InsertSortedWindow(view);
        Export pumped_export;
        const uint64_t pumped_words = pumped.InsertWindowAndExport(
            RunView{nullptr, 0}, &pumped_export.first, &pumped_export.second);

        CompactorSummary staged(eps, seed);
        staged.InsertBatch(concat.data(), concat.size());

        EXPECT_EQ(wire, drained_export);
        EXPECT_EQ(wire_words, drained_words);
        EXPECT_EQ(wire, pumped_export);
        EXPECT_EQ(wire_words, pumped_words);
        EXPECT_EQ(wire, ExportOf(staged));
        EXPECT_EQ(wire_words, staged.SerializedWords());
      }
    }
  }
}

}  // namespace
}  // namespace summaries
}  // namespace disttrack
