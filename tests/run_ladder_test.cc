// Unit tier for summaries/run_ladder.h — the shared run-merge ladder the
// rank tracker's compactor tree consumes through borrowed views. The
// contract under test: every cursor sees every appended element exactly
// once, views are whole ascending runs (merges never cross a position a
// cursor still needs), fully-consumed runs are trimmed, and the append
// fast paths (extend-in-place, buffer handoff) preserve all of it;
// PullMerged hands out the same window as one sorted view, merged once
// for back-to-back pulls of that window; pair merges run in place and the
// recycled-buffer pool stays bounded.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/summaries/run_ladder.h"

namespace disttrack {
namespace summaries {
namespace {

std::vector<uint64_t> Flatten(const std::vector<RunView>& views) {
  std::vector<uint64_t> out;
  for (const RunView& v : views) {
    out.insert(out.end(), v.data, v.data + v.size);
  }
  return out;
}

TEST(RunLadderTest, AppendPullRoundTrip) {
  RunLadder ladder;
  ladder.Reset(1);
  std::vector<uint64_t> a{1, 5, 9};
  std::vector<uint64_t> b{2, 2, 7};
  ladder.AppendSortedRun(a.data(), a.size());
  ladder.Consolidate();
  ladder.AppendSortedRun(b.data(), b.size());
  ladder.Consolidate();
  EXPECT_EQ(ladder.pending(0), 6u);
  EXPECT_EQ(ladder.end(), 6u);

  std::vector<RunView> views;
  size_t total = ladder.Pull(0, &views);
  EXPECT_EQ(total, 6u);
  EXPECT_EQ(ladder.pending(0), 0u);
  auto flat = Flatten(views);
  std::sort(flat.begin(), flat.end());
  EXPECT_EQ(flat, (std::vector<uint64_t>{1, 2, 2, 5, 7, 9}));

  // Nothing pending: an immediate re-pull returns no views.
  EXPECT_EQ(ladder.Pull(0, &views), 0u);
  EXPECT_TRUE(views.empty());
}

TEST(RunLadderTest, ViewsAreAscendingRunsAndFewPerGap) {
  RunLadder ladder;
  ladder.Reset(2);
  Rng rng(7);
  std::vector<uint64_t> run;
  for (int r = 0; r < 64; ++r) {
    run.clear();
    uint64_t len = 1 + rng.UniformU64(40);
    for (uint64_t i = 0; i < len; ++i) run.push_back(rng.UniformU64(1 << 20));
    std::sort(run.begin(), run.end());
    ladder.AppendSortedRun(run.data(), run.size());
    ladder.Consolidate();
  }
  std::vector<RunView> views;
  ladder.Pull(0, &views);
  // Cursor 1 never pulled, so it pins exactly one boundary (its start);
  // consolidation on pull leaves one run per inter-cursor gap.
  EXPECT_LE(views.size(), 2u);
  for (const RunView& v : views) {
    EXPECT_TRUE(std::is_sorted(v.data, v.data + v.size));
  }
}

TEST(RunLadderTest, EveryCursorSeesEveryElementOnceDifferential) {
  const size_t kCursors = 3;
  RunLadder ladder;
  ladder.Reset(kCursors);
  Rng rng(99);
  std::map<uint64_t, int> appended;
  std::map<uint64_t, int> pulled[kCursors];
  uint64_t pulled_total[kCursors] = {0, 0, 0};
  std::vector<uint64_t> run;
  std::vector<RunView> views;
  for (int step = 0; step < 400; ++step) {
    if (rng.UniformU64(10) < 7) {
      run.clear();
      uint64_t len = 1 + rng.UniformU64(17);
      for (uint64_t i = 0; i < len; ++i) {
        uint64_t v = rng.UniformU64(1 << 16);
        run.push_back(v);
      }
      std::sort(run.begin(), run.end());
      for (uint64_t v : run) ++appended[v];
      if (rng.UniformU64(2) == 0) {
        ladder.AppendSortedRun(run.data(), run.size());
      } else {
        ValueBuffer moved(run.begin(), run.end());
        ladder.AppendSortedVector(&moved);
        EXPECT_TRUE(moved.empty());
      }
    } else if (rng.UniformU64(10) < 9) {
      size_t c = rng.UniformU64(kCursors);
      uint64_t expect = ladder.pending(c);
      uint64_t got = ladder.Pull(c, &views);
      EXPECT_EQ(got, expect);
      pulled_total[c] += got;
      for (const RunView& v : views) {
        EXPECT_TRUE(std::is_sorted(v.data, v.data + v.size));
        for (size_t i = 0; i < v.size; ++i) ++pulled[c][v.data[i]];
      }
    }
    ladder.Consolidate();
  }
  for (size_t c = 0; c < kCursors; ++c) {
    uint64_t got = ladder.Pull(c, &views);
    pulled_total[c] += got;
    for (const RunView& v : views) {
      for (size_t i = 0; i < v.size; ++i) ++pulled[c][v.data[i]];
    }
    EXPECT_EQ(pulled_total[c], ladder.end());
    EXPECT_EQ(pulled[c], appended) << "cursor " << c;
  }
}

TEST(RunLadderTest, PullMergedIsTheSortedWindowAndMergesItOnce) {
  const size_t kCursors = 4;
  Rng rng(2024);
  RunLadder ladder;
  MergedWindow window;
  ladder.Reset(kCursors);
  std::vector<RunView> views;
  std::vector<uint64_t> run;
  int shared = 0;
  for (int step = 0; step < 600; ++step) {
    if (rng.UniformU64(3) != 0) {
      run.assign(1 + rng.UniformU64(30), 0);
      for (auto& v : run) v = rng.UniformU64(1 << 12);
      std::sort(run.begin(), run.end());
      ladder.AppendSortedRun(run.data(), run.size());
      if (rng.UniformU64(2) == 0) ladder.Pull(0, &views);  // pins
    } else {
      // Cursors 1..3 pull; back-to-back pulls of one window read one
      // copy (the memo holds the last merged window).
      const uint64_t* last_data = nullptr;
      uint64_t last_pending = 0;
      for (size_t c = 1; c < kCursors; ++c) {
        if (rng.UniformU64(3) == 0) continue;
        uint64_t pending = ladder.pending(c);
        RunView view = ladder.PullMerged(c, &window);
        ASSERT_EQ(view.size, pending);
        ASSERT_TRUE(std::is_sorted(view.data, view.data + view.size));
        if (pending > 0 && pending == last_pending) {
          EXPECT_EQ(view.data, last_data) << "step " << step;
          ++shared;
        }
        last_data = view.data;
        last_pending = pending;
      }
    }
    ladder.Consolidate();
  }
  EXPECT_GT(shared, 0);
  // Every cursor still sees every element exactly once.
  for (size_t c = 1; c < kCursors; ++c) {
    ladder.PullMerged(c, &window);
    EXPECT_EQ(ladder.pending(c), 0u);
  }
}

TEST(RunLadderTest, PullMergedEqualsTheSortedConcatenationOfPull) {
  Rng rng(31337);
  RunLadder ladder;
  MergedWindow window;
  ladder.Reset(3);
  std::vector<RunView> views;
  std::vector<uint64_t> run;
  for (int step = 0; step < 400; ++step) {
    run.assign(1 + rng.UniformU64(20), 0);
    for (auto& v : run) v = rng.UniformU64(step % 2 == 0 ? 4 : 1 << 20);
    std::sort(run.begin(), run.end());
    ladder.AppendSortedRun(run.data(), run.size());
    if (rng.UniformU64(2) == 0) ladder.Pull(2, &views);  // pins
    if (rng.UniformU64(4) == 0) {
      ladder.Pull(0, &views);
      auto want = Flatten(views);
      std::sort(want.begin(), want.end());
      RunView view = ladder.PullMerged(1, &window);
      ASSERT_EQ(std::vector<uint64_t>(view.data, view.data + view.size), want);
    }
    ladder.Consolidate();
  }
}

TEST(RunLadderTest, TrimRecyclesFullyConsumedRuns) {
  RunLadder ladder;
  ladder.Reset(2);
  std::vector<uint64_t> run(100);
  for (size_t i = 0; i < run.size(); ++i) run[i] = i;
  ladder.AppendSortedRun(run.data(), run.size());
  ladder.Consolidate();
  EXPECT_EQ(ladder.held(), 100u);
  std::vector<RunView> views;
  ladder.Pull(0, &views);
  // Cursor 1 still needs the run: nothing may be trimmed yet.
  ladder.Consolidate();
  EXPECT_EQ(ladder.held(), 100u);
  ladder.Pull(1, &views);
  ladder.Consolidate();
  EXPECT_EQ(ladder.held(), 0u);
  EXPECT_EQ(ladder.run_count(), 0u);
}

TEST(RunLadderTest, AscendingSingletonsExtendInPlace) {
  RunLadder ladder;
  ladder.Reset(1);
  std::vector<RunView> views;
  ladder.Pull(0, &views);  // park the cursor at end once
  for (uint64_t v = 0; v < 50; ++v) {
    ladder.AppendValue(v);
    ladder.Consolidate();
  }
  // Ascending appends with no cursor at the boundary extend one run.
  EXPECT_EQ(ladder.run_count(), 1u);
  EXPECT_EQ(ladder.Pull(0, &views), 50u);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_TRUE(std::is_sorted(views[0].data, views[0].data + views[0].size));
}

TEST(RunLadderTest, ResetDropsDataAndRealignsCursors) {
  RunLadder ladder;
  ladder.Reset(4);
  std::vector<uint64_t> run{3, 1, 4, 1, 5};
  std::sort(run.begin(), run.end());
  ladder.AppendSortedRun(run.data(), run.size());
  EXPECT_GT(ladder.held(), 0u);
  ladder.Reset(6);
  EXPECT_EQ(ladder.num_cursors(), 6u);
  EXPECT_EQ(ladder.held(), 0u);
  for (size_t c = 0; c < 6; ++c) EXPECT_EQ(ladder.pending(c), 0u);
  // Logical positions keep advancing across resets.
  ladder.AppendValue(42);
  EXPECT_EQ(ladder.pending(0), 1u);
  EXPECT_EQ(ladder.end(), 6u);
}

// Pair merges grow the older run's buffer and merge the newer run into
// it, so they take nothing from the pool: only appends do. Trim and
// Reset keep at most kMaxPooled recycled buffers.
TEST(RunLadderTest, PairMergesTakeNoPooledBufferAndThePoolStaysBounded) {
  RunLadder ladder;
  ladder.Reset(1);
  Rng rng(11);
  std::vector<uint64_t> all;
  for (int r = 0; r < 300; ++r) {
    ValueBuffer run(1 + rng.UniformU64(20));
    for (auto& x : run) x = rng.UniformU64(1000);
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
    ladder.AppendSortedVector(&run);
    ladder.Consolidate();
  }
  const LadderWork& work = ladder.work();
  EXPECT_GT(work.pair_merges, 0u);
  EXPECT_GE(work.pair_values, 2 * work.pair_merges);
  EXPECT_LE(work.pool_takes, work.runs_appended);
  std::vector<RunView> views;
  ASSERT_EQ(ladder.Pull(0, &views), all.size());
  std::vector<uint64_t> got = Flatten(views);
  std::sort(got.begin(), got.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(got, all);
  ladder.Consolidate();  // trims every run
  EXPECT_EQ(ladder.held(), 0u);
  EXPECT_LE(ladder.pooled(), RunLadder::kMaxPooled);

  // Shrinking runs never merge (the older neighbour is bigger), so many
  // buffers are live when Reset recycles them all at once.
  for (size_t size = 60; size > 0; --size) {
    std::vector<uint64_t> run(size, size);  // descending: no extension
    ladder.AppendSortedRun(run.data(), run.size());
    ladder.Consolidate();
  }
  EXPECT_EQ(ladder.run_count(), 60u);
  ladder.Reset(1);
  EXPECT_LE(ladder.pooled(), RunLadder::kMaxPooled);
}

TEST(RunLadderTest, SpaceWordsTracksHeldValues) {
  RunLadder ladder;
  ladder.Reset(2);
  EXPECT_EQ(ladder.SpaceWords(), 2u);  // the cursors themselves
  std::vector<uint64_t> run{1, 2, 3, 4};
  ladder.AppendSortedRun(run.data(), run.size());
  EXPECT_EQ(ladder.SpaceWords(), 4u + 1u + 2u);  // values + header + cursors
}

}  // namespace
}  // namespace summaries
}  // namespace disttrack
