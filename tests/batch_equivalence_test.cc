// Property tests for the batched delivery engines added with the
// frequency/rank hot-path overhaul:
//
//  * count + frequency: the grouped batch engine consumes the RNG
//    exactly as per-element Arrive() does, so ArriveBatch (any chunking,
//    straddling round and virtual-site-split boundaries) must be
//    bit-identical to the scalar path — estimates, communication, round
//    counts, and split counts;
//  * rank with use_batch_compaction=false (the exact per-element feed):
//    same bit-identity;
//  * rank with batched compaction (default): fewer, larger compactions
//    are equivalent in distribution, not bit-identical — checked with a
//    two-sample Kolmogorov–Smirnov test of final-error samples against
//    the per-element feed, plus mean/variance sanity;
//  * CompactorSummary::InsertBatch vs per-element Insert: exact weight
//    conservation, and the same unbiasedness + (eps*m)^2 variance bound.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/stream/workload.h"
#include "disttrack/summaries/compactor_summary.h"
#include "test_util.h"

namespace disttrack {
namespace {

using stream::MakeCountWorkload;
using stream::MakeFrequencyWorkload;
using stream::MakeRankWorkload;
using stream::SiteSchedule;

// Two-sample Kolmogorov–Smirnov statistic sup_x |F_a(x) - F_b(x)|.
double KsStatistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    double fa = static_cast<double>(i) / static_cast<double>(a.size());
    double fb = static_cast<double>(j) / static_cast<double>(b.size());
    d = std::max(d, std::fabs(fa - fb));
  }
  return d;
}

// KS acceptance threshold c(alpha) * sqrt((n+m)/(n*m)) at alpha ~ 0.001
// (c = 1.95) — loose enough that a correct implementation fails ~1/1000
// runs, tight enough to catch a variance-breaking "optimization".
double KsThreshold(size_t n, size_t m) {
  return 1.95 * std::sqrt(static_cast<double>(n + m) /
                          static_cast<double>(n * m));
}

// Delivers `w` in ragged chunks whose sizes cycle through a progression,
// so batch boundaries straddle round broadcasts and virtual-site splits
// at arbitrary offsets.
template <typename Tracker>
void DeliverRagged(Tracker* tracker, const sim::Workload& w, size_t seed) {
  size_t i = 0;
  size_t chunk = 1 + seed % 7;
  while (i < w.size()) {
    size_t len = std::min(chunk, w.size() - i);
    tracker->ArriveBatch(w.data() + i, len);
    i += len;
    chunk = chunk * 3 + 1;
    if (chunk > 5000) chunk = 1 + (chunk % 11);
  }
}

TEST(BatchEquivalenceTest, CountRaggedBatchesBitIdenticalAcrossSeeds) {
  const int k = 8;
  const uint64_t kN = 120000;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    auto w = MakeCountWorkload(k, kN, SiteSchedule::kUniformRandom,
                               100 + seed);
    count::RandomizedCountOptions o;
    o.num_sites = k;
    o.epsilon = 0.01;  // many p-halving broadcasts inside the stream
    o.seed = 500 + seed;
    count::RandomizedCountTracker scalar(o), batched(o);
    for (const auto& a : w) scalar.Arrive(a.site);
    DeliverRagged(&batched, w, seed);
    EXPECT_DOUBLE_EQ(batched.EstimateCount(), scalar.EstimateCount());
    EXPECT_EQ(batched.meter().TotalMessages(), scalar.meter().TotalMessages());
    EXPECT_EQ(batched.meter().TotalWords(), scalar.meter().TotalWords());
    EXPECT_EQ(batched.rounds(), scalar.rounds());
  }
}

TEST(BatchEquivalenceTest, FrequencyBatchesBitIdenticalAcrossSplits) {
  // Single-site schedule with a small epsilon: every round the one loaded
  // site blows through the n̄/k split threshold repeatedly, so batches
  // straddle both round boundaries and many virtual-site splits.
  const int k = 8;
  const uint64_t kN = 80000;
  for (uint64_t seed : {1ull, 2ull}) {
    auto w = MakeFrequencyWorkload(k, kN, SiteSchedule::kSingleSite, 500, 1.1,
                                   300 + seed);
    frequency::RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;
    o.seed = 700 + seed;
    frequency::RandomizedFrequencyTracker scalar(o), batched(o);
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    DeliverRagged(&batched, w, seed);
    ASSERT_GT(scalar.splits(), 10u) << "workload must exercise splits";
    ASSERT_GT(scalar.rounds(), 5u) << "workload must cross rounds";
    EXPECT_EQ(batched.splits(), scalar.splits());
    EXPECT_EQ(batched.rounds(), scalar.rounds());
    for (uint64_t item = 0; item < 40; ++item) {
      ASSERT_DOUBLE_EQ(batched.EstimateFrequency(item),
                       scalar.EstimateFrequency(item))
          << "item " << item;
    }
    EXPECT_EQ(batched.meter().TotalMessages(), scalar.meter().TotalMessages());
    EXPECT_EQ(batched.meter().TotalWords(), scalar.meter().TotalWords());
  }
}

TEST(BatchEquivalenceTest, RankExactFeedBatchesBitIdenticalToScalar) {
  const int k = 8;
  const uint64_t kN = 50000;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 16, 41);
  rank::RandomizedRankOptions o;
  o.num_sites = k;
  o.epsilon = 0.02;
  o.seed = 13;
  o.use_batch_compaction = false;  // per-element feed: exact path
  rank::RandomizedRankTracker scalar(o), batched(o);
  for (const auto& a : w) scalar.Arrive(a.site, a.key);
  DeliverRagged(&batched, w, 2);
  for (uint64_t q : {100ull, 20000ull, 45000ull, 65000ull}) {
    EXPECT_DOUBLE_EQ(batched.EstimateRank(q), scalar.EstimateRank(q));
  }
  EXPECT_EQ(batched.meter().TotalMessages(), scalar.meter().TotalMessages());
  EXPECT_EQ(batched.meter().TotalWords(), scalar.meter().TotalWords());
}

TEST(BatchEquivalenceTest, RankBatchedCompactionDistributionMatchesScalar) {
  // Batched compaction reorders and coalesces compactions, so it is not
  // bit-identical; its error distribution at a fixed query must be. Two
  // samples of final errors (independent seeds), KS-tested.
  const int k = 8;
  const uint64_t kN = 20000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 16, 43);
  const uint64_t query = 1u << 15;
  uint64_t truth = stream::ExactRank(w, query);
  const int kTrials = 120;
  auto run = [&](bool batch_compaction, uint64_t base_seed) {
    return testing_util::CollectErrors(
        kTrials,
        [&](uint64_t seed) {
          rank::RandomizedRankOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          o.use_batch_compaction = batch_compaction;
          rank::RandomizedRankTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateRank(query) - static_cast<double>(truth);
        },
        base_seed);
  };
  auto scalar_errors = run(false, 9000);
  auto batch_errors = run(true, 9500);
  double d = KsStatistic(scalar_errors, batch_errors);
  EXPECT_LE(d, KsThreshold(scalar_errors.size(), batch_errors.size()))
      << "batched-compaction error distribution drifted from scalar";
  // Means agree within the two-sample CLT band (4 sigma).
  double mean_gap = std::fabs(testing_util::MeanOf(scalar_errors) -
                              testing_util::MeanOf(batch_errors));
  double pooled_sd =
      std::sqrt((testing_util::VarianceOf(scalar_errors) +
                 testing_util::VarianceOf(batch_errors)) /
                kTrials);
  EXPECT_LE(mean_gap, 4.0 * pooled_sd + 1e-9);
}

// ---- site-grouped delivery ----------------------------------------------
//
// CoarseTracker::DeliverChunks permutes each chunk, up to its first
// broadcast, into site-contiguous spans; per-site coin streams and event
// positions are site-local, so the grouped engine must be bit-identical
// to per-element Arrive() for count and frequency, and for rank to the
// same engine run in stream order (chunk length 1, set through
// testing_util::DeliveryPeer) — estimates to the ulp, communication
// totals, rounds, splits — for every workload shape and any batch
// chunking (including single huge batches that the engine chunks
// internally, straddling p-halving broadcasts and round/split
// boundaries).

TEST(BatchEquivalenceTest, CountGroupedBitIdenticalAcrossWorkloads) {
  const int k = 16;
  const uint64_t kN = 150000;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kSkewedGeometric, SiteSchedule::kBursty}) {
    auto w = MakeCountWorkload(k, kN, sched, 901);
    count::RandomizedCountOptions o;
    o.num_sites = k;
    o.epsilon = 0.01;
    o.seed = 31;
    count::RandomizedCountTracker grouped(o), ragged(o), scalar(o);
    // One huge batch (internal chunking must cut at exactly the
    // broadcasts) and ragged batches, both against per-element Arrive().
    grouped.ArriveBatch(w.data(), w.size());
    DeliverRagged(&ragged, w, 3);
    for (const auto& a : w) scalar.Arrive(a.site);
    for (const count::RandomizedCountTracker* t : {&grouped, &ragged}) {
      ASSERT_DOUBLE_EQ(t->EstimateCount(), scalar.EstimateCount());
      EXPECT_EQ(t->meter().TotalMessages(), scalar.meter().TotalMessages());
      EXPECT_EQ(t->meter().TotalWords(), scalar.meter().TotalWords());
      EXPECT_EQ(t->rounds(), scalar.rounds());
    }
  }
}

TEST(BatchEquivalenceTest, CountGroupedSiteStreamMatchesScalar) {
  const int k = 8;
  const uint64_t kN = 120000;
  auto w = MakeCountWorkload(k, kN, SiteSchedule::kUniformRandom, 77);
  sim::SiteStream sites(w.size());
  for (size_t i = 0; i < w.size(); ++i) {
    sites[i] = static_cast<uint16_t>(w[i].site);
  }
  count::RandomizedCountOptions o;
  o.num_sites = k;
  o.epsilon = 0.01;
  o.seed = 5;
  count::RandomizedCountTracker grouped(o), scalar(o);
  grouped.ArriveSites(sites.data(), sites.size());
  for (const auto& a : w) scalar.Arrive(a.site);
  EXPECT_DOUBLE_EQ(grouped.EstimateCount(), scalar.EstimateCount());
  EXPECT_EQ(grouped.meter().TotalWords(), scalar.meter().TotalWords());
}

TEST(BatchEquivalenceTest, FrequencyGroupedBitIdenticalAcrossWorkloads) {
  const int k = 8;
  const uint64_t kN = 90000;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kBursty}) {
    auto w = MakeFrequencyWorkload(k, kN, sched, 400, 1.1, 311);
    frequency::RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;  // many rounds and (single-site) many splits inside
    o.seed = 17;
    frequency::RandomizedFrequencyTracker grouped(o), ragged(o), scalar(o);
    grouped.ArriveBatch(w.data(), w.size());
    DeliverRagged(&ragged, w, 5);
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    EXPECT_EQ(grouped.rounds(), scalar.rounds());
    EXPECT_EQ(grouped.splits(), scalar.splits());
    for (uint64_t item = 0; item < 50; ++item) {
      ASSERT_DOUBLE_EQ(grouped.EstimateFrequency(item),
                       scalar.EstimateFrequency(item))
          << "item " << item;
      ASSERT_DOUBLE_EQ(ragged.EstimateFrequency(item),
                       scalar.EstimateFrequency(item))
          << "item " << item;
    }
    EXPECT_EQ(grouped.meter().TotalMessages(), scalar.meter().TotalMessages());
    EXPECT_EQ(grouped.meter().TotalWords(), scalar.meter().TotalWords());
  }
}

TEST(BatchEquivalenceTest, RankGroupedDominantSiteStraddlingChunks) {
  // Regression: rank buffers eventless runs across its internal chunk
  // boundaries without advancing the coarse tracker, so the broadcast
  // certification must count the buffered carry — a dominant site whose
  // event gap straddles the chunk boundary used to trip the
  // broadcast-inside-certified-chunk abort.
  Rng site_rng(3);
  sim::Workload w;
  for (int i = 0; i < 300000; ++i) {
    int site = site_rng.UniformU64(1000) == 0
                   ? 1 + static_cast<int>(site_rng.UniformU64(3))
                   : 0;
    w.push_back(sim::Arrival{site, site_rng.UniformU64(1 << 16)});
  }
  rank::RandomizedRankOptions o;
  o.num_sites = 4;
  o.epsilon = 0.05;
  o.seed = 9;
  rank::RandomizedRankTracker grouped(o), stream_order(o);
  testing_util::DeliveryPeer::SetChunk(&stream_order, 1);
  grouped.ArriveBatch(w.data(), w.size());
  stream_order.ArriveBatch(w.data(), w.size());
  for (uint64_t q : {100ull, 20000ull, 50000ull}) {
    ASSERT_DOUBLE_EQ(grouped.EstimateRank(q), stream_order.EstimateRank(q));
  }
  EXPECT_EQ(grouped.meter().TotalWords(), stream_order.meter().TotalWords());
}

TEST(BatchEquivalenceTest,
     RankGroupedBitIdenticalToStreamOrderAcrossChunkings) {
  // The grouped rank engine buffers eventless spans across its internal
  // chunk boundaries and feeds at each site's own events and the batch
  // end, so for identical ArriveBatch call sequences it must agree bit for
  // bit with itself run in stream order — spans straddling round
  // broadcasts and leaf/chunk completions included.
  const int k = 8;
  const uint64_t kN = 60000;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite,
                     SiteSchedule::kBursty}) {
    auto w = MakeRankWorkload(k, kN, sched,
                              stream::ValueOrder::kUniformRandom, 16, 67);
    rank::RandomizedRankOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;
    o.seed = 41;
    rank::RandomizedRankTracker grouped(o), stream_order(o);
    testing_util::DeliveryPeer::SetChunk(&stream_order, 1);
    grouped.ArriveBatch(w.data(), w.size());
    stream_order.ArriveBatch(w.data(), w.size());
    for (uint64_t q : {100ull, 9000ull, 30000ull, 65000ull}) {
      ASSERT_DOUBLE_EQ(grouped.EstimateRank(q), stream_order.EstimateRank(q))
          << "q " << q;
    }
    EXPECT_EQ(grouped.meter().TotalMessages(),
              stream_order.meter().TotalMessages());
    EXPECT_EQ(grouped.meter().TotalWords(),
              stream_order.meter().TotalWords());
    EXPECT_EQ(grouped.rounds(), stream_order.rounds());
  }
}

// Borrowed-window ingest vs owned staging at the summary level: one
// over-capacity sorted window into a fresh summary must reproduce
// InsertSortedBatch of the same data bit for bit (the virtual cascade
// draws the same coins and keeps the same elements).
TEST(BatchEquivalenceTest, CompactorSortedWindowMatchesSortedBatchExactly) {
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint64_t> data(20 + rng.UniformU64(800));
    for (auto& v : data) v = rng.UniformU64(1 << 20);
    std::sort(data.begin(), data.end());
    uint64_t seed = 9000 + trial;
    summaries::CompactorSummary by_window(0.1, seed);
    summaries::CompactorSummary by_batch(0.1, seed);
    by_window.InsertSortedWindow(summaries::RunView{data.data(), data.size()});
    by_batch.InsertSortedBatch(data.data(), data.size());
    EXPECT_EQ(by_window.WeightTotal(), by_batch.WeightTotal());
    EXPECT_EQ(by_window.m(), by_batch.m());
    ASSERT_EQ(by_window.Items(), by_batch.Items()) << "trial " << trial;
  }
}

// Multi-run ladder windows (merged by PullMerged) conserve weight
// exactly, staged under capacity and merged and compacted above it.
TEST(BatchEquivalenceTest, CompactorMergedWindowsConserveWeight) {
  Rng rng(171);
  summaries::CompactorSummary summary(0.05, 555);
  summaries::RunLadder ladder;
  summaries::MergedWindow window;
  std::vector<summaries::RunView> views;
  ladder.Reset(2);
  uint64_t total = 0;
  std::vector<uint64_t> run;
  for (int round = 0; round < 40; ++round) {
    size_t num_runs = 1 + rng.UniformU64(6);
    for (size_t r = 0; r < num_runs; ++r) {
      run.clear();
      size_t len = rng.UniformU64(60);
      for (size_t i = 0; i < len; ++i) run.push_back(rng.UniformU64(1 << 20));
      std::sort(run.begin(), run.end());
      ladder.AppendSortedRun(run.data(), run.size());
      // Cursor 1 pins a boundary between most runs, as the leaf cursor
      // does in the tracker.
      if (rng.UniformU64(4) != 0) ladder.Pull(1, &views);
    }
    summaries::RunView pulled = ladder.PullMerged(0, &window);
    ASSERT_TRUE(std::is_sorted(pulled.data, pulled.data + pulled.size));
    summary.InsertSortedWindow(pulled);
    total += pulled.size;
    ladder.Consolidate();
    ASSERT_EQ(summary.WeightTotal(), total);
  }
  EXPECT_EQ(summary.m(), total);
}

TEST(BatchEquivalenceTest, CompactorInsertBatchConservesWeightExactly) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    summaries::CompactorSummary batch(0.05, 1000 + trial);
    summaries::CompactorSummary scalar(0.05, 2000 + trial);
    uint64_t total = 0;
    std::vector<uint64_t> run;
    for (int r = 0; r < 50; ++r) {
      run.clear();
      uint64_t len = rng.UniformU64(200);
      for (uint64_t i = 0; i < len; ++i) run.push_back(rng.UniformU64(1u << 20));
      batch.InsertBatch(run.data(), run.size());
      for (uint64_t v : run) scalar.Insert(v);
      total += len;
    }
    EXPECT_EQ(batch.WeightTotal(), total);
    EXPECT_EQ(scalar.WeightTotal(), total);
    EXPECT_EQ(batch.m(), total);
  }
}

TEST(BatchEquivalenceTest, CompactorInsertBatchKeepsVarianceBound) {
  // Unbiasedness and Var <= (eps m)^2 must hold for the batched feed
  // exactly as for per-element Insert (the martingale increments are the
  // same mean-zero +-2^level steps; see compactor_summary.h).
  const double eps = 0.05;
  const uint64_t kM = 30000;
  const uint64_t query = 1u << 19;  // rank ~ m/2 over a 2^20 universe
  Rng data_rng(555);
  std::vector<uint64_t> data(kM);
  for (auto& v : data) v = data_rng.UniformU64(1u << 20);
  uint64_t truth = 0;
  for (uint64_t v : data) {
    if (v < query) ++truth;
  }
  for (bool batched : {false, true}) {
    auto errors = testing_util::CollectErrors(
        150,
        [&](uint64_t seed) {
          summaries::CompactorSummary c(eps, seed);
          if (batched) {
            // Runs of varying length, including ones far past capacity.
            size_t i = 0, chunk = 3;
            while (i < data.size()) {
              size_t len = std::min(chunk, data.size() - i);
              c.InsertBatch(data.data() + i, len);
              i += len;
              chunk = chunk * 2 + 1;
              if (chunk > 3000) chunk = 3;
            }
          } else {
            for (uint64_t v : data) c.Insert(v);
          }
          return c.EstimateRank(query) - static_cast<double>(truth);
        },
        4000 + (batched ? 1000 : 0));
    double bound = eps * static_cast<double>(kM);
    double sd = std::sqrt(testing_util::VarianceOf(errors));
    EXPECT_LE(std::fabs(testing_util::MeanOf(errors)),
              4.0 * sd / std::sqrt(150.0) + 1e-9)
        << "batched=" << batched;
    EXPECT_LE(testing_util::VarianceOf(errors), bound * bound)
        << "batched=" << batched;
  }
}

}  // namespace
}  // namespace disttrack
