// Edge-case and stress tests for the protocol layer: single-element and
// single-site streams, k = 1 degeneration to the streaming model (§1.1),
// extreme bursts that force multiple p-halvings inside one broadcast, and
// round-boundary behavior.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/core/tracking.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "test_util.h"

namespace disttrack {
namespace {

using core::Algorithm;
using core::TrackerOptions;

TEST(EdgeCaseTest, EmptyTrackersAnswerZero) {
  TrackerOptions o;
  o.num_sites = 4;
  o.epsilon = 0.1;
  std::unique_ptr<sim::CountTrackerInterface> count;
  std::unique_ptr<sim::FrequencyTrackerInterface> freq;
  std::unique_ptr<sim::RankTrackerInterface> rank;
  for (auto algorithm : {Algorithm::kDeterministic, Algorithm::kRandomized,
                         Algorithm::kSampling}) {
    ASSERT_TRUE(core::MakeCountTracker(algorithm, o, &count).ok());
    ASSERT_TRUE(core::MakeFrequencyTracker(algorithm, o, &freq).ok());
    ASSERT_TRUE(core::MakeRankTracker(algorithm, o, &rank).ok());
    EXPECT_DOUBLE_EQ(count->EstimateCount(), 0.0);
    EXPECT_DOUBLE_EQ(freq->EstimateFrequency(42), 0.0);
    EXPECT_DOUBLE_EQ(rank->EstimateRank(42), 0.0);
    EXPECT_EQ(count->meter().TotalMessages(), 0u);
  }
}

TEST(EdgeCaseTest, SingleElementIsExactEverywhere) {
  TrackerOptions o;
  o.num_sites = 4;
  o.epsilon = 0.1;
  for (auto algorithm : {Algorithm::kDeterministic, Algorithm::kRandomized,
                         Algorithm::kSampling}) {
    std::unique_ptr<sim::CountTrackerInterface> count;
    ASSERT_TRUE(core::MakeCountTracker(algorithm, o, &count).ok());
    count->Arrive(2);
    EXPECT_DOUBLE_EQ(count->EstimateCount(), 1.0)
        << core::AlgorithmName(algorithm);
  }
}

TEST(EdgeCaseTest, SingleSiteDegeneratesToStreamingModel) {
  // k = 1: the coordinator is effectively the site (§1.1). Everything must
  // still work, with deterministic exactness for the trivial tracker and
  // within-epsilon answers for the randomized one.
  TrackerOptions o;
  o.num_sites = 1;
  o.epsilon = 0.05;
  o.seed = 3;
  std::unique_ptr<sim::CountTrackerInterface> det, rnd;
  ASSERT_TRUE(core::MakeCountTracker(Algorithm::kDeterministic, o, &det).ok());
  ASSERT_TRUE(core::MakeCountTracker(Algorithm::kRandomized, o, &rnd).ok());
  for (int i = 0; i < 50000; ++i) {
    det->Arrive(0);
    rnd->Arrive(0);
  }
  EXPECT_NEAR(det->EstimateCount(), 50000.0, 0.05 * 50000);
  EXPECT_NEAR(rnd->EstimateCount(), 50000.0, 0.05 * 50000);
}

TEST(EdgeCaseTest, LargeEpsilonSmallK) {
  // eps close to its upper range with tiny k: degenerate tree/block sizes
  // in the rank tracker (L = 1, h = 0) must still satisfy the contract.
  TrackerOptions o;
  o.num_sites = 2;
  o.epsilon = 0.5;
  o.seed = 7;
  std::unique_ptr<sim::RankTrackerInterface> rank;
  ASSERT_TRUE(core::MakeRankTracker(Algorithm::kRandomized, o, &rank).ok());
  for (uint64_t i = 0; i < 20000; ++i) rank->Arrive(static_cast<int>(i % 2), i % 100);
  EXPECT_NEAR(rank->EstimateRank(50), 10000.0, 0.5 * 20000);
}

TEST(CoarseTrackerBurstTest, HugeBurstTriggersMultipleHalvings) {
  // A burst that multiplies n by ~16 within one site forces the randomized
  // count tracker through several p-halvings; the estimator must remain
  // calibrated afterwards (the §2.1 re-randomization ritual, iterated).
  const int k = 16;
  auto errors = testing_util::CollectErrors(200, [&](uint64_t seed) {
    count::RandomizedCountOptions o;
    o.num_sites = k;
    o.epsilon = 0.05;
    o.seed = seed;
    count::RandomizedCountTracker tracker(o);
    // Warm up uniformly, then burst 16x the current count into one site.
    for (int i = 0; i < 4000; ++i) tracker.Arrive(i % k);
    for (int i = 0; i < 64000; ++i) tracker.Arrive(3);
    return tracker.EstimateCount() - 68000.0;
  });
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 300.0);
  EXPECT_GE(CoverageWithin(errors, 0.05 * 68000), 0.9);
}

TEST(CoarseTrackerBurstTest, NBarInvariantSurvivesBurst) {
  sim::CommMeter meter(8);
  count::CoarseTracker coarse(&meter);
  std::vector<count::CoarseSite> sites(8);
  uint64_t n = 0;
  for (int i = 0; i < 100; ++i) {
    coarse.Arrive(i % 8, &sites[static_cast<size_t>(i % 8)]);
    ++n;
  }
  for (int i = 0; i < 100000; ++i) {
    coarse.Arrive(5, &sites[5]);
    ++n;
    ASSERT_GE(n, coarse.n_bar());
    ASSERT_LT(n, 4 * std::max<uint64_t>(1, coarse.n_bar()));
  }
}

TEST(RandomizedFrequencyBurstTest, AccurateAfterSingleSiteBurst) {
  const int k = 8;
  auto errors = testing_util::CollectErrors(150, [&](uint64_t seed) {
    frequency::RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.05;
    o.seed = seed;
    frequency::RandomizedFrequencyTracker tracker(o);
    for (int i = 0; i < 4000; ++i) tracker.Arrive(i % k, 1);
    for (int i = 0; i < 36000; ++i) tracker.Arrive(2, i % 2);  // burst
    // Item 1: 4000 + 18000 = 22000 copies.
    return tracker.EstimateFrequency(1) - 22000.0;
  });
  EXPECT_GE(CoverageWithin(errors, 0.05 * 40000), 0.9);
}

TEST(RandomizedRankBurstTest, AccurateAfterSortedBurst) {
  const int k = 8;
  auto errors = testing_util::CollectErrors(150, [&](uint64_t seed) {
    rank::RandomizedRankOptions o;
    o.num_sites = k;
    o.epsilon = 0.05;
    o.seed = seed;
    rank::RandomizedRankTracker tracker(o);
    for (uint64_t i = 0; i < 40000; ++i) {
      tracker.Arrive(2, i);  // sorted burst into one site
    }
    return tracker.EstimateRank(20000) - 20000.0;
  });
  EXPECT_GE(CoverageWithin(errors, 0.05 * 40000), 0.9);
}

TEST(RoundBoundaryTest, QueriesConsistentAcrossManyRounds) {
  // Drive enough growth for ~17 rounds and verify estimates immediately
  // before and after each broadcast (round boundary) stay within bounds.
  count::RandomizedCountOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  o.seed = 17;
  count::RandomizedCountTracker tracker(o);
  uint64_t n = 0;
  uint64_t last_round = 0;
  int boundary_checks = 0;
  for (int i = 0; i < 200000; ++i) {
    tracker.Arrive(i % 8);
    ++n;
    if (tracker.rounds() != last_round) {
      last_round = tracker.rounds();
      if (n > 2000) {
        ++boundary_checks;
        ASSERT_NEAR(tracker.EstimateCount(), static_cast<double>(n),
                    0.1 * static_cast<double>(n))
            << "right after round " << last_round;
      }
    }
  }
  EXPECT_GT(boundary_checks, 4);
}

TEST(AblationTest, VirtualSplitDoesNotHurtAccuracy) {
  // With and without virtual-site splitting, estimates stay within bounds
  // — the split is a space optimization, not an accuracy trade.
  const int k = 8;
  for (bool split : {true, false}) {
    auto errors = testing_util::CollectErrors(120, [&](uint64_t seed) {
      frequency::RandomizedFrequencyOptions o;
      o.num_sites = k;
      o.epsilon = 0.05;
      o.seed = seed;
      o.virtual_site_split = split;
      frequency::RandomizedFrequencyTracker tracker(o);
      for (int i = 0; i < 30000; ++i) tracker.Arrive(0, i % 3);
      return tracker.EstimateFrequency(0) - 10000.0;
    });
    EXPECT_GE(CoverageWithin(errors, 0.05 * 30000), 0.9)
        << "split " << split;
  }
}

}  // namespace
}  // namespace disttrack
