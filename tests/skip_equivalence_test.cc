// Equivalence and error-bound coverage for the geometric-skip fast path
// across all three randomized trackers:
//
//  * determinism: with the same seed, the batched engines (ArriveBatch /
//    ArriveSites) consume the RNG identically to per-element Arrive(), so
//    estimates and communication must match bit-for-bit;
//  * distributional equivalence: the skip path and the historical
//    per-arrival Bernoulli path satisfy the same unbiasedness / coverage
//    bounds, including on the paper's hard instances (distribution µ and
//    the Theorem 2.4 adversarial schedule), whose growing streams cross
//    many p-halving broadcasts.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/hard_instances.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace {

using stream::MakeCountWorkload;
using stream::MakeFrequencyWorkload;
using stream::MakeRankWorkload;
using stream::SiteSchedule;

TEST(SkipEquivalenceTest, CountBatchPathsAreBitIdenticalToScalar) {
  const int k = 8;
  const uint64_t kN = 200000;
  auto w = MakeCountWorkload(k, kN, SiteSchedule::kUniformRandom, 21);
  sim::SiteStream sites;
  sites.reserve(w.size());
  for (const auto& a : w) sites.push_back(static_cast<uint16_t>(a.site));

  count::RandomizedCountOptions o;
  o.num_sites = k;
  o.epsilon = 0.01;
  o.seed = 99;
  count::RandomizedCountTracker scalar(o), batched(o), site_stream(o);

  for (const auto& a : w) scalar.Arrive(a.site);
  // Ragged chunk sizes so batch boundaries land at arbitrary offsets.
  size_t i = 0, chunk = 1;
  while (i < w.size()) {
    size_t len = std::min(chunk, w.size() - i);
    batched.ArriveBatch(w.data() + i, len);
    i += len;
    chunk = chunk * 3 + 1;
  }
  i = 0;
  chunk = 7;
  while (i < sites.size()) {
    size_t len = std::min(chunk, sites.size() - i);
    site_stream.ArriveSites(sites.data() + i, len);
    i += len;
    chunk = chunk * 2 + 3;
  }

  EXPECT_DOUBLE_EQ(batched.EstimateCount(), scalar.EstimateCount());
  EXPECT_DOUBLE_EQ(site_stream.EstimateCount(), scalar.EstimateCount());
  EXPECT_EQ(batched.TrueCount(), scalar.TrueCount());
  EXPECT_EQ(site_stream.TrueCount(), scalar.TrueCount());
  EXPECT_EQ(batched.meter().TotalMessages(), scalar.meter().TotalMessages());
  EXPECT_EQ(site_stream.meter().TotalMessages(),
            scalar.meter().TotalMessages());
  EXPECT_EQ(batched.meter().TotalWords(), scalar.meter().TotalWords());
  EXPECT_EQ(batched.rounds(), scalar.rounds());
  EXPECT_DOUBLE_EQ(batched.p(), scalar.p());
}

TEST(SkipEquivalenceTest, CountMixedScalarAndBatchDeliveryIsIdentical) {
  const int k = 4;
  const uint64_t kN = 50000;
  auto w = MakeCountWorkload(k, kN, SiteSchedule::kSkewedGeometric, 23);

  count::RandomizedCountOptions o;
  o.num_sites = k;
  o.epsilon = 0.02;
  o.seed = 7;
  count::RandomizedCountTracker scalar(o), mixed(o);
  for (const auto& a : w) scalar.Arrive(a.site);
  // Alternate singleton Arrive() and batches over the same stream.
  size_t i = 0;
  bool single = true;
  while (i < w.size()) {
    if (single) {
      mixed.Arrive(w[i].site);
      ++i;
    } else {
      size_t len = std::min<size_t>(997, w.size() - i);
      mixed.ArriveBatch(w.data() + i, len);
      i += len;
    }
    single = !single;
  }
  EXPECT_DOUBLE_EQ(mixed.EstimateCount(), scalar.EstimateCount());
  EXPECT_EQ(mixed.meter().TotalMessages(), scalar.meter().TotalMessages());
}

TEST(SkipEquivalenceTest, FrequencyAndRankBatchesMatchScalar) {
  const int k = 8;
  const uint64_t kN = 60000;
  auto w = MakeFrequencyWorkload(k, kN, SiteSchedule::kUniformRandom, 1000,
                                 1.1, 31);
  {
    frequency::RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;
    o.seed = 17;
    frequency::RandomizedFrequencyTracker scalar(o), batched(o);
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    size_t i = 0;
    while (i < w.size()) {
      size_t len = std::min<size_t>(4096, w.size() - i);
      batched.ArriveBatch(w.data() + i, len);
      i += len;
    }
    for (uint64_t item : {0ull, 1ull, 17ull, 999ull}) {
      EXPECT_DOUBLE_EQ(batched.EstimateFrequency(item),
                       scalar.EstimateFrequency(item));
    }
    EXPECT_EQ(batched.meter().TotalMessages(),
              scalar.meter().TotalMessages());
  }
  {
    auto rw = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                               stream::ValueOrder::kUniformRandom, 16, 33);
    rank::RandomizedRankOptions o;
    o.num_sites = k;
    // Rounds from n̄ ≈ 8192 on build trees; the ones before forward.
    o.epsilon = 0.05;
    o.seed = 19;
    // Batched compaction is equivalent in distribution, not bit-identical
    // (fewer, larger compactions); the exact per-element feed is what this
    // test pins. batch_equivalence_test covers the batched path.
    o.use_batch_compaction = false;
    rank::RandomizedRankTracker scalar(o), batched(o);
    for (const auto& a : rw) scalar.Arrive(a.site, a.key);
    size_t i = 0;
    while (i < rw.size()) {
      size_t len = std::min<size_t>(2048, rw.size() - i);
      batched.ArriveBatch(rw.data() + i, len);
      i += len;
    }
    for (uint64_t q : {1000ull, 30000ull, 60000ull}) {
      EXPECT_DOUBLE_EQ(batched.EstimateRank(q), scalar.EstimateRank(q));
    }
    EXPECT_EQ(batched.meter().TotalMessages(),
              scalar.meter().TotalMessages());
  }
}

// Runs the count tracker over `w` once per seed and returns final errors.
std::vector<double> CountErrors(const sim::Workload& w, int k, double eps,
                                bool use_skip, int trials,
                                uint64_t base_seed) {
  return testing_util::CollectErrors(
      trials,
      [&](uint64_t seed) {
        count::RandomizedCountOptions o;
        o.num_sites = k;
        o.epsilon = eps;
        o.seed = seed;
        o.use_skip_sampling = use_skip;
        count::RandomizedCountTracker tracker(o);
        tracker.ArriveBatch(w.data(), w.size());
        return tracker.EstimateCount() -
               static_cast<double>(tracker.TrueCount());
      },
      base_seed);
}

TEST(SkipEquivalenceTest, CountCoverageOnMuHardInstance) {
  // Distribution µ (Theorem 2.2): with prob 1/2 the whole stream lands on
  // one site. Both the maximally-skewed and the round-robin case must stay
  // within ±εn with probability >= 0.9 under the skip path; the stream
  // crosses ~log2(εn√k) p-halvings on the way.
  const int k = 16;
  const uint64_t kN = 60000;
  const double eps = 0.05;
  for (uint64_t inst_seed : {1ull, 2ull}) {
    auto mu = stream::MakeMuInstance(k, kN, inst_seed);
    for (bool use_skip : {true, false}) {
      auto errors = CountErrors(mu.workload, k, eps, use_skip, 150,
                                5000 + inst_seed * 100);
      EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9)
          << "single_site=" << mu.single_site_case << " skip=" << use_skip;
      EXPECT_NEAR(testing_util::MeanOf(errors), 0.0,
                  eps * static_cast<double>(kN) / 3.0)
          << "skip=" << use_skip;
    }
  }
}

TEST(SkipEquivalenceTest, CountCoverageOnTheorem24Schedule) {
  // The adversarial round schedule of Theorem 2.4: geometrically growing
  // bursts to random site subsets — the construction designed to stress
  // the p-halving transitions. Checked at every geometric checkpoint.
  const int k = 16;
  const double eps = 0.05;
  auto hard = stream::MakeTheorem24Workload(k, eps, 10, 3);
  for (bool use_skip : {true, false}) {
    int ok = 0;
    const int kTrials = 60;
    for (int t = 0; t < kTrials; ++t) {
      count::RandomizedCountOptions o;
      o.num_sites = k;
      o.epsilon = eps;
      o.seed = 9000 + static_cast<uint64_t>(t);
      o.use_skip_sampling = use_skip;
      count::RandomizedCountTracker tracker(o);
      auto checkpoints = sim::ReplayCount(&tracker, hard.workload, 1.5);
      // Skip the tiny-n prefix where relative error is ill-conditioned.
      double worst =
          testing_util::MaxRelativeCheckpointError(checkpoints, 1000);
      if (worst <= eps) ++ok;
    }
    EXPECT_GE(ok, kTrials * 8 / 10) << "skip=" << use_skip;
  }
}

TEST(SkipEquivalenceTest, SkipAndNaiveCountAgreeInVariance) {
  // Same workload, same trial count: the two paths' error variances must
  // agree within sampling noise (ratio in [1/2, 2] for 200 trials).
  const int k = 8;
  const uint64_t kN = 40000;
  const double eps = 0.05;
  auto w = MakeCountWorkload(k, kN, SiteSchedule::kUniformRandom, 41);
  auto skip_errors = CountErrors(w, k, eps, true, 200, 3000);
  auto naive_errors = CountErrors(w, k, eps, false, 200, 4000);
  double v_skip = testing_util::VarianceOf(skip_errors);
  double v_naive = testing_util::VarianceOf(naive_errors);
  ASSERT_GT(v_naive, 0.0);
  double ratio = v_skip / v_naive;
  EXPECT_GT(ratio, 0.5) << v_skip << " vs " << v_naive;
  EXPECT_LT(ratio, 2.0) << v_skip << " vs " << v_naive;
}

TEST(SkipEquivalenceTest, FrequencyCoverageOnMuHardInstance) {
  // Feed the µ workload (all keys 0) to the frequency tracker: the
  // frequency of item 0 equals n, maximal per-item mass under maximal
  // skew, crossing every p-halving of the stream.
  const int k = 8;
  const uint64_t kN = 30000;
  const double eps = 0.05;
  auto mu = stream::MakeMuInstance(k, kN, 1);
  for (bool use_skip : {true, false}) {
    auto errors = testing_util::CollectErrors(
        60,
        [&](uint64_t seed) {
          frequency::RandomizedFrequencyOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          o.use_skip_sampling = use_skip;
          frequency::RandomizedFrequencyTracker tracker(o);
          tracker.ArriveBatch(mu.workload.data(), mu.workload.size());
          return tracker.EstimateFrequency(0) - static_cast<double>(kN);
        },
        7000);
    EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9)
        << "skip=" << use_skip;
  }
}

TEST(SkipEquivalenceTest, RankCoverageUnderSkewAcrossRounds) {
  // Sorted single-site streams are the classic worst case for rank
  // summaries; the estimate at the median must stay within ±εn under both
  // coin paths.
  const int k = 8;
  const uint64_t kN = 20000;
  const double eps = 0.08;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kSingleSite,
                            stream::ValueOrder::kAscending, 16, 43);
  const uint64_t query = 1u << 15;
  uint64_t truth = stream::ExactRank(w, query);
  for (bool use_skip : {true, false}) {
    auto errors = testing_util::CollectErrors(
        40,
        [&](uint64_t seed) {
          rank::RandomizedRankOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          o.use_skip_sampling = use_skip;
          rank::RandomizedRankTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateRank(query) - static_cast<double>(truth);
        },
        8000);
    EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9)
        << "skip=" << use_skip;
  }
}

}  // namespace
}  // namespace disttrack
