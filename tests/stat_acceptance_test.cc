// Statistical acceptance tier for the frequency and rank estimators: the
// checks a variance-breaking "optimization" would trip. Over >= 200
// independent seeds, for BOTH the reference oracles (per-arrival coins,
// per-element compactor feed) and the production path (skip sampling,
// batched compactor feed), the final estimator error must be
//
//  * unbiased: |mean error| within a 4-sigma CLT band of zero, and
//  * variance-bounded: sample Var <= (eps * m)^2 * slack, where the
//    theory bound with the default confidence factor c = 4 is
//    (eps * m / c)^2 — slack 1.0 therefore leaves ~16x headroom for
//    sampling noise while still catching any real variance regression;
//
// and the two paths' variances must agree within sampling noise (their
// coin processes are identical in distribution; batched compaction can
// only shrink the compactor's variance).

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace {

using stream::MakeFrequencyWorkload;
using stream::MakeRankWorkload;
using stream::SiteSchedule;

constexpr int kTrials = 220;

struct PathStats {
  double mean = 0;
  double variance = 0;
};

void CheckCltBandAndVariance(const std::vector<double>& errors, double eps_m,
                             const char* label) {
  double mean = testing_util::MeanOf(errors);
  double var = testing_util::VarianceOf(errors);
  double sd = std::sqrt(var);
  EXPECT_LE(std::fabs(mean),
            4.0 * sd / std::sqrt(static_cast<double>(errors.size())) + 1e-9)
      << label << ": estimator bias outside the CLT band";
  EXPECT_LE(var, eps_m * eps_m) << label << ": variance above (eps*m)^2";
}

PathStats Summarize(const std::vector<double>& errors) {
  return PathStats{testing_util::MeanOf(errors),
                   testing_util::VarianceOf(errors)};
}

TEST(StatAcceptanceTest, FrequencyOldAndNewPathsMatchTheory) {
  const int k = 8;
  const uint64_t kN = 40000;
  const double eps = 0.05;
  // Zipf(1.1) stream: item 0 carries real mass, so the estimator exercises
  // both the counter channel and the negative sampling correction.
  auto w = MakeFrequencyWorkload(k, kN, SiteSchedule::kUniformRandom, 2000,
                                 1.1, 71);
  uint64_t truth = stream::ExactFrequency(w, 0);
  ASSERT_GT(truth, kN / 100);

  PathStats stats[2];
  for (int path = 0; path < 2; ++path) {
    const bool new_path = path == 1;
    auto errors = testing_util::CollectErrors(
        kTrials,
        [&](uint64_t seed) {
          frequency::RandomizedFrequencyOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          // Old: the per-arrival Bernoulli coin oracle (scalar delivery).
          // New: the production path, skip sampling + event-countdown
          // batches.
          o.use_skip_sampling = new_path;
          frequency::RandomizedFrequencyTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateFrequency(0) - static_cast<double>(truth);
        },
        10000 + static_cast<uint64_t>(path) * 100000);
    CheckCltBandAndVariance(errors, eps * static_cast<double>(kN),
                            new_path ? "frequency/new" : "frequency/old");
    stats[path] = Summarize(errors);
  }
  ASSERT_GT(stats[0].variance, 0.0);
  double ratio = stats[1].variance / stats[0].variance;
  EXPECT_GT(ratio, 0.5) << stats[1].variance << " vs " << stats[0].variance;
  EXPECT_LT(ratio, 2.0) << stats[1].variance << " vs " << stats[0].variance;
}

TEST(StatAcceptanceTest, RankOldAndNewPathsMatchTheory) {
  const int k = 8;
  const uint64_t kN = 20000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 16, 73);
  const uint64_t query = 1u << 15;  // ~median of the 2^16 universe
  uint64_t truth = stream::ExactRank(w, query);

  PathStats stats[2];
  for (int path = 0; path < 2; ++path) {
    const bool new_path = path == 1;
    auto errors = testing_util::CollectErrors(
        kTrials,
        [&](uint64_t seed) {
          rank::RandomizedRankOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          // Old: the reference oracles, per-arrival tail coins + the
          // per-element compactor feed. New: the production path, skip
          // sampling + batched compaction.
          o.use_skip_sampling = new_path;
          o.use_batch_compaction = new_path;
          rank::RandomizedRankTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateRank(query) - static_cast<double>(truth);
        },
        20000 + static_cast<uint64_t>(path) * 100000);
    CheckCltBandAndVariance(errors, eps * static_cast<double>(kN),
                            new_path ? "rank/new" : "rank/old");
    stats[path] = Summarize(errors);
  }
  ASSERT_GT(stats[0].variance, 0.0);
  // Batched compaction performs fewer compactions, so its variance may dip
  // below the scalar path's but must never exceed it beyond noise.
  double ratio = stats[1].variance / stats[0].variance;
  EXPECT_GT(ratio, 0.3) << stats[1].variance << " vs " << stats[0].variance;
  EXPECT_LT(ratio, 2.0) << stats[1].variance << " vs " << stats[0].variance;
}

TEST(StatAcceptanceTest, FrequencyRareItemStaysUnbiasedOnBothPaths) {
  // A rare item's estimate is dominated by the negative -d/p correction;
  // bias here is exactly the failure the naive estimator (2) exhibits.
  const int k = 8;
  const uint64_t kN = 30000;
  const double eps = 0.05;
  auto w = MakeFrequencyWorkload(k, kN, SiteSchedule::kUniformRandom, 5000,
                                 0.0, 79);  // uniform: every item rare
  const uint64_t item = 7;
  uint64_t truth = stream::ExactFrequency(w, item);
  for (bool new_path : {false, true}) {
    auto errors = testing_util::CollectErrors(
        kTrials,
        [&](uint64_t seed) {
          frequency::RandomizedFrequencyOptions o;
          o.num_sites = k;
          o.epsilon = eps;
          o.seed = seed;
          o.use_skip_sampling = new_path;
          frequency::RandomizedFrequencyTracker tracker(o);
          tracker.ArriveBatch(w.data(), w.size());
          return tracker.EstimateFrequency(item) - static_cast<double>(truth);
        },
        30000 + (new_path ? 100000u : 0u));
    CheckCltBandAndVariance(errors, eps * static_cast<double>(kN),
                            new_path ? "rare/new" : "rare/old");
  }
}

}  // namespace
}  // namespace disttrack
