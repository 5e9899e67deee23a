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
// only shrink the compactor's variance). A rank run whose early rounds
// forward and whose late rounds build trees is held to the same bounds
// on the production path.

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
          // New: the production path, skip sampling + grouped batches.
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

// Rank errors at the median of a 2^16 universe over kTrials seeds, after
// `kN` uniform arrivals at `k` sites, on the reference oracles (per-arrival
// tail coins, per-element compactor feed) or the production path (skip
// sampling, batched compaction). `last` receives a run's last round.
std::vector<double> RankErrors(int k, uint64_t kN, double eps, bool new_path,
                               uint64_t seed_base, rank::RoundParams* last) {
  auto w = MakeRankWorkload(k, kN, SiteSchedule::kUniformRandom,
                            stream::ValueOrder::kUniformRandom, 16, 73);
  const uint64_t query = 1u << 15;
  const uint64_t truth = stream::ExactRank(w, query);
  return testing_util::CollectErrors(
      kTrials,
      [&](uint64_t seed) {
        rank::RandomizedRankOptions o;
        o.num_sites = k;
        o.epsilon = eps;
        o.seed = seed;
        o.use_skip_sampling = new_path;
        o.use_batch_compaction = new_path;
        rank::RandomizedRankTracker tracker(o);
        tracker.ArriveBatch(w.data(), w.size());
        *last = tracker.site(0).round();
        return tracker.EstimateRank(query) - static_cast<double>(truth);
      },
      seed_base + (new_path ? 100000u : 0u));
}

TEST(StatAcceptanceTest, RankOldAndNewPathsMatchTheory) {
  const int k = 8;
  const uint64_t kN = 20000;
  const double eps = 0.05;
  PathStats stats[2];
  rank::RoundParams last;
  for (bool new_path : {false, true}) {
    auto errors = RankErrors(k, kN, eps, new_path, 20000, &last);
    EXPECT_FALSE(last.forward) << "the run ends in a forward round";
    CheckCltBandAndVariance(errors, eps * static_cast<double>(kN),
                            new_path ? "rank/new" : "rank/old");
    stats[new_path] = Summarize(errors);
  }
  ASSERT_GT(stats[0].variance, 0.0);
  // Batched compaction performs fewer compactions, so its variance may dip
  // below the scalar path's but must never exceed it beyond noise.
  double ratio = stats[1].variance / stats[0].variance;
  EXPECT_GT(ratio, 0.3) << stats[1].variance << " vs " << stats[0].variance;
  EXPECT_LT(ratio, 2.0) << stats[1].variance << " vs " << stats[0].variance;
}

// A run whose early rounds forward (exact, no coins) and whose late
// rounds build trees: perfbench's zipf shape, k = 64 and eps = 0.01,
// forwards up to n̄ = 2^17 and builds trees from n̄ = 2^18 on. The
// production path only: the oracles are the same in forward rounds, and
// their per-element feed at this size would take most of a minute.
TEST(StatAcceptanceTest, RankMixedForwardAndTreeRoundsMatchTheory) {
  const uint64_t kN = uint64_t{1} << 20;
  const double eps = 0.01;
  rank::RoundParams last;
  auto errors = RankErrors(64, kN, eps, true, 40000, &last);
  EXPECT_FALSE(last.forward) << "the run ends in a forward round";
  CheckCltBandAndVariance(errors, eps * static_cast<double>(kN), "rank/mixed");
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
