// Tests for disttrack/frequency: the deterministic tracker [29]
// (deterministic ±εn guarantee, O(1/ε) space, Θ(k/ε logN) messages) and the
// randomized tracker of §3.1 (Lemma 3.1 unbiasedness/variance, Theorem 3.1
// coverage and O(1/(ε√k)) space, the estimator-(2) ablation, and virtual-
// site splitting).

#include <cmath>
#include <cstring>
#include <unordered_map>

#include <gtest/gtest.h>

#include "disttrack/frequency/deterministic_frequency.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace frequency {
namespace {

using stream::MakeFrequencyWorkload;
using stream::MakePlantedFrequencyWorkload;
using stream::SiteSchedule;

std::unordered_map<uint64_t, uint64_t> TrueFrequencies(
    const sim::Workload& w) {
  std::unordered_map<uint64_t, uint64_t> f;
  for (const auto& a : w) ++f[a.key];
  return f;
}

TEST(DeterministicFrequencyTest, OptionsValidate) {
  DeterministicFrequencyOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.epsilon = 2;
  EXPECT_FALSE(o.Validate().ok());
  o = DeterministicFrequencyOptions{};
  o.num_sites = -1;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(DeterministicFrequencyTest, AllItemsWithinEpsilonZipf) {
  DeterministicFrequencyOptions o;
  o.num_sites = 8;
  o.epsilon = 0.02;
  DeterministicFrequencyTracker tracker(o);
  auto w = MakeFrequencyWorkload(8, 100000, SiteSchedule::kUniformRandom,
                                 5000, 1.2, 3);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  double bound = o.epsilon * static_cast<double>(w.size());
  for (const auto& [item, f] : TrueFrequencies(w)) {
    double err = std::fabs(tracker.EstimateFrequency(item) -
                           static_cast<double>(f));
    ASSERT_LE(err, bound + 1e-9) << "item " << item;
  }
}

TEST(DeterministicFrequencyTest, GuaranteeHoldsMidStream) {
  DeterministicFrequencyOptions o;
  o.num_sites = 4;
  o.epsilon = 0.05;
  DeterministicFrequencyTracker tracker(o);
  auto w = MakeFrequencyWorkload(4, 60000, SiteSchedule::kRoundRobin, 100,
                                 1.0, 7);
  std::unordered_map<uint64_t, uint64_t> truth;
  uint64_t n = 0;
  for (const auto& a : w) {
    tracker.Arrive(a.site, a.key);
    ++truth[a.key];
    ++n;
    if (n % 9973 == 0) {
      for (uint64_t probe : {0ull, 1ull, 17ull}) {
        double err = std::fabs(tracker.EstimateFrequency(probe) -
                               static_cast<double>(truth[probe]));
        ASSERT_LE(err, o.epsilon * static_cast<double>(n) + 1e-9)
            << "probe " << probe << " at n " << n;
      }
    }
  }
}

TEST(DeterministicFrequencyTest, GuaranteeHoldsUnderSkewedSites) {
  DeterministicFrequencyOptions o;
  o.num_sites = 16;
  o.epsilon = 0.05;
  DeterministicFrequencyTracker tracker(o);
  auto w = MakeFrequencyWorkload(16, 50000, SiteSchedule::kSingleSite, 200,
                                 1.1, 11);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  double bound = o.epsilon * static_cast<double>(w.size());
  for (const auto& [item, f] : TrueFrequencies(w)) {
    ASSERT_LE(std::fabs(tracker.EstimateFrequency(item) -
                        static_cast<double>(f)),
              bound + 1e-9);
  }
}

TEST(DeterministicFrequencyTest, AbsentItemStaysNearZero) {
  DeterministicFrequencyOptions o;
  o.num_sites = 4;
  o.epsilon = 0.05;
  DeterministicFrequencyTracker tracker(o);
  for (int i = 0; i < 20000; ++i) tracker.Arrive(i % 4, i % 7);
  EXPECT_LE(std::fabs(tracker.EstimateFrequency(999999)), 0.05 * 20000);
}

TEST(DeterministicFrequencyTest, SpaceIsOneOverEps) {
  DeterministicFrequencyOptions o;
  o.num_sites = 4;
  o.epsilon = 0.02;
  DeterministicFrequencyTracker tracker(o);
  auto w = MakeFrequencyWorkload(4, 100000, SiteSchedule::kUniformRandom,
                                 100000, 0.8, 13);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  // Sketch capacity 4/eps = 200 counters at 2 words each, plus up to the
  // same again for the last-reported mirror: O(1/eps) with constant ~8-12.
  EXPECT_LE(tracker.space().MaxPeak(), static_cast<uint64_t>(24.0 / 0.02));
  EXPECT_LT(tracker.space().MaxPeak(), 100000u / 10);  // << stream length
}

TEST(DeterministicFrequencyTest, CommunicationScalesWithK) {
  auto run = [](int k) {
    DeterministicFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.05;
    DeterministicFrequencyTracker tracker(o);
    auto w = MakeFrequencyWorkload(k, 150000, SiteSchedule::kRoundRobin, 500,
                                   1.1, 17);
    for (const auto& a : w) tracker.Arrive(a.site, a.key);
    return static_cast<double>(tracker.meter().TotalMessages());
  };
  double k8 = run(8);
  double k32 = run(32);
  EXPECT_GT(k32 / k8, 2.0);  // ~linear in k
}

TEST(RandomizedFrequencyTest, OptionsValidate) {
  RandomizedFrequencyOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.confidence_factor = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(RandomizedFrequencyTest, ExactWhilePIsOne) {
  RandomizedFrequencyOptions o;
  o.num_sites = 16;
  o.epsilon = 0.1;
  o.confidence_factor = 8;
  RandomizedFrequencyTracker tracker(o);
  // p stays 1 while n̄ <= c√k/ε = 320.
  for (int i = 0; i < 300; ++i) {
    tracker.Arrive(i % 16, i % 5);
    ASSERT_DOUBLE_EQ(tracker.p(), 1.0);
  }
  for (uint64_t item = 0; item < 5; ++item) {
    EXPECT_DOUBLE_EQ(tracker.EstimateFrequency(item), 60.0);
  }
}

TEST(RandomizedFrequencyTest, UnbiasedAtFixedTime) {
  // Lemma 3.1: E[f̂'_ij] = f_ij summed over instances and rounds.
  std::vector<uint64_t> counts{12000, 4000, 800, 100};
  auto w = MakePlantedFrequencyWorkload(8, counts,
                                        SiteSchedule::kUniformRandom, 19);
  for (uint64_t item = 0; item < counts.size(); ++item) {
    auto errors = testing_util::CollectErrors(250, [&](uint64_t seed) {
      RandomizedFrequencyOptions o;
      o.num_sites = 8;
      o.epsilon = 0.05;
      o.seed = seed;
      RandomizedFrequencyTracker tracker(o);
      for (const auto& a : w) tracker.Arrive(a.site, a.key);
      return tracker.EstimateFrequency(item) -
             static_cast<double>(counts[item]);
    });
    // std <= O(eps*n/c) ~ 106; mean over 250 trials ~ 7.
    EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 40.0) << "item " << item;
  }
}

TEST(RandomizedFrequencyTest, CoverageAtLeastNinety) {
  const double eps = 0.02;
  std::vector<uint64_t> counts{20000, 10000, 5000, 1000, 200};
  auto w = MakePlantedFrequencyWorkload(8, counts,
                                        SiteSchedule::kUniformRandom, 23);
  double n = static_cast<double>(w.size());
  for (uint64_t item = 0; item < counts.size(); ++item) {
    auto errors = testing_util::CollectErrors(200, [&](uint64_t seed) {
      RandomizedFrequencyOptions o;
      o.num_sites = 8;
      o.epsilon = eps;
      o.seed = seed;
      RandomizedFrequencyTracker tracker(o);
      for (const auto& a : w) tracker.Arrive(a.site, a.key);
      return tracker.EstimateFrequency(item) -
             static_cast<double>(counts[item]);
    });
    EXPECT_GE(CoverageWithin(errors, eps * n), 0.9) << "item " << item;
  }
}

TEST(RandomizedFrequencyTest, RareItemEstimateCanBeNegativeButSmall) {
  // Items with no counter use -d/p: individual answers may be negative, but
  // they stay within the εn window.
  const double eps = 0.05;
  std::vector<uint64_t> counts{30000, 50};
  auto w = MakePlantedFrequencyWorkload(4, counts,
                                        SiteSchedule::kUniformRandom, 29);
  bool saw_negative = false;
  auto errors = testing_util::CollectErrors(200, [&](uint64_t seed) {
    RandomizedFrequencyOptions o;
    o.num_sites = 4;
    o.epsilon = eps;
    o.seed = seed;
    RandomizedFrequencyTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site, a.key);
    double est = tracker.EstimateFrequency(1);
    if (est < 0) saw_negative = true;
    return est - 50.0;
  });
  EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(w.size())),
            0.9);
  EXPECT_TRUE(saw_negative);
}

TEST(RandomizedFrequencyTest, NaiveEstimatorIsBiasedUpward) {
  // Ablation (docs/REPRODUCTION.md): estimator (2) has positive bias ~Θ(εn/√k) per
  // mid-frequency item; the correct estimator (4) removes it.
  const double eps = 0.05;
  const int k = 16;
  // Many items sized near εn̄/√k so the no-counter case is common.
  std::vector<uint64_t> counts(40, 400);
  auto w = MakePlantedFrequencyWorkload(k, counts,
                                        SiteSchedule::kUniformRandom, 31);
  auto run = [&](bool naive) {
    auto errors = testing_util::CollectErrors(200, [&](uint64_t seed) {
      RandomizedFrequencyOptions o;
      o.num_sites = k;
      o.epsilon = eps;
      o.seed = seed;
      o.naive_boundary_estimator = naive;
      RandomizedFrequencyTracker tracker(o);
      for (const auto& a : w) tracker.Arrive(a.site, a.key);
      return tracker.EstimateFrequency(7) - 400.0;
    });
    return testing_util::MeanOf(errors);
  };
  double biased = run(true);
  double correct = run(false);
  EXPECT_GT(biased, std::fabs(correct) + 5.0);
}

TEST(RandomizedFrequencyTest, SpaceBoundedByVirtualSplit) {
  const double eps = 0.01;
  const int k = 16;
  RandomizedFrequencyOptions o;
  o.num_sites = k;
  o.epsilon = eps;
  o.seed = 5;
  RandomizedFrequencyTracker with_split(o);
  o.virtual_site_split = false;
  RandomizedFrequencyTracker without_split(o);
  // Whole stream of distinct items at one site: worst case for space.
  for (uint64_t i = 0; i < 200000; ++i) {
    with_split.Arrive(0, i);
    without_split.Arrive(0, i);
  }
  EXPECT_GT(with_split.splits(), 0u);
  // The split caps space near p·n̄/k; without it space grows ~k× larger.
  EXPECT_GT(without_split.space().MaxPeak(),
            3 * with_split.space().MaxPeak());
}

TEST(RandomizedFrequencyTest, CommunicationBeatsDeterministicAtLargeK) {
  const int k = 64;
  const double eps = 0.01;
  auto w = MakeFrequencyWorkload(k, 1 << 18, SiteSchedule::kRoundRobin, 1000,
                                 1.1, 37);
  DeterministicFrequencyOptions det;
  det.num_sites = k;
  det.epsilon = eps;
  DeterministicFrequencyTracker det_tracker(det);
  for (const auto& a : w) det_tracker.Arrive(a.site, a.key);

  RandomizedFrequencyOptions rnd;
  rnd.num_sites = k;
  rnd.epsilon = eps;
  rnd.seed = 41;
  RandomizedFrequencyTracker rnd_tracker(rnd);
  for (const auto& a : w) rnd_tracker.Arrive(a.site, a.key);

  EXPECT_GT(det_tracker.meter().TotalMessages(),
            rnd_tracker.meter().TotalMessages());
}

// Fast-tier twin of the slow batch-equivalence suite for the grouped
// engine: grouped chunks queue counter reports and samples and apply them
// after the spans with prefetch, which must leave every estimate, the
// communication totals, rounds and splits bit-identical to per-element
// Arrive(). A wide key universe makes the aggregate's tables grow inside
// a batched apply.
TEST(RandomizedFrequencyTest, GroupedDeliveryBitIdenticalToPerElement) {
  const int k = 8;
  const uint64_t kUniverse = 20000;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kSingleSite}) {
    auto w = MakeFrequencyWorkload(k, 200000, sched, kUniverse, 0.8, 23);
    RandomizedFrequencyOptions o;
    o.num_sites = k;
    o.epsilon = 0.02;
    o.seed = 29;
    RandomizedFrequencyTracker grouped(o), scalar(o);
    grouped.ArriveBatch(w.data(), w.size());
    for (const auto& a : w) scalar.Arrive(a.site, a.key);
    for (uint64_t item = 0; item < kUniverse; ++item) {
      double a = grouped.EstimateFrequency(item);
      double b = scalar.EstimateFrequency(item);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "item " << item;
    }
    EXPECT_EQ(grouped.meter().TotalMessages(),
              scalar.meter().TotalMessages());
    EXPECT_EQ(grouped.meter().TotalWords(), scalar.meter().TotalWords());
    EXPECT_EQ(grouped.rounds(), scalar.rounds());
    EXPECT_EQ(grouped.splits(), scalar.splits());
    EXPECT_GT(grouped.rounds(), 3u);
  }
}

TEST(RandomizedFrequencyTest, ContinuousCheckpointsMostlyCovered) {
  RandomizedFrequencyOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  o.seed = 43;
  RandomizedFrequencyTracker tracker(o);
  auto w = MakeFrequencyWorkload(8, 150000, SiteSchedule::kUniformRandom,
                                 200, 1.2, 47);
  auto checkpoints = sim::ReplayFrequency(&tracker, w, 0, 1.4);
  int misses = 0, counted = 0;
  for (const auto& c : checkpoints) {
    if (c.n < 2000) continue;
    ++counted;
    if (std::fabs(c.estimate - c.truth) > 0.05 * static_cast<double>(c.n)) {
      ++misses;
    }
  }
  ASSERT_GT(counted, 5);
  EXPECT_LE(misses, counted / 5);
}

}  // namespace
}  // namespace frequency
}  // namespace disttrack
