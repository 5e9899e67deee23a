// Tests for disttrack/count: the coarse n̄ tracker, the trivial
// deterministic protocol, and the randomized protocol of §2.1 — including
// Lemma 2.1 (unbiasedness / variance), Theorem 2.1 (error with probability
// >= 0.9, O(1) site space, √k/ε·logN communication), and the boundary-
// estimator ablation.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/coarse_tracker.h"
#include "disttrack/count/deterministic_count.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace count {
namespace {

using stream::MakeCountWorkload;
using stream::SiteSchedule;

TEST(CoarseTrackerTest, NBarIsConstantFactorApproximation) {
  sim::CommMeter meter(4);
  CoarseTracker coarse(&meter);
  std::vector<CoarseSite> sites(4);
  Rng rng(3);
  uint64_t n = 0;
  for (int i = 0; i < 100000; ++i) {
    int site = static_cast<int>(rng.UniformU64(4));
    coarse.Arrive(site, &sites[static_cast<size_t>(site)]);
    ++n;
    ASSERT_GE(n, coarse.n_bar());
    ASSERT_LT(n, 4 * std::max<uint64_t>(1, coarse.n_bar()));
  }
  EXPECT_GT(coarse.round(), 10u);
}

TEST(CoarseTrackerTest, FirstElementBroadcastsImmediately) {
  sim::CommMeter meter(4);
  CoarseTracker coarse(&meter);
  CoarseSite site;
  coarse.Arrive(2, &site);
  EXPECT_EQ(coarse.n_bar(), 1u);
  EXPECT_EQ(coarse.round(), 1u);
  EXPECT_EQ(meter.broadcast_count(), 1u);
}

TEST(CoarseTrackerTest, CommunicationIsKLogN) {
  const int k = 16;
  sim::CommMeter meter(k);
  CoarseTracker coarse(&meter);
  std::vector<CoarseSite> sites(k);
  const uint64_t kN = 1 << 18;
  for (uint64_t i = 0; i < kN; ++i) {
    coarse.Arrive(static_cast<int>(i % k), &sites[i % k]);
  }
  // Uploads: each site reports ~log2(N/k) times; broadcasts: ~log2(N) each
  // costing k. Budget 4 k log2 N total messages.
  double budget = 4.0 * k * std::log2(static_cast<double>(kN));
  EXPECT_LT(static_cast<double>(meter.TotalMessages()), budget);
}

TEST(CoarseTrackerTest, ObserversFireInOrderWithRounds) {
  sim::CommMeter meter(2);
  CoarseTracker coarse(&meter);
  std::vector<CoarseSite> sites(2);
  uint64_t last_round = 0;
  uint64_t last_nbar = 0;
  coarse.AddObserver([&](uint64_t round, uint64_t n_bar) {
    EXPECT_EQ(round, last_round + 1);
    EXPECT_GE(n_bar, 2 * last_nbar);
    last_round = round;
    last_nbar = n_bar;
  });
  for (int i = 0; i < 5000; ++i) coarse.Arrive(i % 2, &sites[i % 2]);
  EXPECT_EQ(last_round, coarse.round());
}

TEST(CoarseTrackerTest, SingleSiteSkewStillApproximates) {
  sim::CommMeter meter(8);
  CoarseTracker coarse(&meter);
  CoarseSite site;
  for (uint64_t i = 1; i <= 50000; ++i) {
    coarse.Arrive(3, &site);
    ASSERT_GE(i, coarse.n_bar());
    ASSERT_LT(i, 4 * std::max<uint64_t>(1, coarse.n_bar()));
  }
}

TEST(DeterministicCountTest, OptionsValidate) {
  DeterministicCountOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.num_sites = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.num_sites = 4;
  o.epsilon = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.epsilon = 1.5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(DeterministicCountTest, ErrorWithinEpsilonAtAllTimes) {
  DeterministicCountOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  DeterministicCountTracker tracker(o);
  auto w = MakeCountWorkload(8, 100000, SiteSchedule::kUniformRandom, 5);
  uint64_t n = 0;
  for (const auto& a : w) {
    tracker.Arrive(a.site);
    ++n;
    double err = std::fabs(tracker.EstimateCount() - static_cast<double>(n));
    ASSERT_LE(err, o.epsilon * static_cast<double>(n) + 1e-9)
        << "at n = " << n;
  }
}

TEST(DeterministicCountTest, OneWayOnly) {
  DeterministicCountOptions o;
  o.num_sites = 4;
  o.epsilon = 0.1;
  DeterministicCountTracker tracker(o);
  for (int i = 0; i < 10000; ++i) tracker.Arrive(i % 4);
  EXPECT_EQ(tracker.meter().downloads().messages, 0u);
  EXPECT_EQ(tracker.meter().broadcast_count(), 0u);
}

TEST(DeterministicCountTest, CommunicationScalesAsKOverEps) {
  // Messages ~ k * log_{1+eps/2}(N/k) — verify the 1/eps scaling by
  // comparing two eps values on the same workload.
  auto run = [](double eps) {
    DeterministicCountOptions o;
    o.num_sites = 8;
    o.epsilon = eps;
    DeterministicCountTracker tracker(o);
    for (int i = 0; i < 200000; ++i) tracker.Arrive(i % 8);
    return static_cast<double>(tracker.meter().TotalMessages());
  };
  double coarse = run(0.04);
  double fine = run(0.01);
  EXPECT_GT(fine, 2.5 * coarse);  // ~4x expected
  EXPECT_LT(fine, 6.0 * coarse);
}

TEST(DeterministicCountTest, SpaceIsConstant) {
  DeterministicCountOptions o;
  o.num_sites = 4;
  o.epsilon = 0.01;
  DeterministicCountTracker tracker(o);
  for (int i = 0; i < 50000; ++i) tracker.Arrive(i % 4);
  EXPECT_LE(tracker.space().MaxPeak(), 4u);
}

TEST(RandomizedCountTest, OptionsValidate) {
  RandomizedCountOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.confidence_factor = 0.5;
  EXPECT_FALSE(o.Validate().ok());
  o.confidence_factor = 4;
  o.epsilon = -0.1;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(RandomizedCountTest, ExactWhilePIsOne) {
  // While εn̄ <= c√k the tracker forwards every arrival: estimate is exact.
  RandomizedCountOptions o;
  o.num_sites = 16;
  o.epsilon = 0.1;
  o.confidence_factor = 4;
  RandomizedCountTracker tracker(o);
  // p stays 1 while n̄ <= c√k/ε = 160.
  for (int i = 0; i < 150; ++i) {
    tracker.Arrive(i % 16);
    ASSERT_DOUBLE_EQ(tracker.EstimateCount(),
                     static_cast<double>(tracker.TrueCount()));
  }
  EXPECT_DOUBLE_EQ(tracker.p(), 1.0);
}

TEST(RandomizedCountTest, UnbiasedAtFixedTime) {
  // Lemma 2.1: E[n̂] = n. Mean error over trials should concentrate at 0.
  const uint64_t kN = 30000;
  auto w = MakeCountWorkload(8, kN, SiteSchedule::kUniformRandom, 7);
  auto errors = testing_util::CollectErrors(400, [&](uint64_t seed) {
    RandomizedCountOptions o;
    o.num_sites = 8;
    o.epsilon = 0.05;
    o.seed = seed;
    RandomizedCountTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site);
    return tracker.EstimateCount() - static_cast<double>(kN);
  });
  // std <= eps*n/c = 375; mean of 400 trials has std ~ 19.
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 60.0);
}

TEST(RandomizedCountTest, VarianceWithinBudget) {
  // Var[n̂] <= k/p² <= (εn̄/c)² <= (εn/c)².
  const uint64_t kN = 40000;
  const double eps = 0.05;
  const double c = 4;
  auto w = MakeCountWorkload(16, kN, SiteSchedule::kRoundRobin, 9);
  auto errors = testing_util::CollectErrors(400, [&](uint64_t seed) {
    RandomizedCountOptions o;
    o.num_sites = 16;
    o.epsilon = eps;
    o.seed = seed;
    o.confidence_factor = c;
    RandomizedCountTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site);
    return tracker.EstimateCount() - static_cast<double>(kN);
  });
  double budget = eps * static_cast<double>(kN) / c;
  EXPECT_LE(testing_util::VarianceOf(errors), 1.3 * budget * budget);
}

TEST(RandomizedCountTest, CoverageAtLeastNinety) {
  // Theorem 2.1: error <= εn with probability >= 0.9 at any fixed time.
  const uint64_t kN = 30000;
  const double eps = 0.02;
  auto w = MakeCountWorkload(8, kN, SiteSchedule::kUniformRandom, 11);
  auto errors = testing_util::CollectErrors(300, [&](uint64_t seed) {
    RandomizedCountOptions o;
    o.num_sites = 8;
    o.epsilon = eps;
    o.seed = seed;
    RandomizedCountTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site);
    return tracker.EstimateCount() - static_cast<double>(kN);
  });
  EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9);
}

TEST(RandomizedCountTest, CoverageHoldsUnderSkew) {
  const uint64_t kN = 30000;
  const double eps = 0.05;
  for (auto schedule : {SiteSchedule::kSingleSite, SiteSchedule::kBursty,
                        SiteSchedule::kSkewedGeometric}) {
    auto w = MakeCountWorkload(16, kN, schedule, 13);
    auto errors = testing_util::CollectErrors(200, [&](uint64_t seed) {
      RandomizedCountOptions o;
      o.num_sites = 16;
      o.epsilon = eps;
      o.seed = seed;
      RandomizedCountTracker tracker(o);
      for (const auto& a : w) tracker.Arrive(a.site);
      return tracker.EstimateCount() - static_cast<double>(kN);
    });
    EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9)
        << "schedule " << static_cast<int>(schedule);
  }
}

TEST(RandomizedCountTest, SpaceIsConstantPerSite) {
  RandomizedCountOptions o;
  o.num_sites = 8;
  o.epsilon = 0.01;
  RandomizedCountTracker tracker(o);
  for (int i = 0; i < 100000; ++i) tracker.Arrive(i % 8);
  EXPECT_LE(tracker.space().MaxPeak(), 8u);
}

TEST(RandomizedCountTest, BeatsDeterministicCommunicationAtLargeK) {
  const int k = 64;
  const double eps = 0.01;
  const uint64_t kN = 1 << 18;
  auto w = MakeCountWorkload(k, kN, SiteSchedule::kRoundRobin, 17);

  DeterministicCountOptions det;
  det.num_sites = k;
  det.epsilon = eps;
  DeterministicCountTracker det_tracker(det);
  for (const auto& a : w) det_tracker.Arrive(a.site);

  RandomizedCountOptions rnd;
  rnd.num_sites = k;
  rnd.epsilon = eps;
  rnd.seed = 23;
  RandomizedCountTracker rnd_tracker(rnd);
  for (const auto& a : w) rnd_tracker.Arrive(a.site);

  // Theory ratio k/√k = 8; constants (c = 4) eat part of it. Require > 1.5x.
  EXPECT_GT(det_tracker.meter().TotalMessages(),
            rnd_tracker.meter().TotalMessages() * 3 / 2);
}

TEST(RandomizedCountTest, PDecreasesOverTime) {
  RandomizedCountOptions o;
  o.num_sites = 4;
  o.epsilon = 0.05;
  RandomizedCountTracker tracker(o);
  double last_p = 1.0;
  for (int i = 0; i < 200000; ++i) {
    tracker.Arrive(i % 4);
    double p = tracker.p();
    ASSERT_LE(p, last_p + 1e-12);
    last_p = p;
  }
  EXPECT_LT(last_p, 0.1);
  // 1/p stays a power of two.
  double inv_p = 1.0 / last_p;
  EXPECT_DOUBLE_EQ(std::exp2(std::round(std::log2(inv_p))), inv_p);
}

TEST(RandomizedCountTest, TwoWayCommunicationIsUsed) {
  RandomizedCountOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  RandomizedCountTracker tracker(o);
  for (int i = 0; i < 50000; ++i) tracker.Arrive(i % 8);
  // Theorem 2.2: the √k bound requires coordinator->site traffic.
  EXPECT_GT(tracker.meter().broadcast_count(), 0u);
  EXPECT_GT(tracker.meter().downloads().messages, 0u);
}

TEST(RandomizedCountTest, NaiveBoundaryEstimatorIsBiased) {
  // The ablation reproduces the bias the paper warns about: applying
  // n̂_i = n̄_i - 1 + 1/p to sites with no report adds ~(1/p - 1) per idle
  // site. A single-site stream leaves k-1 sites without reports, so the
  // naive estimate drifts upward by ~(k-1)(1/p - 1) while the paper's
  // two-case estimator stays centered.
  const uint64_t kN = 20000;
  const double eps = 0.05;
  const int k = 64;
  auto w = MakeCountWorkload(k, kN, SiteSchedule::kSingleSite, 31);
  double biased_mean, correct_mean;
  for (bool naive : {true, false}) {
    auto errors = testing_util::CollectErrors(300, [&](uint64_t seed) {
      RandomizedCountOptions o;
      o.num_sites = k;
      o.epsilon = eps;
      o.seed = seed;
      o.naive_boundary_estimator = naive;
      RandomizedCountTracker tracker(o);
      for (const auto& a : w) tracker.Arrive(a.site);
      return tracker.EstimateCount() - static_cast<double>(kN);
    });
    (naive ? biased_mean : correct_mean) = testing_util::MeanOf(errors);
  }
  EXPECT_GT(std::fabs(biased_mean), 10 * std::fabs(correct_mean) + 50);
}

// Fast-tier twin of the slow batch-equivalence suite for grouped count
// delivery: each chunk advances whole per-site spans up to its first
// broadcast, which must leave the estimate, the communication totals and
// the rounds bit-identical to per-element Arrive(), through both batch
// entry points.
TEST(RandomizedCountTest, GroupedDeliveryBitIdenticalToPerElement) {
  const int k = 8;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kBursty}) {
    auto w = MakeCountWorkload(k, 300000, sched, 61);
    sim::SiteStream sites(w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      sites[i] = static_cast<uint16_t>(w[i].site);
    }
    RandomizedCountOptions o;
    o.num_sites = k;
    o.epsilon = 0.01;
    o.seed = 67;
    RandomizedCountTracker scalar(o), grouped(o), grouped_sites(o);
    for (const auto& a : w) scalar.Arrive(a.site);
    grouped.ArriveBatch(w.data(), w.size());
    grouped_sites.ArriveSites(sites.data(), sites.size());
    ASSERT_GT(scalar.rounds(), 3u);
    for (const RandomizedCountTracker* t : {&grouped, &grouped_sites}) {
      double a = t->EstimateCount();
      double b = scalar.EstimateCount();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
      EXPECT_EQ(t->meter().TotalMessages(), scalar.meter().TotalMessages());
      EXPECT_EQ(t->meter().TotalWords(), scalar.meter().TotalWords());
      EXPECT_EQ(t->rounds(), scalar.rounds());
    }
  }
}

TEST(RandomizedCountTest, ContinuousTrackingViaCheckpoints) {
  RandomizedCountOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  o.seed = 77;
  RandomizedCountTracker tracker(o);
  auto w = MakeCountWorkload(8, 200000, SiteSchedule::kUniformRandom, 37);
  auto checkpoints = sim::ReplayCount(&tracker, w, 1.3);
  // Most checkpoints within eps*n; allow a few Chebyshev misses.
  int misses = 0;
  int counted = 0;
  for (const auto& c : checkpoints) {
    if (c.n < 1000) continue;
    ++counted;
    if (std::fabs(c.estimate - c.truth) > 0.05 * static_cast<double>(c.n)) {
      ++misses;
    }
  }
  ASSERT_GT(counted, 5);
  EXPECT_LE(misses, counted / 5);
}

}  // namespace
}  // namespace count
}  // namespace disttrack
