// Ablation benches for the design choices docs/REPRODUCTION.md calls out:
//  1. estimator (1) boundary case (count): the two-branch estimator vs the
//     naive "apply the formula to absent reports" variant;
//  2. estimator (4) vs (2) (frequency): with and without the -d/p branch;
//  3. virtual-site splitting (frequency): space cap vs no cap under a
//     fully skewed stream.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "disttrack/common/stats.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"

namespace {

using disttrack::RunningStats;
using namespace disttrack::stream;

}  // namespace

int main() {
  std::printf("== Ablations (docs/REPRODUCTION.md) ==\n");

  // 1. Count boundary estimator, single-site stream so most sites have no
  // report — the regime where §2.1 says the naive estimator picks up a
  // Θ(1/p) bias per report-less site.
  std::printf("\n-- 1. count estimator (1): two-branch vs naive boundary --\n");
  std::printf("(k = 64, eps = 0.05, n = 20000, single-site stream, 80 "
              "trials)\n");
  {
    auto w = MakeCountWorkload(64, 20000, SiteSchedule::kSingleSite, 31);
    for (bool naive : {false, true}) {
      RunningStats err;
      for (uint64_t seed = 1; seed <= 80; ++seed) {
        disttrack::count::RandomizedCountOptions o;
        o.num_sites = 64;
        o.epsilon = 0.05;
        o.seed = seed;
        o.naive_boundary_estimator = naive;
        disttrack::count::RandomizedCountTracker tracker(o);
        for (const auto& a : w) tracker.Arrive(a.site);
        err.Add(tracker.EstimateCount() - 20000.0);
      }
      std::printf("  %-22s mean error %+9.1f   std %8.1f\n",
                  naive ? "naive (biased)" : "paper estimator (1)",
                  err.Mean(), err.StdDev());
    }
    std::printf("  -> the naive variant's bias ~ (k - 1)(1/p - 1), exactly "
                "the failure mode §2.1 explains.\n");
  }

  // 2. Frequency estimator (2) vs (4) on items sized near eps*n/sqrt(k).
  std::printf("\n-- 2. frequency estimator (2) vs (4) --\n");
  std::printf("(k = 16, eps = 0.05, 40 items of 400 copies, 80 trials)\n");
  {
    std::vector<uint64_t> counts(40, 400);
    auto w = MakePlantedFrequencyWorkload(16, counts,
                                          SiteSchedule::kUniformRandom, 37);
    for (bool naive : {false, true}) {
      RunningStats err;
      for (uint64_t seed = 1; seed <= 80; ++seed) {
        disttrack::frequency::RandomizedFrequencyOptions o;
        o.num_sites = 16;
        o.epsilon = 0.05;
        o.seed = seed;
        o.naive_boundary_estimator = naive;
        disttrack::frequency::RandomizedFrequencyTracker tracker(o);
        for (const auto& a : w) tracker.Arrive(a.site, a.key);
        err.Add(tracker.EstimateFrequency(11) - 400.0);
      }
      std::printf("  %-22s mean error %+9.1f   std %8.1f\n",
                  naive ? "estimator (2) biased" : "estimator (4) unbiased",
                  err.Mean(), err.StdDev());
    }
  }

  // 3. Virtual-site splitting: per-site space cap under full skew.
  std::printf("\n-- 3. virtual-site split: space under a fully skewed "
              "stream --\n");
  std::printf("(k = 16, eps = 0.01, 200000 distinct items at one site)\n");
  {
    for (bool split : {true, false}) {
      disttrack::frequency::RandomizedFrequencyOptions o;
      o.num_sites = 16;
      o.epsilon = 0.01;
      o.seed = 3;
      o.virtual_site_split = split;
      disttrack::frequency::RandomizedFrequencyTracker tracker(o);
      for (uint64_t i = 0; i < 200000; ++i) tracker.Arrive(0, i);
      std::printf("  split %-4s : peak space %6llu words, %6llu splits, "
                  "%8llu messages\n",
                  split ? "on" : "off",
                  static_cast<unsigned long long>(tracker.space().MaxPeak()),
                  static_cast<unsigned long long>(tracker.splits()),
                  static_cast<unsigned long long>(
                      tracker.meter().TotalMessages()));
    }
    std::printf("  -> the n̄/k restart caps space at O(p n̄/k) = "
                "O(1/(eps sqrt k)) as §3.1 claims, at negligible "
                "communication cost.\n");
  }
  return 0;
}
