// Scenario: a service with 32 ingress load balancers wants a live latency
// dashboard — p50/p95/p99 over ALL requests, continuously, without hauling
// every measurement to the metrics hub (the network-monitoring motivation
// of §1.1; rank/quantile tracking of §4).
//
// Latencies are log-normal-ish (generated by clustered values), quantized
// to 1µs ticks in [0, 2^16). The dashboard binary-searches the tracker's
// monotone rank estimates for quantiles at every refresh.
//
//   $ ./examples/latency_quantile_dashboard

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "disttrack/core/quantile.h"
#include "disttrack/core/tracking.h"
#include "disttrack/stream/workload.h"

using disttrack::core::Algorithm;
using disttrack::core::QuantileFromRank;
using disttrack::core::TrackerOptions;

namespace {

uint64_t ExactQuantile(std::vector<uint64_t> values, double phi) {
  if (values.empty()) return 0;
  size_t idx = static_cast<size_t>(phi * static_cast<double>(values.size()));
  idx = std::min(idx, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

}  // namespace

int main() {
  const int kBalancers = 32;
  const double kEps = 0.01;
  const uint64_t kRequests = 1u << 19;
  const int kUniverseBits = 16;

  TrackerOptions options;
  options.num_sites = kBalancers;
  options.epsilon = kEps;
  options.seed = 13;

  std::unique_ptr<disttrack::sim::RankTrackerInterface> tracker;
  if (auto s = disttrack::core::MakeRankTracker(Algorithm::kRandomized,
                                                options, &tracker);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  auto workload = disttrack::stream::MakeRankWorkload(
      kBalancers, kRequests, disttrack::stream::SiteSchedule::kUniformRandom,
      disttrack::stream::ValueOrder::kClustered, kUniverseBits, /*seed=*/21);

  std::printf("balancers=%d  eps=%.3f  (clustered latencies, 1us ticks)\n\n",
              kBalancers, kEps);
  std::printf("%12s %10s %10s %10s %10s %10s %10s\n", "requests", "p50",
              "p50 true", "p95", "p95 true", "p99", "p99 true");

  std::vector<uint64_t> all;
  all.reserve(workload.size());
  uint64_t next_refresh = 1 << 14;
  for (const auto& a : workload) {
    tracker->Arrive(a.site, a.key);
    all.push_back(a.key);
    if (all.size() >= next_refresh) {
      std::printf("%12zu %10llu %10llu %10llu %10llu %10llu %10llu\n",
                  all.size(),
                  static_cast<unsigned long long>(
                      QuantileFromRank(*tracker, 0.50, 1ull << kUniverseBits)),
                  static_cast<unsigned long long>(ExactQuantile(all, 0.50)),
                  static_cast<unsigned long long>(
                      QuantileFromRank(*tracker, 0.95, 1ull << kUniverseBits)),
                  static_cast<unsigned long long>(ExactQuantile(all, 0.95)),
                  static_cast<unsigned long long>(
                      QuantileFromRank(*tracker, 0.99, 1ull << kUniverseBits)),
                  static_cast<unsigned long long>(ExactQuantile(all, 0.99)));
      next_refresh *= 4;
    }
  }

  std::printf("\ncommunication: %llu messages, %llu words for %llu requests "
              "(%.4f msgs/request)\n",
              static_cast<unsigned long long>(
                  tracker->meter().TotalMessages()),
              static_cast<unsigned long long>(tracker->meter().TotalWords()),
              static_cast<unsigned long long>(tracker->TrueCount()),
              static_cast<double>(tracker->meter().TotalMessages()) /
                  static_cast<double>(tracker->TrueCount()));
  std::printf("peak tracker memory per balancer: %llu words\n",
              static_cast<unsigned long long>(tracker->space().MaxPeak()));
  std::printf("\nEach quantile answer is within +-%.1f%% of the request "
              "count in rank (Theorem 4.1), so p99 is a true "
              "p[99 +- %.1f] at every refresh.\n",
              100 * kEps, 100 * kEps);
  return 0;
}
