// Quantile queries on top of rank tracking (§1.3: "if we have the data
// structure for one problem, we can do a binary search to solve the
// other"). Works with any RankTrackerInterface whose EstimateRank is
// monotone in the query (true for all three rank trackers in this
// library), and implements the §1.3 remark that a probabilistic rank
// structure answers all O(log(1/ε)) binary-search probes by a union bound.

#ifndef DISTTRACK_CORE_QUANTILE_H_
#define DISTTRACK_CORE_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace core {

/// Smallest x in [0, last] with rank_at(x) >= target, or `last` when no
/// x reaches it: a bisection, so rank_at must be nondecreasing. The one
/// quantile search; QuantileFromRank and the service coordinator's
/// quantile query each bring their own rank function and target.
template <typename RankAt>
uint64_t QuantileSearch(uint64_t last, double target, RankAt rank_at) {
  uint64_t lo = 0, hi = last;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (rank_at(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Smallest value x in [0, universe) with EstimateRank(x+1) >= phi * n —
/// an ε-approximate phi-quantile when the tracker answers ranks within εn.
/// `phi` is clamped to [0, 1]. O(log universe) rank queries.
uint64_t QuantileFromRank(const sim::RankTrackerInterface& tracker,
                          double phi, uint64_t universe);

/// Batched version: answers all `phis` with a shared clamp; results align
/// with the input order.
std::vector<uint64_t> QuantilesFromRank(
    const sim::RankTrackerInterface& tracker, const std::vector<double>& phis,
    uint64_t universe);

/// The §1.3 frequency-from-rank reduction helper: estimates the frequency
/// of `value` as EstimateRank(value + 1) - EstimateRank(value). Exact on a
/// duplicate-free totally ordered stream; within 2εn in general.
double FrequencyFromRank(const sim::RankTrackerInterface& tracker,
                         uint64_t value);

}  // namespace core
}  // namespace disttrack

#endif  // DISTTRACK_CORE_QUANTILE_H_
