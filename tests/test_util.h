// Shared helpers for the disttrack test suite: trial runners that replay a
// workload through a tracker many times with independent seeds and collect
// error statistics for unbiasedness / variance / coverage assertions.

#ifndef DISTTRACK_TESTS_TEST_UTIL_H_
#define DISTTRACK_TESTS_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "disttrack/common/stats.h"
#include "disttrack/sim/cluster.h"

namespace disttrack {
namespace testing_util {

/// Runs `trials` independent repetitions of `run_once(seed)` (which returns
/// estimate - truth) and returns the collected errors.
inline std::vector<double> CollectErrors(
    int trials, const std::function<double(uint64_t seed)>& run_once,
    uint64_t base_seed = 1000) {
  std::vector<double> errors;
  errors.reserve(static_cast<size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    errors.push_back(run_once(base_seed + static_cast<uint64_t>(t)));
  }
  return errors;
}

/// Mean of a vector.
inline double MeanOf(const std::vector<double>& v) {
  RunningStats s;
  for (double x : v) s.Add(x);
  return s.Mean();
}

/// Sample variance of a vector.
inline double VarianceOf(const std::vector<double>& v) {
  RunningStats s;
  for (double x : v) s.Add(x);
  return s.Variance();
}

/// Max absolute relative error over replay checkpoints, ignoring the first
/// `skip_below` elements (tiny-n checkpoints where relative error is
/// ill-conditioned).
inline double MaxRelativeCheckpointError(
    const std::vector<sim::Checkpoint>& checkpoints, uint64_t skip_below = 0) {
  double worst = 0;
  for (const auto& c : checkpoints) {
    if (c.n < skip_below || c.n == 0) continue;
    double rel = (c.estimate - static_cast<double>(c.truth)) /
                 static_cast<double>(c.n);
    if (rel < 0) rel = -rel;
    if (rel > worst) worst = rel;
  }
  return worst;
}

/// The one test seam into the rank tracker's batch engine (it declares it
/// a friend). The equivalence tests pin grouped delivery to the same
/// engine run in stream order.
struct DeliveryPeer {
  /// Arrivals per grouped chunk; 1 delivers in stream order.
  template <typename Tracker>
  static void SetChunk(Tracker* tracker, size_t chunk) {
    tracker->chunk_ = chunk;
  }
};

}  // namespace testing_util
}  // namespace disttrack

#endif  // DISTTRACK_TESTS_TEST_UTIL_H_
