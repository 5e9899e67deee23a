// The bench timer, read by bench_throughput. paper_claims reads no
// clock: every figure it prints is a pure function of (workload, seed).

#ifndef DISTTRACK_BENCH_BENCH_UTIL_H_
#define DISTTRACK_BENCH_BENCH_UTIL_H_

#include <chrono>

namespace disttrack {
namespace bench {

/// Monotonic wall-clock seconds. THE bench timer: the only sanctioned
/// clock read in the tree — scripts/check_invariants.py (rule
/// banned-source) bans time/randomness sources everywhere outside
/// common/random.* and this file, because replay must be a pure
/// function of (workload, seed).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace bench
}  // namespace disttrack

#endif  // DISTTRACK_BENCH_BENCH_UTIL_H_
