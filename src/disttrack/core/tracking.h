// Umbrella public API: one options struct, one algorithm enum, and three
// factory functions covering every protocol in Table 1. Downstream users
// include this header and program against the sim::*TrackerInterface
// abstractions; examples/ shows typical usage.

#ifndef DISTTRACK_CORE_TRACKING_H_
#define DISTTRACK_CORE_TRACKING_H_

#include <cstdint>
#include <memory>
#include <string>

#include "disttrack/common/status.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace core {

/// Which Table-1 protocol family to instantiate.
enum class Algorithm {
  kDeterministic,  ///< trivial count / [29] frequency / [29] rank
  kRandomized,     ///< the paper's §2–§4 protocols
  kSampling,       ///< continuous distributed sampling [9]
};

/// Human-readable algorithm name (for reports and logs).
std::string AlgorithmName(Algorithm algorithm);

/// Unified construction options. Fields irrelevant to a given algorithm
/// are ignored (e.g., seed for deterministic trackers). Each randomized
/// protocol runs one production path; the reference oracles the
/// equivalence tests compare it against (paper-literal per-arrival coins,
/// the exact per-element rank feed) are set on the per-tracker
/// Randomized*Options structs, not here.
struct TrackerOptions {
  int num_sites = 8;
  double epsilon = 0.01;
  uint64_t seed = 1;

  /// Variance head-room for the randomized protocols; <= 0 selects the
  /// per-protocol default (2 for count, 4 for frequency/rank).
  double confidence_factor = 0.0;

  /// Sample capacity multiplier for Algorithm::kSampling.
  double sample_boost = 4.0;

  /// Dyadic levels for the deterministic rank tracker (values are masked
  /// into [0, 2^universe_bits)).
  int universe_bits = 12;

  /// > 1 wraps the tracker in a median booster with this many independent
  /// copies (§1.2's all-times construction). Must be odd when > 1.
  int median_copies = 1;

  /// Ablations (docs/REPRODUCTION.md); only honored by the randomized protocols.
  bool naive_boundary_estimator = false;
  bool virtual_site_split = true;

  Status Validate() const;
};

/// Creates a count tracker. On success `*out` owns the tracker.
Status MakeCountTracker(Algorithm algorithm, const TrackerOptions& options,
                        std::unique_ptr<sim::CountTrackerInterface>* out);

/// Creates a frequency tracker. On success `*out` owns the tracker.
Status MakeFrequencyTracker(
    Algorithm algorithm, const TrackerOptions& options,
    std::unique_ptr<sim::FrequencyTrackerInterface>* out);

/// Creates a rank tracker. On success `*out` owns the tracker.
Status MakeRankTracker(Algorithm algorithm, const TrackerOptions& options,
                       std::unique_ptr<sim::RankTrackerInterface>* out);

}  // namespace core
}  // namespace disttrack

#endif  // DISTTRACK_CORE_TRACKING_H_
