// Deterministic rank/quantile tracking (Yi–Zhang [29]) — Table 1's
// "rank-tracking [29]" row: O(k/ε·logN·L²) communication where L plays the
// role of log(1/ε).
//
// [29] reduces rank tracking to heavy-hitter tracking over a hierarchy of
// dyadic intervals: rank(x) = Σ counts of the ≤ L dyadic intervals that
// decompose [0, x). We implement that reduction directly over a bounded
// value universe of `universe_bits` bits (docs/REPRODUCTION.md lists this
// as a faithful-shape substitution): every arrival inserts one item per level g
// — the interval id (value >> g) tagged with g — into a single
// DeterministicFrequencyTracker run at error ε/L², so each interval count
// is off by ≤ εn/L and any rank query by ≤ εn, deterministically.

#ifndef DISTTRACK_RANK_DETERMINISTIC_RANK_H_
#define DISTTRACK_RANK_DETERMINISTIC_RANK_H_

#include <cstdint>
#include <memory>

#include "disttrack/common/status.h"
#include "disttrack/frequency/deterministic_frequency.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace rank {

/// Options for DeterministicRankTracker.
struct DeterministicRankOptions {
  int num_sites = 8;
  double epsilon = 0.05;

  /// Values live in [0, 2^universe_bits); also the number of dyadic levels
  /// L. Must be in [1, 48].
  int universe_bits = 12;

  Status Validate() const;
};

/// Deterministic ε-approximate rank tracking over a bounded universe.
class DeterministicRankTracker : public sim::RankTrackerInterface {
 public:
  explicit DeterministicRankTracker(const DeterministicRankOptions& options);

  /// `value` is masked into the universe.
  void Arrive(int site, uint64_t value) override;
  double EstimateRank(uint64_t value) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return core_->meter(); }
  const sim::SpaceGauge& space() const override { return core_->space(); }

 private:
  static uint64_t Encode(int level, uint64_t interval) {
    return (static_cast<uint64_t>(level) << 58) | interval;
  }

  DeterministicRankOptions options_;
  std::unique_ptr<frequency::DeterministicFrequencyTracker> core_;
  uint64_t mask_;
  uint64_t n_ = 0;
};

}  // namespace rank
}  // namespace disttrack

#endif  // DISTTRACK_RANK_DETERMINISTIC_RANK_H_
