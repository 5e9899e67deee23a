// Deterministic heavy-hitter tracking (Yi–Zhang [29]) — Table 1's
// "frequency-tracking [29]" row: O(1/ε) words per site, Θ(k/ε · logN)
// communication, deterministic ±εn error on every item.
//
// Construction (the upper bound of [29] with explicit constants):
//  * CoarseTracker splits the run into O(logN) rounds with fixed n̄;
//  * each site keeps a Misra–Gries sketch of its round-local substream
//    (capacity 4/ε, so the sketch undercount is ≤ εn_i/4 per site-round);
//  * the coordinator mirrors each site's counters; a site re-reports a
//    counter whenever it drifts by T = max(1, ⌊εn̄/(4k)⌋) from the mirror,
//    so unreported drift is < k·T ≤ εn̄/4 ≤ εn/4 globally;
//  * at a round boundary every site flushes its final counters exactly and
//    clears, so completed rounds contribute sketch error only.
// Total error < εn/4 (drift) + εn/2 (sketch, summed over rounds: Σ εn_r/4
// with round sizes ≤ 2 n_r geometric) ≤ εn. Reports per round: every
// report pays T drift out of ≤ 6n̄ total counter movement, i.e. O(k/ε).

#ifndef DISTTRACK_FREQUENCY_DETERMINISTIC_FREQUENCY_H_
#define DISTTRACK_FREQUENCY_DETERMINISTIC_FREQUENCY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/sim/protocol.h"
#include "disttrack/summaries/misra_gries.h"

namespace disttrack {
namespace frequency {

/// Options for DeterministicFrequencyTracker.
struct DeterministicFrequencyOptions {
  int num_sites = 8;
  double epsilon = 0.01;

  Status Validate() const;
};

/// Deterministic ε-approximate frequency tracking [29].
class DeterministicFrequencyTracker : public sim::FrequencyTrackerInterface {
 public:
  explicit DeterministicFrequencyTracker(
      const DeterministicFrequencyOptions& options);

  void Arrive(int site, uint64_t item) override;
  double EstimateFrequency(uint64_t item) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  uint64_t rounds() const { return coarse_->round(); }

 private:
  struct SiteState {
    std::unique_ptr<summaries::MisraGries> sketch;
    // Coordinator's mirror of this site's counters (indexed here for O(1)
    // drift checks; semantically it lives at both ends of the channel).
    std::unordered_map<uint64_t, uint64_t> mirror;
    uint64_t decrement_events_seen = 0;
    count::CoarseSite coarse;
  };

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void MaybeReport(int site, uint64_t item);
  void SweepAfterDecrement(int site);
  void FlushSite(int site);
  void UpdateSpace(int site);

  DeterministicFrequencyOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::unique_ptr<count::CoarseTracker> coarse_;
  std::vector<SiteState> sites_;

  // Coordinator state: completed rounds folded into `frozen_`, plus the sum
  // of live mirrors for the current round in `live_totals_`.
  std::unordered_map<uint64_t, uint64_t> frozen_;
  std::unordered_map<uint64_t, int64_t> live_totals_;

  uint64_t drift_threshold_ = 1;
  size_t sketch_capacity_;
  uint64_t n_ = 0;
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_DETERMINISTIC_FREQUENCY_H_
