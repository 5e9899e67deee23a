// The "trivial" deterministic count tracker of §1: every site reports its
// counter whenever it has grown by a (1 + ε/2) factor, so the coordinator
// always knows every n_i within that factor and hence n within ±εn/2.
// One-way communication only; Θ(k/ε · logN) messages — optimal for
// deterministic algorithms [29]. This is the paper's primary comparator
// (Table 1, row "count-tracking trivial").

#ifndef DISTTRACK_COUNT_DETERMINISTIC_COUNT_H_
#define DISTTRACK_COUNT_DETERMINISTIC_COUNT_H_

#include <cstdint>
#include <vector>

#include "disttrack/common/status.h"
#include "disttrack/count/count_aggregate.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace count {

/// Options for DeterministicCountTracker.
struct DeterministicCountOptions {
  int num_sites = 8;
  double epsilon = 0.01;

  /// Returns OK iff the options describe a valid tracker.
  Status Validate() const;
};

/// Deterministic ε-approximate count tracking; error is guaranteed (no
/// failure probability), using one-way site->coordinator traffic only.
class DeterministicCountTracker : public sim::CountTrackerInterface {
 public:
  explicit DeterministicCountTracker(const DeterministicCountOptions& options);

  void Arrive(int site) override;
  double EstimateCount() const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

 private:
  struct SiteState {
    uint64_t count = 0;
    uint64_t last_reported = 0;
  };

  DeterministicCountOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::vector<SiteState> sites_;
  uint64_t n_ = 0;
  // The coordinator: §2.1's aggregate at p = 1, whose estimate is the sum
  // of the last reports.
  CountAggregate agg_;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_DETERMINISTIC_COUNT_H_
