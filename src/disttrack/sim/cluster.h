// Replay driver: feeds a recorded workload into a tracker and samples the
// estimate at checkpoints. This is the "cluster" of the simulation — all k
// sites plus the coordinator advance in arrival order, exactly as in the
// instant-communication model of §1.1.

#ifndef DISTTRACK_SIM_CLUSTER_H_
#define DISTTRACK_SIM_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace sim {

/// A full recorded input: the adversary's arrival sequence. (The Arrival
/// struct itself lives in protocol.h next to the ArriveBatch interface.)
using Workload = std::vector<Arrival>;

/// A count-only recorded input: arrivals carry no key, so the compact
/// 2-byte site id per element is the natural record (8x less memory
/// traffic than Workload when replaying the count fast path).
using SiteStream = std::vector<uint16_t>;

/// Estimate-vs-truth sample taken mid-replay.
struct Checkpoint {
  uint64_t n = 0;        ///< ground-truth count at the sample time
  double estimate = 0;   ///< tracker's answer
  double truth = 0;      ///< ground-truth answer to the sampled query
};

/// The geometric checkpoint schedule every replay driver follows: the
/// ascending arrival counts at which an estimate is sampled. A checkpoint
/// lands on the first n with n >= next, where next starts at 1 and
/// becomes n * checkpoint_factor after each checkpoint; the final element
/// is always `total` (a single n = 0 entry when the workload is empty).
/// Every Replay* driver below samples at these points. Aborts if
/// checkpoint_factor <= 1.
std::vector<uint64_t> CheckpointCounts(uint64_t total,
                                       double checkpoint_factor);

/// Replays a count workload, sampling EstimateCount() every time n grows by
/// `checkpoint_factor` (>1) past the previous checkpoint, and once at the
/// end. Returns the checkpoints in order.
///
/// Arrivals between checkpoints are delivered through ArriveBatch, so a
/// tracker pays one virtual dispatch per checkpoint interval, not per
/// element. All Replay* drivers abort with a diagnostic if
/// `checkpoint_factor` <= 1.0 (such a schedule would checkpoint after
/// every element forever; the old behavior of silently substituting 1.5
/// masked caller bugs).
std::vector<Checkpoint> ReplayCount(CountTrackerInterface* tracker,
                                    const Workload& workload,
                                    double checkpoint_factor = 1.5);

/// ReplayCount over a compact site stream (delivered via ArriveSites).
std::vector<Checkpoint> ReplayCountSites(CountTrackerInterface* tracker,
                                         const SiteStream& sites,
                                         double checkpoint_factor = 1.5);

/// Replays a frequency workload, sampling EstimateFrequency(query_item) on
/// the same geometric schedule.
std::vector<Checkpoint> ReplayFrequency(FrequencyTrackerInterface* tracker,
                                        const Workload& workload,
                                        uint64_t query_item,
                                        double checkpoint_factor = 1.5);

/// Replays a rank workload, sampling EstimateRank(query_value) on the same
/// geometric schedule. `truth` at each checkpoint is the exact rank of
/// query_value among the elements delivered so far.
std::vector<Checkpoint> ReplayRank(RankTrackerInterface* tracker,
                                   const Workload& workload,
                                   uint64_t query_value,
                                   double checkpoint_factor = 1.5);

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_CLUSTER_H_
