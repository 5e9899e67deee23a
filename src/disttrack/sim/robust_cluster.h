// Fault-injected replay harness: the daemon's two protocol cores over
// seeded lossy links.
//
// The serial sim (cluster.h) delivers coordinator traffic as direct
// calls under the perfectly reliable channels of §1.1. This harness runs
// k sim::SiteCores (site_core.h), each hosting one site of its own
// tracker, and one sim::CoordinatorCore (coordinator_core.h) — the site
// and coordinator protocols the service daemon runs — over links
// (transport.h) that drop / duplicate / reorder / delay, under the
// reliable channels' sequence numbers, acks and capped-exponential-
// backoff retransmits:
//
//   - the workload runs as lockstep grants staged through the core's
//     downlink: one kGrant per same-site run, split wherever the harness
//     observes quiescence (checkpoints, crashes, restarts);
//   - a serial tracker is the oracle. It runs each run before the site
//     does, and its tap records the frames every site must send and the
//     broadcasts the coordinator must make. The harness checks each
//     site's first transmissions against the oracle's frames (modulo the
//     epoch tag), each kBroadcast handed to a site against the oracle's
//     (round, n̄), each site snapshot's blob against the oracle's state
//     of that site, the core's estimate against the oracle's at every
//     checkpoint (bit for bit), and after every quiescent pump the core's
//     paper ledger and round against the oracle's — the differential
//     proof that any fault schedule with eventual delivery converges to
//     the fault-free execution;
//   - a site crash takes the daemon's recovery path: a fresh SiteCore
//     restored from the site's last snapshot re-attaches at its downlink
//     watermark, the core re-sends every grant and decision past it, and
//     the site re-runs its lost grants. Every frame it regenerates must
//     match its first transmission (modulo the epoch tag) and is
//     deduplicated by sequence number at the coordinator — no double
//     counting;
//   - coordinator restarts build a fresh core and re-apply the order
//     journal (uplink deliveries and grants) with every site detached,
//     so its downlink is journaled, not sent; the sites then re-attach at
//     their watermarks. The rebuilt estimate must be bit-identical.
//
// Time is a logical tick counter: after every run the engine pumps all
// links to quiescence (everything delivered and acked), and a site parked
// on a coarse report pumps them until its decision arrives, realizing the
// §1.1 contract even under faults. At most one site is ever parked.
// Everything is deterministic from (options, workload, FaultPlan).
//
// Byte accounting (tests assert exact equality):
//   sum of FaultyLink::bytes_offered over all links
//     == wire_bytes (first transmissions of tracker frames and of the
//        coordinator's decisions)
//      + retransmit_bytes (backoff resends, fault duplicates, crash
//        recovery and re-delivery traffic)
//      + overhead_bytes (acks, hellos, and the service plane's grants,
//        grant-done reports and ritual acks)
// counted apart from the oracle's CommMeter, which stays pure §1.1.

#ifndef DISTTRACK_SIM_ROBUST_CLUSTER_H_
#define DISTTRACK_SIM_ROBUST_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/transport.h"

namespace disttrack {
namespace sim {

struct RobustCheckpoint {
  uint64_t n = 0;
  double estimate = 0;          ///< the oracle (serial tracker)
  double replica_estimate = 0;  ///< rebuilt from delivered frames
  double truth = 0;
};

struct RobustReport {
  std::vector<RobustCheckpoint> checkpoints;

  uint64_t frames_delivered = 0;  ///< in-order data frames delivered
  uint64_t frames_deduped = 0;    ///< duplicates dropped by seq dedup
  uint64_t retransmissions = 0;   ///< backoff retransmits (both directions)
  uint64_t site_recoveries = 0;
  uint64_t coordinator_restarts = 0;

  uint64_t wire_bytes = 0;        ///< first transmissions of data frames
  uint64_t retransmit_bytes = 0;  ///< resends, duplicates, recovery traffic
  uint64_t overhead_bytes = 0;    ///< acks, hellos, service-plane frames
  uint64_t link_bytes_offered = 0;

  /// Paper-model traffic of the oracle (must be identical to a fault-free
  /// run: faults live below the §1.1 model).
  uint64_t paper_words = 0;
  uint64_t paper_messages = 0;

  bool ok = true;
  std::string error;
};

/// Runs `workload` through RandomizedCountTracker sites under `plan`.
RobustReport RobustReplayCount(const count::RandomizedCountOptions& options,
                               const Workload& workload,
                               const FaultPlan& plan);

/// Same for frequency tracking of `query_item`.
RobustReport RobustReplayFrequency(
    const frequency::RandomizedFrequencyOptions& options,
    const Workload& workload, uint64_t query_item, const FaultPlan& plan);

/// Same for rank tracking of `query_value`.
RobustReport RobustReplayRank(const rank::RandomizedRankOptions& options,
                              const Workload& workload, uint64_t query_value,
                              const FaultPlan& plan);

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_ROBUST_CLUSTER_H_
