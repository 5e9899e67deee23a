// Fault-injected replay harness (tentpole of the robustness PR).
//
// The serial sim (cluster.h) delivers coordinator traffic as direct
// calls under the perfectly reliable channels of §1.1. This harness runs
// the same trackers with every protocol message *also* routed as a
// versioned wire frame (sim/wire.h) through fault-injected links
// (sim/transport.h) to the coordinator the service daemon runs
// (sim/coordinator_core.h):
//
//   - the tracker stays authoritative: its scalar Arrive() path runs
//     unchanged, applies its round rituals in place, and its CommMeter
//     keeps the paper's word counts;
//   - a WireTap mirrors every metered site message as a frame the
//     instant the §1.1 model would send it; frames travel per-site
//     reliable channels (sequence numbers, acks, capped-exponential-
//     backoff retransmits) over FaultyLinks that drop / duplicate /
//     reorder / delay;
//   - the CoordinatorCore applies the delivered frames to its replica,
//     which must match the tracker's estimate bit for bit at every
//     checkpoint — the differential proof that any fault schedule with
//     eventual delivery converges to the fault-free execution — and
//     after every quiescent pump its paper ledger must equal the
//     tracker's CommMeter;
//   - the core, not the tracker, sends the coordinator's decisions: a
//     kBroadcast to every site or a kNoBroadcast to the reporter. The
//     tracker's own broadcast is recorded, and each site checks every
//     delivered kBroadcast (round, n̄) against those records;
//   - site crashes detach the site, restore it from its last snapshot,
//     re-attach it at the snapshot's downlink watermark (the core
//     re-sends the decisions past it) and replay its lost arrivals
//     (ReplayCrash* tracker hooks); every re-emitted frame must
//     byte-match the journaled original (modulo the epoch tag, which is
//     re-stamped at the current round) and is deduplicated by sequence
//     number at the coordinator — no double counting;
//   - coordinator restarts build a fresh core and re-apply the
//     delivery-order journal with every site detached, so decisions are
//     journaled, not sent; the sites then re-attach at their watermarks.
//     The rebuilt estimate must be bit-identical.
//
// Time is a logical tick counter: after every arrival the engine pumps
// all links to quiescence (everything delivered and acked), realizing the
// §1.1 contract even under faults. Everything is deterministic from
// (options, workload, FaultPlan).
//
// Byte accounting (tests assert exact equality):
//   sum of FaultyLink::bytes_offered over all links
//     == wire_bytes (first transmissions: tracker frames and the
//        coordinator's decision frames)
//      + retransmit_bytes (backoff resends, fault duplicates, crash
//        recovery and re-delivery traffic)
//      + overhead_bytes (acks, hello handshakes)
// counted apart from the tracker's CommMeter, which stays pure §1.1.

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

struct RobustOptions {
  FaultPlan plan;
};

struct RobustCheckpoint {
  uint64_t n = 0;
  double estimate = 0;          ///< authoritative tracker
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
  uint64_t overhead_bytes = 0;    ///< acks + hellos
  uint64_t link_bytes_offered = 0;

  /// Paper-model traffic of the authoritative tracker (must be identical
  /// to a fault-free run: faults live below the §1.1 model).
  uint64_t paper_words = 0;
  uint64_t paper_messages = 0;

  bool ok = true;
  std::string error;
};

/// Runs `workload` through a RandomizedCountTracker under `robust.plan`.
RobustReport RobustReplayCount(const count::RandomizedCountOptions& options,
                               const Workload& workload,
                               const RobustOptions& robust);

/// Same for frequency tracking of `query_item`.
RobustReport RobustReplayFrequency(
    const frequency::RandomizedFrequencyOptions& options,
    const Workload& workload, uint64_t query_item,
    const RobustOptions& robust);

/// Same for rank tracking of `query_value`.
RobustReport RobustReplayRank(const rank::RandomizedRankOptions& options,
                              const Workload& workload, uint64_t query_value,
                              const RobustOptions& robust);

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_ROBUST_CLUSTER_H_
