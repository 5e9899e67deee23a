// Online parallel ingest: streaming pushes on ParallelCluster's worker
// pool.
//
// The paper's model (§1.1) has sites observe arrivals as they happen, so
// the sessions below take pushes of any size with NO workload
// pre-knowledge and discover the broadcast schedule on the fly.
// sim::ParallelCluster's Replay* drivers are these same sessions fed a
// recorded workload:
//
//   OnlineCountSession   speculate-and-certify-after. Every push runs as
//     its own shard epoch on the worker pool; the trial fold
//     (CountShardIngest::ShardTryEpochEnd) then checks — exactly, from
//     the buffered coarse deltas alone — whether the push would have
//     broadcast. Almost every push cannot (broadcasts are O(k logN) in
//     total) and folds normally; a push that would broadcast is unwound
//     via the per-site snapshots taken before the speculation (PR 6's
//     crash-recovery serialization) and re-delivered serially, where the
//     broadcast machinery runs unchanged. Estimates are current after
//     every push.
//
//   OnlineKeyedSession   certify-ahead with a rolling epoch. Keyed sites
//     cannot snapshot mid-run (rank's leaf machinery) — so instead of
//     speculating, each push is first certified against a
//     count::EpochCertifier: the rolling extension of
//     CoarseTracker::BatchCannotBroadcast over per-site running totals.
//     A certified push joins the OPEN epoch (sinks keep accumulating
//     across pushes; no barrier per push); a refused push is split at
//     the exact broadcast arrival — found by replaying the coordinator
//     law on the certifier's projected state — into a final certified
//     extension, a fold, the serial delivery of the broadcast arrival,
//     and a fresh epoch; the rest of a refused push is walked once, split
//     at each further broadcast the same way. Estimates require a Sync()
//     (epoch barrier) first.
//
// Determinism: both sessions are bit-identical to delivering the same
// pushes through the serial ArriveBatch/ArriveSites drivers, at every
// thread count (per-site RNG streams consumed at per-site offsets,
// broadcasts on epoch boundaries, order-insensitive sink folds). For the
// rank tracker the usual caveat applies: batched compaction is
// distribution-equivalent (not bit-equal) across different PUSH
// BOUNDARIES, because push boundaries cut per-site runs; identical push
// boundaries give identical bits (pinned by tests/parallel_cluster_test.cc, with the KS tier
// covering boundary-insensitive equivalence).
//
// Trackers without shard support (per-arrival coin paths, deterministic
// baselines, the sampling tracker) transparently fall back to serial
// delivery — still a correct online execution, just unsharded
// (sharded() reports which engine runs).

#ifndef DISTTRACK_SIM_ONLINE_H_
#define DISTTRACK_SIM_ONLINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disttrack/common/site_group.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/parallel_cluster.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace sim {

/// Streaming ingest for a count tracker. Borrows `cluster`'s worker pool
/// (neither is owned; both must outlive the session; drive everything
/// from one thread). Estimates are current after every push.
class OnlineCountSession {
 public:
  OnlineCountSession(ParallelCluster* cluster, CountTrackerInterface* tracker);

  /// Delivers `count` arrivals (site ids, stream order) — one shard
  /// epoch on the pool, or serial fallback. Aborts on out-of-range ids.
  void PushSites(const uint16_t* sites, size_t count);
  void PushSites(const SiteStream& sites) {
    PushSites(sites.data(), sites.size());
  }

  /// True when pushes run the sharded engine (false: serial fallback).
  bool sharded() const { return ingest_ != nullptr; }

  /// Pushes unwound and re-delivered serially because they broadcast
  /// (diagnostics; grows O(k logN) over a session's lifetime).
  uint64_t rollbacks() const { return rollbacks_; }

 private:
  ParallelCluster* cluster_;
  CountTrackerInterface* tracker_;
  CountShardIngest* ingest_;  // null = serial fallback
  SiteGrouper grouper_;
  std::vector<std::vector<uint64_t>> snapshots_;  // pooled, indexed by site
  uint64_t rollbacks_ = 0;
  int num_sites_;
};

/// Streaming ingest for a keyed (frequency or rank) tracker. Pushes
/// extend a rolling shard epoch; call Sync() before reading estimates.
class OnlineKeyedSession {
 public:
  OnlineKeyedSession(ParallelCluster* cluster,
                     FrequencyTrackerInterface* tracker);
  OnlineKeyedSession(ParallelCluster* cluster, RankTrackerInterface* tracker);

  /// Delivers `count` keyed arrivals in stream order. Aborts on
  /// out-of-range site ids.
  void Push(const Arrival* arrivals, size_t count);
  void Push(const Workload& workload) {
    Push(workload.data(), workload.size());
  }

  /// Epoch barrier: folds the open epoch so estimates may be read.
  /// Cheap when nothing is open; pushing may resume afterwards.
  void Sync();

  /// True when pushes run the sharded engine (false: serial fallback).
  bool sharded() const { return ingest_ != nullptr; }

  /// Broadcast arrivals located and delivered serially mid-push
  /// (diagnostics; equals the tracker's round count gained under this
  /// session when every arrival flows through it).
  uint64_t epoch_splits() const { return epoch_splits_; }

 private:
  // The tracker-agnostic core; SerialArrive / SerialBatch bind the
  // concrete interface's delivery entry points.
  void PushImpl(const Arrival* arrivals, size_t count);
  // Extends the open epoch by the `count` arrivals grouper_ holds.
  void RunEpoch(size_t count);
  void SerialArrive(int site, uint64_t key);
  void SerialBatch(const Arrival* arrivals, size_t count);

  ParallelCluster* cluster_;
  FrequencyTrackerInterface* frequency_ = nullptr;
  RankTrackerInterface* rank_ = nullptr;
  KeyedShardIngest* ingest_;          // null = serial fallback
  count::CoarseTracker* coarse_ = nullptr;
  count::EpochCertifier certifier_;
  SiteGrouper grouper_;
  bool epoch_open_ = false;
  uint64_t epoch_splits_ = 0;
  int num_sites_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_ONLINE_H_
