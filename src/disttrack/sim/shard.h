// Per-site shard ingest: the parallel ingest surface of a tracker.
//
// The paper's model (§1.1) is k independent sites that communicate only
// with the coordinator, so a stream can be sharded by site and advanced
// on worker threads as long as every coordinator interaction is deferred
// to a synchronization point. A tracker that supports this exposes a
// shard-ingest handle (see the shard_ingest() hooks in protocol.h); the
// online sessions of sim/online.h drive it with the following contract:
//
//   ShardEpochBegin(m)   from the driver thread, announcing m further
//                        arrivals of the open epoch;
//   ShardArriveRun(...)  concurrently, AT MOST ONE THREAD PER SITE, each
//                        call covering that site's arrivals of the push
//                        in stream order. The tracker may touch only that
//                        site's state plus per-site scratch; anything
//                        destined for the coordinator (reports, sampled
//                        elements, summaries, traffic charges) is buffered
//                        in per-site sinks;
//   fold                 once, from the driver thread, after all runs of
//                        the epoch returned: the buffered messages are
//                        applied to coordinator state exactly as the
//                        serial path would have.
//
// The sessions keep every coordinator -> site event (a CoarseTracker
// broadcast: p-halving, round advance) OFF the epochs: the triggering
// arrival itself is delivered between epochs through the plain serial
// Arrive() path. Within an epoch the round parameters every site reads
// (p, thresholds) are therefore frozen, sites consume their private RNG
// streams at exactly the per-site arrival offsets of the serial
// execution, and ingest is deterministic given the seed — independent of
// the thread count and bit-identical to the serial drivers (pinned by
// tests/parallel_cluster_test.cc).
//
// An epoch may span several ShardEpochBegin calls before its fold: the
// keyed session extends an open epoch push by push, and each Begin(m)
// only announces m further arrivals (advancing the ground truth) while
// the sinks keep accumulating.
//
// Estimates may only be read between epochs (after the fold).

#ifndef DISTTRACK_SIM_SHARD_H_
#define DISTTRACK_SIM_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace disttrack {

namespace count {
class CoarseTracker;
}  // namespace count

namespace sim {

/// Shard ingest for count trackers: arrivals carry no key, so a site's
/// slice of a push is just an arrival count.
///
/// sim::OnlineCountSession speculates: a push is ingested as its own
/// epoch WITHOUT knowing whether it broadcasts; the trial fold refuses
/// exactly when it would, and the session then rolls the touched sites
/// back to their pre-push snapshots and re-delivers the push serially
/// (where the broadcast machinery runs unchanged).
class CountShardIngest {
 public:
  virtual ~CountShardIngest() = default;
  virtual void ShardEpochBegin(uint64_t arrivals_in_epoch) = 0;
  /// Delivers `count` arrivals at `site` (the site's whole push slice).
  /// Concurrent across sites; at most one thread touches a given site.
  virtual void ShardArriveRun(int site, uint64_t count) = 0;
  /// Captures `site`'s full private state (clearing `*out` first) so a
  /// refused speculative epoch can be unwound.
  virtual void ShardSnapshotSite(int site, std::vector<uint64_t>* out) = 0;
  /// Restores a ShardSnapshotSite capture taken this epoch (no broadcast
  /// may have intervened — true whenever the trial fold refused).
  virtual void ShardRestoreSite(int site,
                                const std::vector<uint64_t>& blob) = 0;
  /// Folds the open epoch iff the buffered coordinator deltas provably
  /// cannot trip a broadcast (exact: the deferred coarse deltas ARE the
  /// epoch's reports, and n' is nondecreasing). On refusal returns false
  /// with coordinator state and sinks untouched — the caller restores
  /// site snapshots and calls ShardAbortEpoch.
  virtual bool ShardTryEpochEnd() = 0;
  /// Unwinds a refused speculative epoch of `arrivals` arrivals: clears
  /// the sinks and rewinds the ground-truth advance of ShardEpochBegin.
  /// Site state is restored separately via ShardRestoreSite.
  virtual void ShardAbortEpoch(uint64_t arrivals) = 0;
};

/// Shard ingest for keyed trackers (frequency items / rank values).
/// `keys[i]` is the i-th element the site receives in the push, in
/// stream order. Buffered coordinator messages fold order-insensitively
/// across sites, so no global arrival index is needed.
class KeyedShardIngest {
 public:
  virtual ~KeyedShardIngest() = default;
  virtual void ShardEpochBegin(uint64_t arrivals_in_epoch) = 0;
  virtual void ShardArriveRun(int site, const uint64_t* keys,
                              size_t count) = 0;
  virtual void ShardEpochEnd() = 0;
  /// The CoarseTracker all of the tracker's broadcasts hang off.
  /// sim::OnlineKeyedSession seeds a count::EpochCertifier from it to
  /// certify, push by push, that the open epoch stays broadcast-free
  /// (and to locate the exact broadcast arrival when it would not).
  virtual count::CoarseTracker* shard_coarse() = 0;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_SHARD_H_
