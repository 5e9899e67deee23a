// Multi-threaded replay: the parallel counterpart of the serial Replay*
// drivers in cluster.h.
//
// The paper's model (§1.1) is k independent sites talking to one
// coordinator, so a stream is embarrassingly parallel *between*
// coordinator interactions: sites only couple through the CoarseTracker
// broadcasts (p-halvings / round advances) every randomized protocol
// hangs off. The online sessions of sim/online.h exploit exactly that —
// they run each push as per-site shard epochs on this class's worker
// pool and discover the broadcast schedule on the fly, with no workload
// pre-knowledge.
//
// A replay is therefore just an online session fed the recorded
// workload: the serial drivers' checkpoint loop (ReplayImpl in cluster.h)
// with the session as the delivery path, sampling estimates at the same
// CheckpointCounts schedule. Count and frequency push each checkpoint
// segment in 64Ki slices (both sessions are bit-identical to serial
// delivery for any push partition); rank pushes each segment whole,
// because rank is bit-identical only when push boundaries match the
// serial driver's ArriveBatch calls.
//
// The replay is deterministic given the seed, independent of the thread
// count, and bit-identical to the serial drivers for the randomized
// count, frequency, and rank trackers (pinned by
// tests/parallel_cluster_test.cc). Trackers without a shard-ingest handle
// (per-arrival coin paths, deterministic baselines, median boosters, the
// sampling baseline) transparently fall back to the serial driver.

#ifndef DISTTRACK_SIM_PARALLEL_CLUSTER_H_
#define DISTTRACK_SIM_PARALLEL_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "disttrack/sim/cluster.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace sim {

class OnlineCountSession;
class OnlineKeyedSession;

/// A thread-pool replay engine; one instance owns `threads` worker
/// threads (threads == 1 runs everything on the calling thread) and can
/// replay any number of workloads sequentially. Not itself thread-safe:
/// drive it from one thread.
///
/// The online sessions of sim/online.h borrow this pool to ingest live
/// pushes — see OnlineCountSession / OnlineKeyedSession.
class ParallelCluster {
 public:
  /// Pass as `threads` to size the pool from the hardware. The heuristic:
  /// threads = max(1, std::thread::hardware_concurrency()), further
  /// clamped per push to the tracker's site count — a site is the unit
  /// of epoch parallelism (at most one thread may touch it), so workers
  /// beyond k can never be scheduled.
  static constexpr int kAutoThreads = 0;

  /// `threads` <= 0 selects kAutoThreads; otherwise the exact worker
  /// count. Workers are lazily started on the first parallel epoch.
  explicit ParallelCluster(int threads);
  ~ParallelCluster();

  ParallelCluster(const ParallelCluster&) = delete;
  ParallelCluster& operator=(const ParallelCluster&) = delete;

  /// Parallel counterparts of the serial drivers (same checkpoint
  /// schedule, same Checkpoint contract). Aborts on out-of-range site
  /// ids, like every delivery path. Falls back to the serial driver when
  /// `tracker->shard_ingest()` is null.
  std::vector<Checkpoint> ReplayCount(CountTrackerInterface* tracker,
                                      const Workload& workload,
                                      double checkpoint_factor = 1.5);
  std::vector<Checkpoint> ReplayCountSites(CountTrackerInterface* tracker,
                                           const SiteStream& sites,
                                           double checkpoint_factor = 1.5);
  std::vector<Checkpoint> ReplayFrequency(FrequencyTrackerInterface* tracker,
                                          const Workload& workload,
                                          uint64_t query_item,
                                          double checkpoint_factor = 1.5);
  std::vector<Checkpoint> ReplayRank(RankTrackerInterface* tracker,
                                     const Workload& workload,
                                     uint64_t query_value,
                                     double checkpoint_factor = 1.5);

  int threads() const { return threads_; }

  /// True iff the last Replay* call actually ran the sharded engine
  /// (false = serial fallback). Diagnostics/tests.
  bool last_replay_sharded() const { return last_replay_sharded_; }

 private:
  class Pool;

  // The online sessions drive epochs through RunEpochTasks; they are
  // part of this engine's surface, just stateful.
  friend class OnlineCountSession;
  friend class OnlineKeyedSession;

  // Runs `fn(task)` for task in [0, num_tasks) — one epoch's site slices
  // — across the workers; returns after all tasks completed. Runs inline
  // when replay_threads_ == 1 and for epochs shorter than ~2K arrivals
  // per thread (the broadcast-dense stream prefix), where the pool
  // hand-off would cost more than the work.
  void RunEpochTasks(int num_tasks, uint64_t epoch_len,
                     const std::function<void(int)>& fn);

  int threads_;
  bool auto_threads_ = false;
  // threads_ clamped to the current session's site count under
  // kAutoThreads (set at each push); drives the inline-epoch threshold.
  // The pool itself is sized once from threads_ — surplus workers simply
  // find no tasks.
  int replay_threads_ = 1;
  bool last_replay_sharded_ = false;
  std::unique_ptr<Pool> pool_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_PARALLEL_CLUSTER_H_
