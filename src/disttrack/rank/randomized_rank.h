// The randomized rank tracker of §4 (Theorem 4.1).
//
// Per round (n̄ fixed by CoarseTracker):
//  * every site slices its round-local stream into chunks of n̄/k elements,
//    each processed by one instance of algorithm C;
//  * algorithm C splits its chunk into blocks (leaves) of b = εn̄/(c√k)
//    elements and builds a balanced binary tree of height h over them in
//    arrival order; each node v at level ℓ runs one instance of algorithm A
//    (CompactorSummary) at error parameter 2^-ℓ/√h over D(v), shipped to
//    the coordinator the moment v's leaf range completes;
//  * independently every arrival is forwarded with probability
//    p = c√k/(εn̄), tagged with its leaf index (the in-progress tail
//    channel).
//
// The coordinator answers rank(x) per instance by the maximal dyadic cover
// of the completed-leaf prefix (≤ h shipped node summaries, unbiased with
// variance b²/h each) plus (sampled tail count)/p for the in-progress leaf
// (variance ≤ b/p = b²). Per instance the variance is O(b²); with ≤ 4k
// instances per round and geometrically decaying past rounds the total is
// O((εn/c)²), i.e. error ≤ εn with probability ≥ 1 - O(1/c²).
//
// At a round boundary sites simply clear: completed leaves are already
// covered by shipped summaries and the in-progress tail stays covered by
// its frozen samples (scaled by that round's p), so no flush is needed.
//
// Hot path: ArriveBatch buffers each site's values and runs the shared
// EventCountdown engine — between events (leaf/chunk boundaries, coarse
// reports; tail-channel coins are walked through the buffered run in
// place, same draws at the same arrivals) a site's run is sorted once and
// moved into the site's shared run-merge ladder (summaries/run_ladder.h),
// which consolidates runs exactly once. Every tree level owns a ladder
// cursor and pulls borrowed views of the merged sequence when its
// compaction comes due — at dyadic leaf quanta under the batched feed
// (fewer, larger compactions; same martingale argument), at the exact
// staging thresholds under the exact feed (bit-identical to per-level
// staging). Batched compaction is equivalent in distribution, not
// bit-identical, to the per-element feed (see the DESIGN note in
// summaries/compactor_summary.h); the historical paths stay reachable via
// `use_batch_compaction = false` and `use_shared_ladder = false`.

#ifndef DISTTRACK_RANK_RANDOMIZED_RANK_H_
#define DISTTRACK_RANK_RANDOMIZED_RANK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "disttrack/common/event_countdown.h"
#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/sim/protocol.h"
#include "disttrack/sim/wire.h"
#include "disttrack/summaries/compactor_summary.h"
#include "disttrack/summaries/run_ladder.h"

namespace disttrack {
namespace rank {

/// Options for RandomizedRankTracker.
struct RandomizedRankOptions {
  int num_sites = 8;
  double epsilon = 0.01;
  uint64_t seed = 1;

  /// Constant-factor boost: shrinks the block size and raises p by c,
  /// cutting the variance by c² at ~c× the communication.
  double confidence_factor = 4.0;

  /// When true (default), the per-arrival Bernoulli(p) tail-channel coin is
  /// realized by a geometric SkipSampler per site (redrawn at every round
  /// boundary, where p changes). False selects the historical per-arrival
  /// coin path. Note the rank p is not rounded to a power of two, so the
  /// sampler runs in general-p mode.
  bool use_skip_sampling = true;

  /// When true (default), ArriveBatch feeds each site's eventless runs to
  /// the compactor tree via CompactorSummary::InsertBatch (one call per
  /// level per run) on the event-countdown engine. Equivalent in
  /// distribution to the per-element feed — batched compaction's error
  /// increments are the same mean-zero ±2^level martingale steps, just
  /// fewer of them (DESIGN note in summaries/compactor_summary.h). False
  /// keeps the historical per-element feed for A/B runs.
  bool use_batch_compaction = true;

  /// When true (default), each site consolidates its sorted runs once in
  /// a shared RunLadder and every tree level pulls borrowed views of the
  /// merged sequence at its own compaction cadence, instead of staging
  /// and re-merging its own copy of every run at all h+1 levels. Each
  /// level still compacts the identical element multiset at the identical
  /// fill thresholds with the identical coin sequence, so estimates,
  /// communication, and rounds are bit-identical to the per-level staging
  /// path under BOTH feeds (pinned by tests/batch_equivalence_test.cc);
  /// only the merge work is shared. False keeps the historical per-level
  /// staging for A/B runs.
  bool use_shared_ladder = true;

  /// When true (default), ArriveBatch permutes each chunk into
  /// site-contiguous spans (common/site_group.h) whenever the chunk
  /// provably contains no coarse broadcast, and feeds whole spans per
  /// site — same per-site coin streams, same event boundaries, so the
  /// grouped path is bit-identical to the event-countdown path (pinned
  /// by tests/batch_equivalence_test.cc). Chunks that may broadcast fall
  /// back to the countdown engine. False keeps the countdown engine for
  /// every chunk (A/B benchmarking).
  bool use_site_grouping = true;

  Status Validate() const;
};

/// Randomized ε-approximate rank tracking (Theorem 4.1).
class RandomizedRankTracker : public sim::RankTrackerInterface,
                              private sim::KeyedShardIngest {
 public:
  explicit RandomizedRankTracker(const RandomizedRankOptions& options);

  void Arrive(int site, uint64_t value) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  double EstimateRank(uint64_t value) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Shard ingest (sim/shard.h). Rank coordinator state is naturally
  /// site-partitioned — every instance of algorithm C belongs to exactly
  /// one site, and shipped summaries / residual samples only ever join
  /// the shipping site's own instances — so site workers write their
  /// instances directly and defer only the coarse reports and the
  /// traffic charges (order-insensitive sums) to the epoch barrier.
  /// Supported on the batched skip-sampling feed, whose run-at-a-time
  /// processing the per-site driver reuses; the per-element historical
  /// paths fall back to serial delivery.
  sim::KeyedShardIngest* shard_ingest() override {
    return options_.use_skip_sampling && options_.use_batch_compaction
               ? this
               : nullptr;
  }

  /// Element-forwarding probability p of the current round.
  double p() const { return 1.0 / inv_p_; }

  uint64_t rounds() const { return coarse_->round(); }

  /// Tree height of algorithm C in the current round.
  int height() const { return height_; }

  /// Leaf block size b of the current round.
  uint64_t block_size() const { return block_size_; }

  // --- Wire layer / crash recovery (sim/robust_cluster.h) ----------------
  // Mirrors the count tracker's API: a tap emits every metered message
  // (coarse reports, node-summary exports, tail-channel residual
  // forwards, broadcasts) as a typed wire::Message; site snapshots
  // capture the round parameters and the RNG/skip streams; the
  // ReplayCrash* calls re-run lost arrivals with every coordinator-side
  // effect (meter, instance storage) suppressed while frames are
  // re-emitted with identical payloads.

  void set_wire_tap(sim::wire::WireTap* tap);

  /// Rank snapshots are only consistent at chunk boundaries, where the
  /// site holds no partially built tree (nodes and ladder empty, leaf
  /// seed unarmed) and its whole private state is the round parameters
  /// plus the coarse counters and the RNG/skip streams. The robust
  /// driver polls until this returns true.
  bool SiteSnapshotReady(int site) const;

  void SerializeSiteState(int site, std::vector<uint64_t>* out) const;
  void RestoreSiteState(int site, const std::vector<uint64_t>& blob);

  void BeginCrashReplay(int site);
  void EndCrashReplay();

  /// Re-delivers one lost arrival. `mid_ritual_n_bar` non-null iff the
  /// arrival's coarse report triggered a broadcast in the original run.
  void ReplayCrashArrive(int site, uint64_t value,
                         const uint64_t* mid_ritual_n_bar);

  /// Per-site half of a round transition another site triggered.
  void ReplayCrashRitual(int site, uint64_t n_bar);

  /// Detached-site mode (service/): the tracker lives in a site process
  /// and runs in crash replay permanently — the coordinator's instance
  /// storage is a remote replica, so there is no pre-crash instance
  /// journal for the replay cursor to walk. Instance transitions then
  /// reuse one scratch InstanceData (replay mode never stores summaries
  /// or residuals into it) instead of cursor-advancing. Set before
  /// BeginCrashReplay.
  void set_detached_replay(bool detached) { detached_replay_ = detached; }

 private:
  // A node summary shipped to the coordinator: the compactor's levels as
  // one flat value array partitioned into ascending segments by
  // (weight, end offset) descriptors — one binary search per segment
  // answers a rank query, and building it is a straight copy of the
  // summary's already-sorted levels (no merge or comparison sort, two
  // allocations total).
  struct StoredSummary {
    uint32_t first_leaf = 0;
    uint32_t end_leaf = 0;
    std::vector<uint64_t> values;
    std::vector<std::pair<uint64_t, uint32_t>> segments;
  };

  struct ResidualSample {
    uint32_t leaf;
    uint64_t value;
  };

  // One leaf summary stored in the instance's shared arena (below): a
  // slice of leaf_values / leaf_segments instead of an owned
  // StoredSummary. Refs land in leaf order, so the estimator's dyadic
  // cover advances through them monotonically.
  struct LeafRef {
    uint32_t first_leaf;
    uint32_t end_leaf;
    uint32_t values_begin;
    uint32_t seg_begin;
    uint32_t seg_end;
  };

  // Everything the coordinator holds for one instance of algorithm C.
  struct InstanceData {
    std::vector<StoredSummary> summaries;
    std::vector<ResidualSample> residuals;
    // Residuals land in leaf order, so pruning completed leaves is just
    // advancing this offset — the estimator reads [residual_begin, end).
    size_t residual_begin = 0;
    double inv_p = 1.0;  // 1/p of the instance's round
    // Leaf-summary arena (node-less flush, no tap/replay): every level-0
    // summary of the instance appends to these two flat vectors —
    // segment ends are absolute offsets into leaf_values — and is
    // addressed by a LeafRef. One leaf flush then costs two amortized
    // appends instead of two per-summary vector allocations, and the
    // chunk-end prune of all covered leaves is three O(1) clears.
    std::vector<uint64_t> leaf_values;
    std::vector<std::pair<uint64_t, uint32_t>> leaf_segments;
    std::vector<LeafRef> leaf_refs;
  };


  struct SiteState {
    InstanceData* idata = nullptr;  // cached &owned_instances.back()
    // Coordinator-side storage for every instance of algorithm C this
    // site has started, in chunk order (a deque: stable addresses for
    // idata). Written only by the owning site — during shard ingest the
    // site's worker appends summaries/residuals directly — and read by
    // the estimator between epochs. Site-major iteration keeps the
    // estimate's summation order deterministic and schedule-independent
    // (the old global unordered_map iterated in hash order).
    std::deque<InstanceData> owned_instances;
    uint64_t arrivals_in_chunk = 0;
    uint64_t arrivals_in_leaf = 0;
    uint32_t current_leaf = 0;
    // nodes[l] is the active level-l node's summary (lazily created).
    std::vector<std::unique_ptr<summaries::CompactorSummary>> nodes;
    // pool[l]: retired level-l summaries awaiting reuse. Tree nodes are
    // short-lived (one per dyadic range per chunk), so recycling their
    // buffer allocations takes node turnover off the hot path; pools are
    // dropped whenever the round's tree height (and with it LevelEps)
    // changes.
    std::vector<std::vector<std::unique_ptr<summaries::CompactorSummary>>>
        pool;
    SkipSampler tail_skip;  // gap to the next tail-channel forward
    Rng rng{0};
    std::vector<summaries::RunView> view_scratch;  // ladder pull scratch
    std::vector<StoredSummary> stored_pool;        // recycled buffers
    // Batch-engine run buffer: values delivered to this site since its
    // last event/reconciliation, in arrival order (delivery-engine state,
    // not protocol state — the values are the stream itself).
    std::vector<uint64_t> run;
    // Shared run-merge ladder (use_shared_ladder): the site's sorted runs
    // consolidated once, with one pull cursor per tree level. Reset with
    // the instance.
    summaries::RunLadder ladder;
    // True while every level's node exists (EnsureNodes fast-exit);
    // cleared whenever a node is flushed, dropped, or the instance
    // restarts.
    bool nodes_ready = false;
    // Node-less leaf flush (batched feed + shared ladder): level 0 keeps
    // no CompactorSummary at all — EnsureNodes draws the seed the node
    // creation used to draw, at the same site-RNG position, and the
    // flush cascades the leaf window straight from the ladder to the
    // wire (summaries::CompactSortedViewsToWire) with those coins.
    uint64_t leaf_seed = 0;
    bool leaf_seed_armed = false;
    // Multi-view merge scratch pair for CompactSortedViewsToWire.
    std::vector<uint64_t> leaf_scratch;
    std::vector<uint64_t> leaf_scratch2;
    // Lower bound on the appends until some level's next pull threshold;
    // PumpLevels skips its level scan while the bound stays positive.
    uint64_t pull_slack = 0;
  };

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void ArriveOne(int site, uint64_t value);
  // Everything ArriveOne does except ++n_ (the batch engine advances n_
  // up front): coarse arrival, tree feed, tail coin, leaf bookkeeping.
  void ProcessArrival(int site, uint64_t value);

  // Batched fast path on the shared EventCountdown engine; see
  // common/event_countdown.h for the reconciliation contract.
  // Arrivals at `site` until its next event (leaf/chunk completion or
  // coarse report), clamped to the countdown's 32-bit stride — the
  // single source of truth for the countdown engine and the shard run
  // loop, so their run boundaries (and with them the site's RNG
  // consumption) cannot drift apart.
  uint64_t NextEventGap(int site) const;
  void RearmSite(int site);
  void RearmAll();
  // Feeds the `count` buffered eventless values in `run` (== the whole
  // buffer; sorted in place, and moved into the ladder when it is on —
  // callers get back a recycled buffer either way).
  void FeedRun(int site, std::vector<uint64_t>* run, uint64_t count);
  void HandleEventArrival(int site);
  // Feeds every site's buffered eventless run into the tree. Called when
  // a mid-batch broadcast is about to restart the instances and at batch
  // end — the two points where the per-element execution would also have
  // everything reconciled.
  void FlushBufferedRuns();
  // One chunk through the event-countdown engine (buffered runs carry
  // across chunk boundaries; the final flush happens at batch end).
  void CountdownChunk(const sim::Arrival* arrivals, size_t count);
  // One site's span of a broadcast-free grouped chunk: buffers eventless
  // arrivals into the site's run (deferring the feed to the next event or
  // the batch end, exactly like the countdown engine) and processes event
  // arrivals through the scalar path.
  void GroupedSpan(int site, const uint64_t* keys, size_t count);
  std::unique_ptr<summaries::CompactorSummary> AcquireNode(SiteState* s,
                                                           int level);
  // Shared-ladder plumbing. EnsureNodes creates any missing level node in
  // level order (same seed-draw order as the staging path's lazy
  // creation); PumpLevels pulls every level whose fill reached its
  // compaction threshold; FlushNode drains a completing node's remaining
  // window itself (fused with the export).
  void EnsureNodes(SiteState* s);
  void PumpLevels(SiteState* s, uint64_t appended);
  // StoredSummary buffer pool (per site): flushes run at leaf cadence,
  // so recycling the vectors the chunk-end prune discards keeps
  // allocation off the flush path.
  StoredSummary TakeStored(SiteState* s);
  void RecycleStored(SiteState* s, StoredSummary&& stored);
  void RecomputeRoundParams(uint64_t n_bar);
  void StartFreshInstance(SiteState* s);
  void FlushNode(int site, SiteState* s, int level, uint32_t node_start,
                 uint32_t end_leaf);
  double LevelEps(int level) const;
  void UpdateSpace(int site);
  void EmitSummaryFrame(int site, const StoredSummary& stored,
                        uint64_t words);
  void EmitResidualFrame(int site, uint32_t leaf, uint64_t value);
  static double SummaryRankBelow(const StoredSummary& summary, uint64_t x);
  // SummaryRankBelow over an arena-resident leaf summary.
  static double LeafRankBelow(const InstanceData& data, const LeafRef& ref,
                              uint64_t x);
  // Posts the batch's deferred per-site upload charges in one
  // RecordUploadBulk per site (see pending_uploads_).
  void FlushDeferredUploads();

  // --- Shard ingest (sim::KeyedShardIngest) ------------------------------
  void ShardEpochBegin(uint64_t arrivals_in_epoch) override;
  void ShardArriveRun(int site, const uint64_t* keys, size_t count) override;
  void ShardEpochEnd() override;
  // sim::OnlineKeyedSession certifies rolling epochs against this
  // tracker's broadcast state.
  count::CoarseTracker* shard_coarse() override { return coarse_.get(); }
  // Site->coordinator upload: charged to the meter directly on the serial
  // paths, accumulated in the site's sink during shard ingest.
  void Upload(int site, uint64_t words);
  // One coarse arrival: the serial paths go through CoarseTracker::Arrive
  // (which may broadcast); shard ingest advances site-locally and defers
  // the report delta (the epoch schedule keeps broadcasts on boundaries).
  void CoarseArriveOne(int site);

  struct ShardSink {
    std::vector<uint64_t> coarse_deltas;
    uint64_t messages = 0;  // deferred uploads
    uint64_t words = 0;     // with max(1, payload) applied per message
  };

  RandomizedRankOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::unique_ptr<count::CoarseTracker> coarse_;
  std::vector<SiteState> sites_;
  std::vector<ShardSink> shard_sinks_;
  bool shard_mode_ = false;
  sim::wire::WireTap* tap_ = nullptr;

  // Batched upload amortization: while a plain ArriveBatch runs (no tap,
  // no replay, no shard epoch — the modes with their own per-message or
  // per-epoch accounting), Upload() accumulates (messages, charged
  // words) per site here and the batch end posts one RecordUploadBulk
  // per site. Meter totals at every public observation point (queries
  // only happen between batches) are identical to per-message charging.
  struct PendingUpload {
    uint64_t messages = 0;
    uint64_t words = 0;  // with max(1, payload) applied per message
  };
  bool defer_uploads_ = false;
  std::vector<PendingUpload> pending_uploads_;

  // Crash-replay bookkeeping (see BeginCrashReplay). The cursor walks
  // the crashed site's pre-existing owned_instances as the replay
  // re-creates them — replayed StartFreshInstance calls advance it
  // instead of appending, so the coordinator-side instance storage is
  // never duplicated.
  bool crash_replay_ = false;
  bool detached_replay_ = false;
  int replay_site_ = -1;
  size_t replay_cursor_ = 0;
  const uint64_t* replay_mid_n_bar_ = nullptr;
  uint64_t replay_saved_inv_p_bits_ = 0;
  uint64_t replay_saved_chunk_size_ = 0;
  uint64_t replay_saved_block_size_ = 0;
  uint32_t replay_saved_num_leaves_ = 0;
  int replay_saved_height_ = 0;

  // Round parameters.
  double inv_p_ = 1.0;
  uint64_t chunk_size_ = 1;
  uint64_t block_size_ = 1;
  uint32_t num_leaves_ = 1;
  int height_ = 0;

  uint64_t n_ = 0;

  EventCountdown countdown_;
  bool in_batch_ = false;
  // Site-grouped delivery (use_site_grouping): pooled permutation scratch
  // plus a guard that turns a broadcast inside a supposedly
  // broadcast-free grouped chunk into a loud abort instead of a silent
  // equivalence break.
  SiteGrouper grouper_;
  bool grouped_chunk_active_ = false;
  // Per-site buffered-run sizes handed to the broadcast-safety check
  // (scratch, refilled per chunk).
  std::vector<uint64_t> run_carry_;
};

}  // namespace rank
}  // namespace disttrack

#endif  // DISTTRACK_RANK_RANDOMIZED_RANK_H_
