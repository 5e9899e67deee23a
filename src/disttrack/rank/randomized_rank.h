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
// O((εn/c)²), i.e. error ≤ εn with probability ≥ 1 - O(1/c²). That half
// is rank::RankAggregate (rank_aggregate.h), which the replica
// (sim/replica.h) hosts too: an open instance keeps only its cover, a
// finished instance one merged run, and a probe costs one binary search
// per finished instance plus one per segment of the open covers.
//
// At a round boundary sites simply clear: completed leaves are already
// covered by shipped summaries and the in-progress tail stays covered by
// its frozen samples (scaled by that round's p), so no flush is needed.
//
// The site half is one arrival step (ProcessArrival), one eventless-run
// step (FeedRun) and the node flush and instance restart under them, all
// parameterized over a coordinator port like count's and frequency's:
// every delivery path — per-arrival, countdown, grouped, a SiteCore's
// hosted site — runs the same steps and differs only in how their
// messages reach the coordinator.
//
// Hot path: ArriveBatch buffers each site's values and runs the shared
// EventCountdown engine — between events (leaf/chunk boundaries, coarse
// reports; tail-channel coins are walked through the buffered run in
// place, same draws at the same arrivals) a site's run is sorted once and
// moved into the site's shared run-merge ladder (summaries/run_ladder.h),
// which consolidates runs exactly once. Every tree level owns a ladder
// cursor and pulls borrowed views of the merged sequence when its
// compaction comes due — at dyadic leaf quanta under the batched feed
// (fewer, larger compactions; same martingale argument), at each level's
// own fill threshold under the exact feed. Chunks that provably contain
// no coarse broadcast are grouped into per-site spans first; that is
// bit-identical to the countdown engine. Batched compaction is equivalent
// in distribution, not bit-identical, to the per-element feed (see the
// DESIGN note in summaries/compactor_summary.h); the per-element feed and
// the per-arrival coins stay reachable as reference oracles
// (`use_batch_compaction = false`, `use_skip_sampling = false`).

#ifndef DISTTRACK_RANK_RANDOMIZED_RANK_H_
#define DISTTRACK_RANK_RANDOMIZED_RANK_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "disttrack/common/event_countdown.h"
#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/rank/rank_aggregate.h"
#include "disttrack/sim/protocol.h"
#include "disttrack/sim/wire.h"
#include "disttrack/summaries/compactor_summary.h"
#include "disttrack/summaries/run_ladder.h"

namespace disttrack {
namespace testing_util {
struct DeliveryPeer;
}  // namespace testing_util

namespace rank {

/// Round parameters of §4 for a round whose broadcast carried n̄.
struct RoundParams {
  double inv_p = 1.0;       // 1/p = max(1, εn̄/(c√k)), not rounded
  uint64_t chunk_size = 1;  // n̄/k: arrivals per instance of algorithm C
  uint64_t block_size = 1;  // leaf size b = min(⌊1/p⌋, chunk_size)
  uint32_t num_leaves = 1;  // ⌈chunk_size / b⌉
  int height = 0;           // ⌈log2 num_leaves⌉
};

/// Options for RandomizedRankTracker.
struct RandomizedRankOptions {
  int num_sites = 8;
  double epsilon = 0.01;
  uint64_t seed = 1;

  /// Constant-factor boost: shrinks the block size and raises p by c,
  /// cutting the variance by c² at ~c× the communication.
  double confidence_factor = 4.0;

  /// Reference oracles, not production paths; the defaults are the
  /// production path. use_skip_sampling = false draws the tail-channel
  /// Bernoulli(p) coin per arrival (paper-literal) instead of with a
  /// general-p geometric SkipSampler per site. use_batch_compaction =
  /// false feeds the compactor tree one element at a time at each level's
  /// exact fill threshold instead of at dyadic leaf quanta; batched
  /// compaction's error increments are the same mean-zero ±2^level
  /// martingale steps, fewer of them (DESIGN note in
  /// summaries/compactor_summary.h), so the two agree in distribution,
  /// not bit for bit. stat_acceptance_test, skip_equivalence_test,
  /// batch_equivalence_test, fault_tolerance_test and bench_throughput's
  /// per_arrival rows compare against them.
  bool use_skip_sampling = true;
  bool use_batch_compaction = true;

  Status Validate() const;

  /// Round parameters for a round whose broadcast carried `n_bar`. The
  /// tracker and its replica both evaluate them here.
  RoundParams RoundParamsFor(uint64_t n_bar) const;
};

/// Randomized ε-approximate rank tracking (Theorem 4.1).
class RandomizedRankTracker : public sim::RankTrackerInterface {
 public:
  explicit RandomizedRankTracker(const RandomizedRankOptions& options);

  void Arrive(int site, uint64_t value) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  double EstimateRank(uint64_t value) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Element-forwarding probability p of the current round.
  double p() const { return 1.0 / round_.inv_p; }

  uint64_t rounds() const { return coarse_->round(); }

  /// Tree height of algorithm C in the current round.
  int height() const { return round_.height; }

  /// Leaf block size b of the current round.
  uint64_t block_size() const { return round_.block_size; }

  // --- Wire layer / site protocol (sim/site_core.h) ----------------------
  // Mirrors the count tracker's API: a tap emits every metered message
  // (coarse reports, node-summary exports, tail-channel residual
  // forwards, broadcasts) as a typed wire::Message; site snapshots
  // capture the round parameters and the RNG/skip streams; the
  // ReplayCrash* calls run the site step through the replay port, which
  // emits every frame with an identical payload and writes nothing the
  // coordinator holds (meter, n', instance storage). sim::SiteCore's
  // hosted sites (site processes and the fault harness) drive these two
  // calls.

  void set_wire_tap(sim::wire::WireTap* tap);

  /// Rank snapshots are only consistent at chunk boundaries, where the
  /// site holds no partially built tree (nodes and ladder empty, leaf
  /// seed unarmed) and its whole private state is the round parameters
  /// plus the coarse counters and the RNG/skip streams. The robust
  /// driver polls until this returns true.
  bool SiteSnapshotReady(int site) const;

  void SerializeSiteState(int site, std::vector<uint64_t>* out) const;
  void RestoreSiteState(int site, const std::vector<uint64_t>& blob);

  /// One arrival of `site` through the replay port. A broadcast decision
  /// on its coarse report comes back reentrantly from the tap.
  void ReplayCrashArrive(int site, uint64_t value);

  /// Per-site half of a round transition.
  void ReplayCrashRitual(int site, uint64_t n_bar);

 private:
  struct SiteState {
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
    // The node summary being shipped, in the wire format.
    std::vector<uint64_t> export_values;
    std::vector<std::pair<uint64_t, uint32_t>> export_segments;
    // Batch-engine run buffer: values delivered to this site since its
    // last event/reconciliation, in arrival order (delivery-engine state,
    // not protocol state — the values are the stream itself).
    std::vector<uint64_t> run;
    // Shared run-merge ladder: the site's sorted runs consolidated once,
    // with one pull cursor per tree level. Reset with the instance.
    summaries::RunLadder ladder;
    // True while every level's node exists (EnsureNodes fast-exit);
    // cleared whenever a node is flushed, dropped, or the instance
    // restarts.
    bool nodes_ready = false;
    // Node-less leaf flush (batched feed): level 0 keeps
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

  friend struct testing_util::DeliveryPeer;

  // Coordinator ports: how a site's messages reach the coordinator. Each
  // offers CoarseArrive(site), ShipSummary(site, s, first_leaf, end_leaf,
  // words) for the node summary in the site's export buffers,
  // ShipResidual(site, leaf, value, store) for a tail-channel forward
  // (`store` false: a sample its own leaf's summary covers).
  // DirectPort charges the meter, taps and applies to agg_ (per-arrival
  // delivery); BatchPort does the same with the upload charges deferred
  // to the batch end, and feeds every buffered run before a coarse report
  // that broadcasts (countdown and grouped engines); ReplayPort only
  // taps, the coordinator holding every effect (sim::SiteCore's hosted
  // sites).
  template <bool kBatch>
  struct ApplyPort;
  using DirectPort = ApplyPort<false>;
  using BatchPort = ApplyPort<true>;
  struct ReplayPort;

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void ArriveOne(int site, uint64_t value);
  // Everything ArriveOne does except ++n_ (the batch engine advances n_
  // up front): coarse arrival, tree feed, tail coin, leaf bookkeeping.
  template <typename Port>
  void ProcessArrival(int site, uint64_t value, Port& port);

  // Batched fast path on the shared EventCountdown engine; see
  // common/event_countdown.h for the reconciliation contract.
  // Arrivals at `site` until its next event (leaf/chunk completion or
  // coarse report), clamped to the countdown's 32-bit stride — the
  // single source of truth for the countdown engine and the grouped run
  // loop, so their run boundaries (and with them the site's RNG
  // consumption) cannot drift apart.
  uint64_t NextEventGap(int site) const;
  void RearmSite(int site);
  void RearmAll();
  // Feeds the site's buffered eventless run (sorted in place and moved
  // into the ladder) and empties the buffer; tail forwards ship through
  // the batch port.
  void FeedRun(int site);
  void HandleEventArrival(int site);
  // Feeds every site's buffered eventless run into the tree. Called when
  // a mid-batch broadcast is about to restart the instances and at batch
  // end — the two points where the per-element execution would also have
  // everything reconciled.
  void FlushBufferedRuns();
  // One chunk through the event-countdown engine (buffered runs carry
  // across chunk boundaries; the final flush happens at batch end).
  void CountdownChunk(const sim::Arrival* arrivals, size_t count);
  // Advances `site` by `count` arrivals of a grouped chunk, which no
  // broadcast can cut: eventless arrivals buffer into the site's run, fed
  // at the site's next event (the countdown engine's boundaries); each
  // event arrival takes the site step through the batch port. The tail
  // stays buffered for the batch end.
  void RunSite(int site, const uint64_t* keys, size_t count);
  std::unique_ptr<summaries::CompactorSummary> AcquireNode(SiteState* s,
                                                           int level);
  // Shared-ladder plumbing. EnsureNodes creates any missing level node in
  // level order (the seed-draw order); PumpLevels pulls every level whose
  // fill reached its compaction threshold; FlushNode drains a completing
  // node's remaining window itself (fused with the export).
  void EnsureNodes(SiteState* s);
  void PumpLevels(SiteState* s, uint64_t appended);
  void StartFreshInstance(SiteState* s);
  template <typename Port>
  void FlushNode(int site, SiteState* s, int level, uint32_t node_start,
                 uint32_t end_leaf, Port& port);
  double LevelEps(int level) const;
  void UpdateSpace(int site);
  // Emits a kRankSummary (node [a, b) from `exports`' buffers) or
  // kRankResidual (leaf a, value b) frame charged `words`.
  void EmitTap(sim::wire::MsgType type, int site, uint64_t a, uint64_t b,
               uint64_t words, const SiteState* exports);
  // Applies the summary in the site's export buffers to agg_.
  void ApplySummary(int site, const SiteState& s, uint32_t first_leaf,
                    uint32_t end_leaf);
  // Accumulates one upload into pending_uploads_; FlushDeferredUploads
  // posts them in one RecordUploadBulk per site.
  void DeferUpload(int site, uint64_t words);
  void FlushDeferredUploads();

  RandomizedRankOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::unique_ptr<count::CoarseTracker> coarse_;
  std::vector<SiteState> sites_;
  // The coordinator's instance storage and estimator. Written through
  // the direct and batch ports, never by the replay port.
  RankAggregate agg_;
  sim::wire::WireTap* tap_ = nullptr;

  // Batched upload amortization: the batch port accumulates (messages,
  // charged words) per site here, and the batch end posts one
  // RecordUploadBulk per site. Meter totals at every public observation
  // point (queries only happen between batches) are identical to
  // per-message charging.
  struct PendingUpload {
    uint64_t messages = 0;
    uint64_t words = 0;  // with max(1, payload) applied per message
  };
  std::vector<PendingUpload> pending_uploads_;

  RoundParams round_;

  uint64_t n_ = 0;

  EventCountdown countdown_;
  bool in_batch_ = false;
  // Site-grouped delivery: pooled permutation scratch plus a guard that
  // turns a broadcast inside a supposedly broadcast-free grouped chunk
  // into a loud abort instead of a silent equivalence break.
  SiteGrouper grouper_;
  bool grouped_chunk_active_ = false;
  // Always true outside tests; testing_util::DeliveryPeer clears it to
  // run every chunk on the countdown engine (the grouped ≡ countdown
  // equivalence tests).
  bool grouped_enabled_ = true;
  // Per-site buffered-run sizes handed to the broadcast-safety check
  // (scratch, refilled per chunk).
  std::vector<uint64_t> run_carry_;
};

}  // namespace rank
}  // namespace disttrack

#endif  // DISTTRACK_RANK_RANDOMIZED_RANK_H_
