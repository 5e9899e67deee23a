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
// The site half is RankSite: one site's state (its CoarseSite, its copy
// of the round parameters and per-level constants, its RNG and tail skip,
// its tree and ladder), its arrival step, its eventless-run step
// (FeedRun) and its ritual, parameterized over a coordinator port like
// count's and frequency's. The in-process tracker is k RankSites plus the
// aggregate; a site process or a fault harness site hosts one RankSite
// behind its TapPort (sim::HostedSite). Every delivery path runs the same
// steps and differs only in how their messages reach the coordinator.
//
// Hot path: ArriveBatch runs the one batch engine,
// CoarseTracker::DeliverChunks, which groups each chunk into per-site
// spans up to its first coarse broadcast, and buffers each site's values —
// between events (leaf/chunk boundaries, coarse reports; tail-channel
// coins are walked through the buffered run in place, same draws at the
// same arrivals) a site's run is sorted once
// (common/small_sort.h: a radix sort over the key digits that vary, for
// leaf-sized runs) and moved into the site's shared run-merge ladder
// (summaries/run_ladder.h), which consolidates runs exactly once. Every
// tree level owns a ladder cursor and pulls its window when its
// compaction comes due — at dyadic leaf quanta under the batched feed
// (fewer, larger compactions; same martingale argument), at each level's
// own fill threshold under the exact feed. The leaf cursor pins every
// leaf start, so an upper level's window can span several runs; it is
// merged once into step scratch (SiteScratch, shared by the tracker's
// sites), every level due on the same window reads that copy, and each
// ingests it as one view through the zero-copy virtual cascade (the upper
// levels of a round mostly come due together, since their pull quanta
// all reach the top capacity). A level
// whose quantum b * 2^level covers its node's span (b * 2^level <= top
// capacity; level 0 always) ingests exactly one window per node, on the
// node's last arrival, so it runs node-less: the flush cascades that
// window straight from the ladder to the wire with the seed the node
// would have drawn (at ε = 5e-4 and k = 32 the leaf block is 1-11
// arrivals under a tree 11-12 levels high, and every level below the
// top is node-less). Each level's capacity is computed once per round
// and site. Buffered runs carry across chunk boundaries, so a site's runs
// are fed at its own events and the batch end whatever the chunking: a
// chunk length of 1 (stream order) gives the identical output. Batched
// compaction is equivalent in distribution, not
// bit-identical, to the per-element feed (see the DESIGN note in
// summaries/compactor_summary.h); the per-element feed and the
// per-arrival coins stay reachable as reference oracles
// (`use_batch_compaction = false`, `use_skip_sampling = false`).

#ifndef DISTTRACK_RANK_RANDOMIZED_RANK_H_
#define DISTTRACK_RANK_RANDOMIZED_RANK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

/// Site-step scratch that is not protocol state: the merged copy of the
/// last multi-run ladder window (memoized, so levels due on one window
/// merge it once), the radix buffer of SortRun, and the node summary
/// being shipped, in the wire format. The in-process tracker shares one
/// among its sites; a hosted site's port owns one.
struct SiteScratch {
  summaries::MergedWindow window;
  std::vector<uint64_t> sort;
  summaries::ValueBuffer export_values;
  std::vector<std::pair<uint64_t, uint32_t>> export_segments;
};

/// One site of the §4 protocol.
class RankSite {
 public:
  using Options = RandomizedRankOptions;

  /// The coordinator port of a hosted site: every message becomes a
  /// frame on the tap, and nothing the coordinator holds is written.
  struct TapPort : count::TapCoarsePort {
    SiteScratch own;
    SiteScratch& scratch() { return own; }
    void ShipSummary(int site, uint32_t first_leaf, uint32_t end_leaf,
                     uint64_t words) const;
    void ShipResidual(int site, uint32_t leaf, uint64_t value,
                      bool /*store*/) const {
      sim::wire::Emit(tap, sim::wire::MsgType::kRankResidual, site, 0, leaf,
                      value, 0, 2);
    }
    void Space(const RankSite& /*site*/) const {}
  };

  /// `options` must outlive the site.
  RankSite(const RandomizedRankOptions& options, int site);

  /// One arrival of `value`: the coarse step (whose report may come back
  /// as a broadcast and run Ritual first), the tree feed, the tail coin,
  /// the leaf bookkeeping and the node flushes it completes. A port
  /// offers CoarseReport(site, delta), ShipSummary(site, first_leaf,
  /// end_leaf, words) for the node summary in its scratch's export
  /// buffers, ShipResidual(site, leaf, value, store) for a tail-channel
  /// forward (`store` false: a sample its own leaf's summary covers),
  /// Space(site) and scratch().
  template <typename Port>
  void Arrive(uint64_t value, Port& port);

  /// Feeds `*run`, a buffer of eventless arrivals (shorter than
  /// NextEventGap()), in arrival order: tail forwards ship through the
  /// port, the run is sorted in place and moved into the ladder (a
  /// recycled buffer comes back, empty).
  template <typename Port>
  void FeedRun(summaries::ValueBuffer* run, Port& port);

  /// The site's half of a round transition for a broadcast carrying
  /// `n_bar`: new round parameters, a fresh instance, a skip redraw.
  template <typename Port>
  void Ritual(uint64_t n_bar, Port& port);

  /// Arrivals until the next event (leaf/chunk completion or coarse
  /// report): where the batch engine's span loop cuts the site's runs.
  uint64_t NextEventGap() const;

  /// Rank snapshots are only consistent at chunk boundaries, where the
  /// site holds no partially built tree (nodes and ladder empty, no seed
  /// drawn) and its whole private state is the round parameters plus the
  /// coarse counters and the RNG/skip streams. SiteCore takes a snapshot
  /// only once this returns true.
  bool SnapshotReady() const { return arrivals_in_chunk_ == 0; }
  /// Appends the site's state; aborts unless SnapshotReady().
  void Serialize(std::vector<uint64_t>* out) const;
  /// Restores Serialize output; false (state untouched) on a blob of the
  /// wrong length or with a round parameter out of range.
  bool Restore(const std::vector<uint64_t>& blob);

  const count::CoarseSite& coarse() const { return coarse_; }
  int id() const { return site_; }
  const RoundParams& round() const { return round_; }
  summaries::LadderWork ladder_work() const { return ladder_.work(); }
  uint64_t SpaceWords() const;

 private:
  // One level of the site's tree, with the round's compactor capacity
  // for it (SetRound).
  struct Level {
    size_t capacity = 0;
    // The active node's summary (created lazily). Node-less levels
    // (nodeless_levels_) keep no CompactorSummary at all: EnsureNodes
    // draws `seed` where node creation would have drawn the node's seed,
    // at the same site-RNG position, and the flush cascades the node's
    // one ladder window straight to the wire
    // (summaries::CompactSortedWindowToWire) with those coins.
    std::unique_ptr<summaries::CompactorSummary> node;
    uint64_t seed = 0;
    // Retired summaries awaiting reuse. Tree nodes are short-lived (one
    // per dyadic range per chunk), so recycling their buffer allocations
    // takes node turnover off the hot path; pools are dropped whenever
    // the round's tree height (and with it every level's eps) changes.
    std::vector<std::unique_ptr<summaries::CompactorSummary>> pool;
  };

  // Round parameters (5 words), coarse site, tail skip, RNG.
  static constexpr size_t kBlobWords = 5 + count::CoarseSite::kWords + 2 + 4;

  // Sets round_, the levels' capacities and nodeless_levels_. A new tree
  // height drops every level, its pooled nodes with it: their eps and
  // capacity are the wrong size.
  void SetRound(const RoundParams& round);
  // Level `level`'s eps in the current round: 2^-level / sqrt(h).
  double LevelEps(int level) const {
    return std::pow(2.0, -level) / std::sqrt(std::max(1, round_.height));
  }
  std::unique_ptr<summaries::CompactorSummary> AcquireNode(int level);
  // Shared-ladder plumbing. EnsureNodes draws every level missing from
  // live_levels_ in level order (the seed-draw order): a node, or a
  // node-less level's seed; PumpLevels pulls every node level whose fill
  // reached its compaction threshold; FlushNode drains a completing
  // node's remaining window itself (fused with the export, or straight
  // to the wire for a node-less level).
  void EnsureNodes();
  void PumpLevels(uint64_t appended, SiteScratch* scratch);
  void StartFreshInstance();
  template <typename Port>
  void FlushNode(int level, uint32_t node_start, uint32_t end_leaf,
                 Port& port);

  const RandomizedRankOptions& options_;  // the owner's
  int site_;
  count::CoarseSite coarse_;
  RoundParams round_;
  // The levels whose node ingests exactly one ladder window under the
  // batched feed (bit l), which run node-less; set per round.
  uint64_t nodeless_levels_ = 0;

  uint64_t arrivals_in_chunk_ = 0;
  uint64_t arrivals_in_leaf_ = 0;
  uint32_t current_leaf_ = 0;
  std::vector<Level> levels_;  // levels_[l]: tree level l
  SkipSampler tail_skip_;      // gap to the next tail-channel forward
  Rng rng_;
  // Shared run-merge ladder: the site's sorted runs consolidated once,
  // with one pull cursor per tree level. Reset with the instance.
  summaries::RunLadder ladder_;
  // Bit l is set from the draw of level l's current node (its node
  // created, or its seed drawn) until the node is flushed or the
  // instance restarts; EnsureNodes draws exactly the clear bits.
  uint64_t live_levels_ = 0;
  // Lower bound on the appends until some level's next pull threshold;
  // PumpLevels skips its level scan while the bound stays positive.
  uint64_t pull_slack_ = 0;
};

/// Randomized ε-approximate rank tracking (Theorem 4.1).
class RandomizedRankTracker : public sim::RankTrackerInterface {
 public:
  using Site = RankSite;

  explicit RandomizedRankTracker(const RandomizedRankOptions& options);

  void Arrive(int site, uint64_t value) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  double EstimateRank(uint64_t value) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Element-forwarding probability p of the current round.
  double p() const { return 1.0 / sites_[0].round().inv_p; }

  uint64_t rounds() const { return coarse_.round(); }

  /// Tree height of algorithm C in the current round.
  int height() const { return sites_[0].round().height; }

  /// Leaf block size b of the current round.
  uint64_t block_size() const { return sites_[0].round().block_size; }

  /// Run-ladder work summed over every site (summaries::LadderWork:
  /// counters only, no RNG draw and no meter charge).
  summaries::LadderWork ladder_work() const {
    summaries::LadderWork total;
    for (const RankSite& s : sites_) total += s.ladder_work();
    return total;
  }

  /// A tap mirrors every metered message (coarse reports, node-summary
  /// exports, tail-channel residual forwards, broadcasts) as a typed
  /// wire::Message at the §1.1 send instant.
  void set_wire_tap(sim::wire::WireTap* tap);

  /// Site `i` (the fault harness and the snapshot tests compare hosted
  /// sites against it).
  const RankSite& site(int i) const { return sites_[static_cast<size_t>(i)]; }
  RankSite& site(int i) { return sites_[static_cast<size_t>(i)]; }

 private:
  friend struct testing_util::DeliveryPeer;

  // The in-process coordinator ports. DirectPort charges the meter, taps
  // and applies to agg_ (per-arrival delivery); BatchPort does the same
  // with the upload charges deferred to the batch end, and feeds every
  // buffered run before a coarse report that broadcasts (the batch
  // engine).
  template <bool kBatch>
  struct ApplyPort;
  using DirectPort = ApplyPort<false>;
  using BatchPort = ApplyPort<true>;

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void ArriveOne(int site, uint64_t value);

  // Feeds every site's buffered eventless run into the tree. Called when
  // a mid-batch broadcast is about to restart the instances and at batch
  // end — the two points where the per-element execution would also have
  // everything reconciled.
  void FlushBufferedRuns();
  // Advances `site` by `count` arrivals of a grouped chunk: eventless
  // arrivals buffer into the site's run, fed at the site's next event;
  // each event arrival takes the site step through the batch port. The
  // tail stays buffered for the next chunk or the batch end.
  void RunSite(int site, const uint64_t* keys, size_t count);
  // Emits a kRankSummary (node [a, b) from `exports`' buffers) or
  // kRankResidual (leaf a, value b) frame charged `words`.
  void EmitTap(sim::wire::MsgType type, int site, uint64_t a, uint64_t b,
               uint64_t words, const SiteScratch* exports);
  // Applies the summary in scratch_'s export buffers to agg_.
  void ApplySummary(int site, uint32_t first_leaf, uint32_t end_leaf);
  // Accumulates one upload into pending_uploads_; FlushDeferredUploads
  // posts them in one RecordUploadBulk per site.
  void DeferUpload(int site, uint64_t words);
  void FlushDeferredUploads();

  RandomizedRankOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  count::CoarseTracker coarse_;
  std::vector<RankSite> sites_;
  // The coordinator's instance storage and estimator. Written through
  // the direct and batch ports.
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

  // Site-step scratch shared by all sites.
  SiteScratch scratch_;

  uint64_t n_ = 0;

  // Batch-engine run buffers: values delivered to each site since its
  // last event/reconciliation, in arrival order (delivery-engine state,
  // not protocol state — the values are the stream itself).
  std::vector<summaries::ValueBuffer> runs_;
  // Their sizes, handed to the broadcast-safety tests as carry (refilled
  // per chunk).
  std::vector<uint64_t> run_carry_;
  // Site-grouped delivery scratch.
  SiteGrouper grouper_;
  // Arrivals per grouped chunk. testing_util::DeliveryPeer sets 1 to
  // deliver in stream order, the reference the equivalence tests pin the
  // grouped engine to.
  size_t chunk_ = kSiteGroupChunk;
};

}  // namespace rank
}  // namespace disttrack

#endif  // DISTTRACK_RANK_RANDOMIZED_RANK_H_
