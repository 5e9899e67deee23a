// The randomized count tracker of §2.1 (Theorem 2.1).
//
// Protocol: every arrival at site i increments n_i; the site then sends the
// fresh value of n_i to the coordinator with probability p. The coordinator
// estimates each n_i by the unbiased estimator (1)
//
//      n̂_i = n̄_i - 1 + 1/p   (if a report n̄_i exists),   0 otherwise,
//
// whose variance is at most 1/p² (Lemma 2.1), and answers n̂ = Σ n̂_i.
// With p = Θ(√k / (εn)) the total variance is (εn/c)², giving error ≤ εn
// with probability ≥ 1 - 1/c² by Chebyshev.
//
// Because p must shrink as n grows, the protocol tracks n̄ (a factor-4
// approximation of n) via CoarseTracker; p = 1/⌊εn̄/(c√k)⌋₂ is recomputed
// at every broadcast, and each halving of p triggers the re-randomization
// ritual of §2.1: a site keeps its n̄_i with probability 1/2 (Bernoulli-
// process thinning), otherwise walks n̄_i down one position per failed
// Bernoulli(p_new) coin until a success or zero. After the ritual the
// system is distributed exactly as if it had always run with the new p.
//
// Communication: O(√k/ε · logN) in expectation; per-site space: O(1) words.
//
// Hot path: by default each site realizes its Bernoulli(p) coins with a
// geometric SkipSampler (skip_sampler.h), so an arrival between successes
// costs one counter decrement instead of an RNG draw + double compare;
// every p-halving redraws the outstanding skips (exact by independence of
// unconsumed coins). The per-arrival coin path survives behind
// `use_skip_sampling = false` for A/B measurement.

#ifndef DISTTRACK_COUNT_RANDOMIZED_COUNT_H_
#define DISTTRACK_COUNT_RANDOMIZED_COUNT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/common/event_countdown.h"
#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace count {

/// Options for RandomizedCountTracker.
struct RandomizedCountOptions {
  int num_sites = 8;
  double epsilon = 0.01;
  uint64_t seed = 1;

  /// Constant-factor boost c applied to p (§2.1 "Rescaling ε and p by a
  /// constant"): variance shrinks by c², communication grows by ~c.
  /// The default 2 already measures ~0.99 coverage (fig_accuracy) because
  /// the k/p² variance bound is slack by n̄ <= n and the ⌊·⌋₂ rounding.
  double confidence_factor = 2.0;

  /// Ablation switch (DESIGN.md §5): when true, uses the naive biased
  /// estimator n̂_i = n̄_i - 1 + 1/p *even when no report exists* (treating
  /// n̄_i as 0 but still adding the 1/p - 1 correction), reproducing the
  /// Θ(εn/√k)-per-site bias the paper warns about after Lemma 2.1.
  bool naive_boundary_estimator = false;

  /// When true (default), per-arrival Bernoulli(p) coins are realized by a
  /// geometric SkipSampler per site — identical in distribution (see
  /// skip_sampler.h for the argument), ~an order of magnitude cheaper per
  /// arrival. False selects the historical one-RNG-draw-per-arrival path
  /// (kept for A/B benchmarking and equivalence tests).
  bool use_skip_sampling = true;

  /// When true (default), the batch paths histogram each chunk by site
  /// and, whenever the chunk provably contains no coarse broadcast
  /// (CoarseTracker::BatchCannotBroadcast), advance every site by its
  /// whole per-chunk arrival count in one event-driven run — O(k +
  /// events) per chunk instead of a countdown decrement per element.
  /// Bit-identical to the countdown engine (per-site coin streams and
  /// event positions are site-local); unsafe chunks fall back to it.
  /// False keeps the countdown engine everywhere (A/B benchmarking).
  bool use_site_grouping = true;

  Status Validate() const;
};

/// Randomized ε-approximate count tracking (Theorem 2.1).
class RandomizedCountTracker : public sim::CountTrackerInterface,
                               private sim::CountShardIngest {
 public:
  explicit RandomizedCountTracker(const RandomizedCountOptions& options);

  void Arrive(int site) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  void ArriveSites(const uint16_t* sites, size_t count) override;
  double EstimateCount() const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Shard ingest (sim/shard.h): site workers advance count, coarse
  /// count, and the coin process site-locally, deferring reports and
  /// their traffic to per-site sinks folded at the epoch barrier. Only
  /// the skip-sampling path has the bulk coin primitives the per-site
  /// run loop needs.
  sim::CountShardIngest* shard_ingest() override {
    return options_.use_skip_sampling ? this : nullptr;
  }

  /// Current sampling probability p (1 until n̄ exceeds c√k/ε).
  double p() const;

  /// Rounds completed so far (CoarseTracker broadcasts).
  uint64_t rounds() const { return coarse_->round(); }

  // --- Wire layer / crash recovery (sim/robust_cluster.h) ----------------
  // A tap mirrors every metered message (coarse reports, coin reports,
  // p-halving corrections, broadcasts) as a typed wire::Message at the
  // §1.1 send instant; snapshots capture one site's full private state
  // (counters, report, skip countdown, RNG) so a crashed site can be
  // restored and replayed bit-identically; the ReplayCrash* calls re-run a
  // site's lost arrivals with every coordinator-side effect suppressed
  // (no n_, meter, or estimator-aggregate writes) while the site-local
  // state and RNG stream advance exactly as the lost execution did.

  void set_wire_tap(sim::wire::WireTap* tap);

  /// Count sites can snapshot between any two arrivals.
  bool SiteSnapshotReady(int /*site*/) const { return true; }

  /// Appends site `site`'s state — plus the round-scoped globals the
  /// replay needs (1/p) — to `*out`.
  void SerializeSiteState(int site, std::vector<uint64_t>* out) const;

  /// Restores SerializeSiteState output. Also installs the serialized
  /// globals; outside crash replay the caller restores a tracker at the
  /// same stream position, where they are unchanged.
  void RestoreSiteState(int site, const std::vector<uint64_t>& blob);

  /// Brackets a crash replay of `site`. Begin saves the live round
  /// globals (the snapshot will rewind them); End verifies the replayed
  /// broadcasts evolved them back to exactly the saved values.
  void BeginCrashReplay(int site);
  void EndCrashReplay();

  /// Re-delivers one lost arrival to the crashed site. `mid_ritual_n_bar`
  /// is non-null iff this arrival's coarse report triggered a broadcast in
  /// the original run; the per-site half of the round ritual is then
  /// replayed at the exact point the original run performed it.
  void ReplayCrashArrive(int site, const uint64_t* mid_ritual_n_bar);

  /// Replays the per-site half of a round ritual that fired between two
  /// of the site's arrivals (another site triggered it).
  void ReplayCrashRitual(int site, uint64_t n_bar);

 private:
  void OnBroadcast(uint64_t round, uint64_t n_bar);
  uint64_t InvPFor(uint64_t n_bar) const;
  void ArriveOne(int site);
  void Report(int site);
  void EmitTap(sim::wire::MsgType type, int site, uint64_t a);

  // --- Online shard ingest (sim::CountShardIngest) -----------------------
  // Snapshots reuse the crash-recovery site serialization — a count
  // site's full private state is always capturable; the trial fold
  // pre-checks the summed deferred coarse deltas against the broadcast
  // limit (exact, see shard.h) before folding the sinks.
  void ShardEpochBegin(uint64_t arrivals_in_epoch) override;
  void ShardArriveRun(int site, uint64_t count) override;
  void ShardSnapshotSite(int site, std::vector<uint64_t>* out) override;
  void ShardRestoreSite(int site, const std::vector<uint64_t>& blob) override;
  bool ShardTryEpochEnd() override;
  void ShardAbortEpoch(uint64_t arrivals) override;

  // Coordinator messages a site worker buffered during the current shard
  // epoch; folded (and cleared) by ShardTryEpochEnd.
  struct ShardSink {
    std::vector<uint64_t> coarse_deltas;  // deferred coarse-report deltas
    int64_t reported_sum_delta = 0;       // Σ n̄_i change from coin reports
    int64_t reported_count_delta = 0;     // |{i : n̄_i exists}| change
    uint64_t report_messages = 0;         // coin reports (1 word each)
  };
  std::vector<ShardSink> shard_sinks_;

  // --- Batched fast path -------------------------------------------------
  // The shared EventCountdown engine (common/event_countdown.h): each site
  // counts down to its next event — a coarse-tracker report or a
  // skip-sampler coin success, whichever is sooner. Events fire at exactly
  // the arrival indices where the scalar path would fire them, and the RNG
  // draw sequence is unchanged, so the batch path is bit-identical to
  // per-element Arrive() with skip sampling (tested in
  // skip_equivalence_test and batch_equivalence_test).
  // Arrivals at `site` until its next event (coarse report or coin
  // success) — the single source of truth for both the countdown engine
  // (RearmSite) and the shard run loop, so the two delivery paths cannot
  // drift apart.
  uint64_t NextEventGap(int site) const;
  void RearmSite(int site);
  void RearmAll();
  void SyncEventless(int site, uint64_t consumed);
  void HandleEventArrival(int site);
  void ResyncAllMidBatch();
  // Countdown-engine chunk bodies (the pre-grouping ArriveBatch /
  // ArriveSites loops), used directly when use_site_grouping is off and
  // as the fallback for chunks that may broadcast.
  void CountdownBatch(const sim::Arrival* arrivals, size_t count);
  void CountdownSites(const uint16_t* sites, size_t count);
  // Advances `site` by its whole slice of a certified broadcast-free
  // chunk: eventless stretches retire in bulk, events replay the scalar
  // path — the per-site projection of the countdown engine, without the
  // per-element decrement.
  void GroupedRun(int site, uint64_t count);

  RandomizedCountOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::unique_ptr<CoarseTracker> coarse_;
  sim::wire::WireTap* tap_ = nullptr;

  // Crash-replay bookkeeping (see BeginCrashReplay).
  bool crash_replay_ = false;
  int replay_site_ = -1;
  uint64_t replay_saved_inv_p_ = 0;
  int replay_saved_log2_ = 0;

  // Site-side state (O(1) words each).
  struct SiteState {
    uint64_t count = 0;     // exact n_i
    uint64_t reported = 0;  // n̄_i; 0 means "does not exist"
    SkipSampler skip;       // gap to the site's next Bernoulli(p) success
    Rng rng{0};
  };
  std::vector<SiteState> sites_;

  // Coordinator-side state.
  uint64_t inv_p_ = 1;          // 1/p, always a power of two
  int log2_inv_p_ = 0;          // log2(inv_p_), the skip samplers' argument
  uint64_t reported_sum_ = 0;   // Σ n̄_i over existing reports
  uint64_t reported_count_ = 0; // |{i : n̄_i exists}|
  uint64_t n_ = 0;              // ground truth (harness-side)

  // Batch fast-path countdowns (meaningful only while in_batch_).
  EventCountdown countdown_;
  bool in_batch_ = false;
  // Site-grouped delivery scratch + the broadcast-inside-grouped-chunk
  // abort guard (see OnBroadcast).
  SiteGrouper grouper_;
  bool grouped_chunk_active_ = false;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_RANDOMIZED_COUNT_H_
