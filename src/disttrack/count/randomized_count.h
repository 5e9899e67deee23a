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
// The two halves of §1.1 are written once each. The coordinator half is
// CountAggregate (count_aggregate.h), which sim::CountReplica hosts too.
// The site half is one event step (SiteEvent) and one thinning step
// (ThinSite), parameterized over a coordinator port: every delivery path
// — per-arrival, countdown, grouped, crash replay — runs the same steps
// and differs only in how their messages reach the coordinator.
//
// Hot path: by default each site realizes its Bernoulli(p) coins with a
// geometric SkipSampler (skip_sampler.h), so an arrival between successes
// costs one counter decrement instead of an RNG draw + double compare;
// every p-halving redraws the outstanding skips (exact by independence of
// unconsumed coins). Batched delivery groups every chunk that provably
// contains no coarse broadcast into per-site spans and runs the rest on
// the event-countdown engine; both are bit-identical to per-element
// Arrive(). The paper-literal per-arrival coin path stays reachable as a
// reference oracle (`use_skip_sampling = false`).

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
#include "disttrack/count/count_aggregate.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace testing_util {
struct DeliveryPeer;
}  // namespace testing_util

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

  /// Reference oracle, not a production path. True (default) realizes
  /// the per-arrival Bernoulli(p) coins with a geometric SkipSampler per
  /// site — identical in distribution (skip_sampler.h), an order of
  /// magnitude cheaper per arrival. False runs the paper-literal
  /// one-RNG-draw-per-arrival coins that stat_acceptance_test,
  /// skip_equivalence_test and bench_throughput's per_arrival rows
  /// compare against.
  bool use_skip_sampling = true;

  Status Validate() const;

  /// 1/p of a round whose broadcast carried `n_bar`: ⌊εn̄/(c√k)⌋₂, or 1
  /// while εn̄ <= c√k (§2.1). The tracker and its replica both evaluate
  /// it here.
  uint64_t InvP(uint64_t n_bar) const;
};

/// Randomized ε-approximate count tracking (Theorem 2.1).
class RandomizedCountTracker : public sim::CountTrackerInterface {
 public:
  explicit RandomizedCountTracker(const RandomizedCountOptions& options);

  void Arrive(int site) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  void ArriveSites(const uint16_t* sites, size_t count) override;
  double EstimateCount() const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

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

  /// Brackets a crash replay of `site`. Replay never touches the
  /// coordinator's 1/p, so Begin has nothing to save and End verifies the
  /// replayed broadcasts evolved the sites' 1/p back to it.
  void BeginCrashReplay(int /*site*/) {}
  void EndCrashReplay();

  /// Re-delivers one lost arrival to the crashed site (`key` is unused:
  /// count arrivals carry none). `mid_ritual_n_bar` is non-null iff this
  /// arrival's coarse report triggered a broadcast in the original run;
  /// the per-site half of the round ritual is then replayed at the exact
  /// point the original run performed it.
  void ReplayCrashArrive(int site, uint64_t key,
                         const uint64_t* mid_ritual_n_bar);

  /// Replays the per-site half of a round ritual that fired between two
  /// of the site's arrivals (another site triggered it).
  void ReplayCrashRitual(int site, uint64_t n_bar);

 private:
  friend struct testing_util::DeliveryPeer;

  // Coordinator ports: how a site's messages reach the coordinator.
  // DirectPort applies each effect in place and taps it (serial, countdown
  // and grouped delivery); ReplayPort only re-emits the frame, the
  // coordinator already holding its effect (crash replay, site processes).
  // Each port offers CoarseArrive(site) and Report(type, site, n̄_i), the
  // latter for coin reports and p-halving corrections alike.
  struct DirectPort;
  struct ReplayPort;

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void ArriveOne(int site);
  // The site step of one event arrival: n_i, the coarse arrival (which
  // may broadcast and halve p first), then the coin and its report.
  template <typename Port>
  void SiteEvent(int site, Port& port);
  // One site's thinning step at a halving of p to `p_new` (§2.1 ritual).
  template <typename Port>
  void ThinSite(int site, double p_new, Port& port);
  // Halves the sites' p until 1/p is `n_bar`'s, calling thin(p_new) after
  // each halving; true iff p changed.
  template <typename Thin>
  bool HalveTo(uint64_t n_bar, Thin thin);
  void EmitTap(sim::wire::MsgType type, int site, uint64_t a);

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
  // (RearmSite) and the run loop, so the delivery paths cannot drift
  // apart.
  uint64_t NextEventGap(int site) const;
  void RearmSite(int site);
  void RearmAll();
  void SyncEventless(int site, uint64_t consumed);
  void HandleEventArrival(int site);
  void ResyncAllMidBatch();
  // The skip-sampling batch path over Arrival[] or site-id streams:
  // chunks certified broadcast-free run site-grouped through RunSite, the
  // rest on the countdown engine.
  template <typename Input>
  void DeliverChunks(const Input* input, size_t count);
  template <typename Input>
  void CountdownChunk(const Input* input, size_t count);
  // Advances `site` by `count` arrivals of a grouped chunk, which no
  // broadcast can cut: eventless stretches retire in bulk, each event
  // arrival takes the site step through the direct port — the per-site
  // projection of the countdown engine, without the per-element
  // decrement.
  void RunSite(int site, uint64_t count);

  RandomizedCountOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::unique_ptr<CoarseTracker> coarse_;
  sim::wire::WireTap* tap_ = nullptr;

  // Site-side state (O(1) words each).
  struct SiteState {
    uint64_t count = 0;     // exact n_i
    uint64_t reported = 0;  // n̄_i; 0 means "does not exist"
    SkipSampler skip;       // gap to the site's next Bernoulli(p) success
    Rng rng{0};
  };
  std::vector<SiteState> sites_;
  // The sites' copy of 1/p (always a power of two) and its log2, the
  // skip samplers' argument. A crash snapshot rewinds them; replay
  // re-evolves them to the coordinator's.
  uint64_t inv_p_ = 1;
  int log2_inv_p_ = 0;

  // Coordinator-side state (count_aggregate.h), and the ground truth.
  CountAggregate agg_;
  uint64_t n_ = 0;

  // Batch fast-path countdowns (meaningful only while in_batch_).
  EventCountdown countdown_;
  bool in_batch_ = false;
  // Site-grouped delivery scratch + the broadcast-inside-grouped-chunk
  // abort guard (see OnBroadcast).
  SiteGrouper grouper_;
  bool grouped_chunk_active_ = false;
  // Always true outside tests; testing_util::DeliveryPeer clears it to
  // run every chunk on the countdown engine (the grouped ≡ countdown
  // equivalence tests).
  bool grouped_enabled_ = true;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_RANDOMIZED_COUNT_H_
