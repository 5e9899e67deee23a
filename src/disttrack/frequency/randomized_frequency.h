// The randomized frequency tracker of §3.1 (Theorem 3.1).
//
// Per round (n̄ fixed by CoarseTracker), with p = 1/⌊εn̄/(c√k)⌋₂:
//  * each site keeps a sticky counter list L_i: an arriving item j without
//    a counter starts one with probability p (the creation is reported to
//    the coordinator, value 1); a tracked item increments its counter and
//    re-reports the fresh value with probability p;
//  * independently, every arrival is forwarded with probability p (the
//    simple-random-sampling channel d_ij);
//  * a site that has received more than n̄/k elements in the round notifies
//    the coordinator, clears its memory, and continues as a fresh "virtual
//    site", capping its space at O(p·n̄/k) = O(1/(ε√k)) words;
//  * at a round boundary all sites clear and the round's estimates freeze.
//
// The coordinator estimates the round's contribution of (instance i, item
// j) by the unbiased estimator (4):
//      f̂'_ij = c̄_ij - 2 + 2/p    if a counter report c̄_ij exists,
//              -d_ij / p          otherwise,
// whose variance is O(1/p²) (Lemma 3.1), and sums over instances & rounds.
// Every term is an integer, so the coordinator keeps each item's sum as
// one exact running total (frequency_aggregate.h). Note the second
// branch: when no counter exists the *negative* sampled count corrects
// the boundary bias of the naive estimator (2), which the
// `naive_boundary_estimator` ablation reinstates.
//
// Hot path: the sticky counter list is a flat open-addressing table
// (counter_table.h) — one Fibonacci-hash probe per arrival instead of an
// unordered_map find — and batched delivery runs on the shared
// EventCountdown engine: between events (coin successes on either
// channel, coarse reports, virtual-site splits) an arrival costs one
// countdown decrement plus the table probe, with the two skip channels,
// the round-arrival counter, and the coarse tracker reconciled in bulk at
// each event. The batch engine consumes the RNG exactly as per-element
// Arrive() does, so batch-vs-scalar is bit-identical
// (batch_equivalence_test). Once the counter tables outgrow the cache,
// chunks that provably contain no coarse broadcast are instead grouped
// into per-site spans (see grouped_delivery_enabled()), also
// bit-identical. The paper-literal per-arrival coins stay reachable as a
// reference oracle (`use_skip_sampling = false`).

#ifndef DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_
#define DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/common/event_countdown.h"
#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/frequency/counter_table.h"
#include "disttrack/frequency/frequency_aggregate.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
namespace testing_util {
struct DeliveryPeer;
}  // namespace testing_util

namespace frequency {

/// Options for RandomizedFrequencyTracker.
struct RandomizedFrequencyOptions {
  int num_sites = 8;
  double epsilon = 0.01;
  uint64_t seed = 1;

  /// Constant-factor boost applied to p (variance /c², communication ~×c).
  double confidence_factor = 4.0;

  /// Ablation (docs/REPRODUCTION.md, Ablations): use the biased estimator (2) — contribute 0
  /// instead of -d_ij/p when no counter exists.
  bool naive_boundary_estimator = false;

  /// Ablation: disable the n̄/k virtual-site split (space may then grow to
  /// O(p·n̄) = O(√k/ε) at a site receiving the whole stream).
  bool virtual_site_split = true;

  /// Reference oracle, not a production path. True (default) realizes
  /// the two per-arrival Bernoulli(p) coins (counter channel and sampling
  /// channel) with two geometric SkipSamplers per site — identical in
  /// distribution, redrawn on every round broadcast — and batches run
  /// the countdown or grouped engine. False runs the paper-literal
  /// per-arrival coins that stat_acceptance_test, skip_equivalence_test
  /// and bench_throughput's per_arrival rows compare against.
  bool use_skip_sampling = true;

  Status Validate() const;

  /// 1/p of a round whose broadcast carried `n_bar`: ⌊εn̄/(c√k)⌋₂, at
  /// least 1. The tracker and its replica both evaluate it here.
  uint64_t InvP(uint64_t n_bar) const;
};

/// Randomized ε-approximate frequency tracking (Theorem 3.1).
class RandomizedFrequencyTracker : public sim::FrequencyTrackerInterface {
 public:
  explicit RandomizedFrequencyTracker(
      const RandomizedFrequencyOptions& options);

  void Arrive(int site, uint64_t item) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  double EstimateFrequency(uint64_t item) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Current sampling probability p.
  double p() const { return 1.0 / static_cast<double>(inv_p_); }

  uint64_t rounds() const { return coarse_->round(); }

  /// Number of virtual-site splits performed so far (diagnostics).
  uint64_t splits() const { return splits_; }

  /// True when ArriveBatch runs the site-grouped engine: it permutes each
  /// chunk that provably contains no coarse broadcast into site-contiguous
  /// spans and walks each span against that site's counter table in one
  /// batched pass (table invariants hoisted, four-lane probe pipelining,
  /// key-run dedup); other chunks run on the event-countdown engine. Both
  /// are bit-identical: estimator terms are exact integers
  /// (frequency_aggregate.h), so cross-site order cannot change an
  /// estimate. Grouping only pays once the counter working set misses in
  /// cache, and that is decidable at construction: the live sticky-
  /// counter population per site per round is ~c/(ε√k) entries (the
  /// split threshold n̄/k and 1/p = ⌊εn̄/(c√k)⌋₂ both scale with n̄), so
  /// the gate enables grouping when k of those tables project above a
  /// 1 MiB bound. At the default c = 4 it is off at k = 64, ε = 0.01 and
  /// on at k = 32, ε = 5e-4.
  bool grouped_delivery_enabled() const { return grouped_enabled_; }

  // --- Wire layer / site protocol (sim/site_core.h) ----------------------
  // Mirrors the count tracker's API: a tap emits every metered message as
  // a typed wire::Message; site snapshots capture the sticky counter
  // list, both skip channels, the instance id mint, and the RNG; the
  // ReplayCrash* calls run one site through a coordinator-suppressed port
  // (frames emitted, no meter/aggregation writes).

  void set_wire_tap(sim::wire::WireTap* tap);

  /// Frequency sites can snapshot between any two arrivals.
  bool SiteSnapshotReady(int /*site*/) const { return true; }

  void SerializeSiteState(int site, std::vector<uint64_t>* out) const;
  void RestoreSiteState(int site, const std::vector<uint64_t>& blob);

  /// One arrival of `site` through the replay port. A broadcast decision
  /// on its coarse report comes back reentrantly from the tap.
  void ReplayCrashArrive(int site, uint64_t item);

  /// Per-site half of a round transition.
  void ReplayCrashRitual(int site, uint64_t n_bar);

 private:
  struct SiteState {
    uint64_t instance = 0;      // current virtual-site id (globally unique)
    uint32_t instance_seq = 0;  // per-site sequence the id is minted from
    uint64_t round_arrivals = 0;
    CounterTable counters;  // L_i
    // One skip channel per independent per-arrival coin: the counter
    // channel (create-or-re-report) and the sampling channel (d_ij).
    SkipSampler counter_skip;
    SkipSampler sample_skip;
    Rng rng{0};
  };

  friend struct testing_util::DeliveryPeer;

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  // The round parameters a broadcast of `n_bar` sets: 1/p, its log2 and
  // the split threshold n̄/k.
  void SetRoundParams(uint64_t n_bar);
  uint64_t SplitThreshold(uint64_t n_bar) const;
  // One site's half of a round transition: cleared counters, a fresh
  // instance, redrawn skips. Serves OnBroadcast and ReplayCrashRitual.
  void SiteRitual(int site);
  void UpdateSpace(int site);
  void ArriveOne(int site, uint64_t item);
  // Everything ArriveOne does except ++n_ (the batch engine advances n_
  // up front): coarse arrival, split check, coins, store updates.
  void ProcessArrival(int site, uint64_t item);
  // The shared protocol logic of ProcessArrival, parameterized over how
  // coordinator effects are delivered: DirectPort applies them in place
  // (per-arrival, countdown and grouped delivery), ReplayPort only
  // emits the frames (sim::SiteCore's hosted sites). Site-local state
  // is mutated identically either way.
  template <typename Port>
  void ProcessArrivalImpl(int site, uint64_t item, Port& port);
  // Mints the next virtual-site instance id for `site`: the site id over
  // a per-site sequence, so a site's ids never depend on other sites'
  // splits. The ids travel in counter-report and sample frames.
  uint64_t NewInstanceId(int site, SiteState* s) {
    return (static_cast<uint64_t>(site) << 32) |
           static_cast<uint64_t>(s->instance_seq++);
  }

  struct DirectPort;
  struct ReplayPort;

  void EmitTap(sim::wire::MsgType type, int site, uint64_t a, uint64_t b,
               uint64_t c, uint64_t words);

  // The per-site span loop of grouped delivery: eventless stretches pay
  // one batched table walk and retire in bulk; each event arrival replays
  // ProcessArrivalImpl through the direct port.
  void RunSiteSpan(int site, const uint64_t* keys, size_t count);
  // Applies the queued counter reports and samples as one batch (after a
  // serial arrival or a grouped chunk's spans).
  void FlushPending();

  // Batched fast path on the shared EventCountdown engine; see
  // common/event_countdown.h for the reconciliation contract.
  void RunBatch(const sim::Arrival* arrivals, size_t count);
  // Arrivals at `site` until its next event (coin success on either
  // channel, coarse report, or virtual-site split) — the single source
  // of truth for the countdown engine and the span loop.
  uint64_t NextEventGap(int site) const;
  void RearmSite(int site);
  void RearmAll();
  void SyncEventless(int site, uint64_t consumed);
  void HandleEventArrival(int site, uint64_t item);
  void ResyncAllMidBatch();

  RandomizedFrequencyOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  std::unique_ptr<count::CoarseTracker> coarse_;
  std::vector<SiteState> sites_;
  sim::wire::WireTap* tap_ = nullptr;

  // The coordinator's estimator state (frequency_aggregate.h), and the
  // counter reports and samples queued for FlushPending.
  FrequencyAggregate agg_;
  std::vector<FrequencyAggregate::Message> pending_;

  uint64_t inv_p_ = 1;
  int log2_inv_p_ = 0;            // log2(inv_p_), the skip samplers' argument
  uint64_t split_threshold_ = 1;  // n̄/k
  uint64_t splits_ = 0;
  uint64_t n_ = 0;

  EventCountdown countdown_;
  bool in_batch_ = false;
  // Site-grouped delivery scratch + the broadcast-inside-grouped-chunk
  // abort guard (see OnBroadcast).
  SiteGrouper grouper_;
  bool grouped_chunk_active_ = false;
  // The gate's decision (see grouped_delivery_enabled()), fixed at
  // construction; testing_util::DeliveryPeer overrides it to pin
  // grouped ≡ countdown.
  bool grouped_enabled_ = false;
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_
