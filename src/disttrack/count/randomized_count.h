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
// The site half is CountSite: one site's state (its CoarseSite, its copy
// of 1/p, its report, skip countdown and RNG), its event step and its
// ritual, parameterized over a coordinator port. The in-process tracker
// is k CountSites plus the coordinator half; a site process or a fault
// harness site hosts one CountSite behind its TapPort (sim::HostedSite).
// Every delivery path runs the same steps and differs only in how their
// messages reach the coordinator.
//
// Hot path: by default each site realizes its Bernoulli(p) coins with a
// geometric SkipSampler (skip_sampler.h), so an arrival between successes
// costs one counter decrement instead of an RNG draw + double compare;
// every p-halving redraws the outstanding skips (exact by independence of
// unconsumed coins). Batched delivery runs the one batch engine,
// CoarseTracker::DeliverChunks: each chunk is grouped into per-site spans
// up to its first coarse broadcast, bit-identical to per-element
// Arrive(). The paper-literal per-arrival coin path stays reachable as a
// reference oracle (`use_skip_sampling = false`).

#ifndef DISTTRACK_COUNT_RANDOMIZED_COUNT_H_
#define DISTTRACK_COUNT_RANDOMIZED_COUNT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/count/count_aggregate.h"
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

  /// Ablation switch (docs/REPRODUCTION.md, Ablations): when true, uses the naive biased
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

/// One site of the §2.1 protocol: O(1) words.
class CountSite {
 public:
  using Options = RandomizedCountOptions;

  /// The coordinator port of a hosted site: every message becomes a
  /// frame on the tap, and nothing the coordinator holds is written.
  struct TapPort : TapCoarsePort {
    void Report(sim::wire::MsgType type, int site, uint64_t value) const {
      sim::wire::Emit(tap, type, site, 0, value);
    }
  };

  /// `options` must outlive the site.
  CountSite(const RandomizedCountOptions& options, int site);

  /// One arrival (`key` is unused: count arrivals carry none): the coarse
  /// step, whose report may come back as a broadcast and run Ritual
  /// before this arrival's coin is consumed, then the coin and its
  /// report. A port offers CoarseReport(site, delta) and
  /// Report(type, site, n̄_i), the latter for coin reports and p-halving
  /// corrections alike.
  template <typename Port>
  void Arrive(uint64_t key, Port& port);

  /// The site's half of a round ritual for a broadcast carrying `n_bar`:
  /// one thinning step per halving of p (§2.1), then a skip redraw.
  template <typename Port>
  void Ritual(uint64_t n_bar, Port& port);

  /// Arrivals until the next event (coarse report or coin success): where
  /// the batch engine's span loop stops to take the site step.
  uint64_t NextEventGap() const {
    return std::min(coarse_.arrivals_until_report(),
                    skip_.pending_skips() + 1);
  }

  /// Retires `n` arrivals known to be eventless (n < NextEventGap()):
  /// plain count advances and coin failures.
  void AdvanceNoEvent(uint64_t n) {
    coarse_.AdvanceNoReport(n);
    skip_.ConsumeFailures(n);
  }

  /// Count sites can snapshot between any two arrivals.
  bool SnapshotReady() const { return true; }
  /// Appends the site's whole state, its copy of 1/p included.
  void Serialize(std::vector<uint64_t>* out) const;
  /// Restores Serialize output; false (state untouched) on a blob of the
  /// wrong length or with a round parameter out of range.
  bool Restore(const std::vector<uint64_t>& blob);

  const CoarseSite& coarse() const { return coarse_; }
  /// n̄_i; 0 means "does not exist".
  uint64_t reported() const { return reported_; }

 private:
  // log2(1/p), the coarse site, n̄_i, the skip and the RNG.
  static constexpr size_t kBlobWords = 1 + CoarseSite::kWords + 1 + 2 + 4;

  uint64_t inv_p() const { return uint64_t{1} << log2_inv_p_; }

  const RandomizedCountOptions& options_;  // the owner's
  CoarseSite coarse_;  // its count is the exact n_i
  uint64_t reported_ = 0;
  SkipSampler skip_;  // gap to the site's next Bernoulli(p) success
  Rng rng_;
  int site_;
  // The site's copy of 1/p, always a power of two, as its log2 (the skip
  // sampler's argument).
  int log2_inv_p_ = 0;
};

/// Randomized ε-approximate count tracking (Theorem 2.1).
class RandomizedCountTracker : public sim::CountTrackerInterface {
 public:
  using Site = CountSite;

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
  uint64_t rounds() const { return coarse_.round(); }

  /// A tap mirrors every metered message (coarse reports, coin reports,
  /// p-halving corrections, broadcasts) as a typed wire::Message at the
  /// §1.1 send instant.
  void set_wire_tap(sim::wire::WireTap* tap);

  /// Site `i` (the fault harness and the snapshot tests compare hosted
  /// sites against it).
  const CountSite& site(int i) const { return sites_[static_cast<size_t>(i)]; }
  CountSite& site(int i) { return sites_[static_cast<size_t>(i)]; }

 private:
  // The in-process coordinator port: each effect applies in place and is
  // tapped (serial and grouped delivery).
  struct DirectPort;

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void ArriveOne(int site);

  // The skip-sampling batch path over Arrival[] or site-id streams: the
  // chunks of CoarseTracker::DeliverChunks, each span through RunSite.
  template <typename Input>
  void DeliverGrouped(const Input* input, size_t count);
  // Advances `site` by `count` arrivals of a grouped chunk: eventless
  // stretches retire in bulk, each event arrival takes the site step
  // through the direct port.
  void RunSite(int site, uint64_t count);

  RandomizedCountOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  CoarseTracker coarse_;
  sim::wire::WireTap* tap_ = nullptr;
  std::vector<CountSite> sites_;

  // Coordinator-side state (count_aggregate.h), and the ground truth.
  CountAggregate agg_;
  uint64_t n_ = 0;

  // Site-grouped delivery scratch.
  SiteGrouper grouper_;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_RANDOMIZED_COUNT_H_
