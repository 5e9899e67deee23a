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
// The site half is FrequencySite: one site's state (its CoarseSite, its
// copy of the round parameters, its counter list, both skip channels and
// its RNG), its arrival step and its ritual, parameterized over a
// coordinator port. The in-process tracker is k FrequencySites plus the
// aggregate; a site process or a fault harness site hosts one
// FrequencySite behind its TapPort (sim::HostedSite).
//
// Hot path: the sticky counter list is a flat open-addressing table
// (counter_table.h) — one Fibonacci-hash probe per arrival instead of an
// unordered_map find — and batched delivery runs the one batch engine,
// CoarseTracker::DeliverChunks: each chunk is grouped into per-site spans
// up to its first coarse broadcast, and each span is walked against its
// site's counter table in one batched pass. Between events (coin
// successes on either channel, coarse reports, virtual-site splits) an
// arrival costs its share of that walk, with the two skip channels, the
// round-arrival counter and the coarse site retired in bulk at each
// event. The engine consumes the RNG exactly as per-element Arrive()
// does, so batch-vs-scalar is bit-identical (batch_equivalence_test). The
// paper-literal per-arrival coins stay reachable as a reference oracle
// (`use_skip_sampling = false`).

#ifndef DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_
#define DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/frequency/counter_table.h"
#include "disttrack/frequency/frequency_aggregate.h"
#include "disttrack/sim/protocol.h"

namespace disttrack {
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
  /// the grouped engine. False runs the paper-literal per-arrival coins
  /// that stat_acceptance_test, skip_equivalence_test and
  /// bench_throughput's per_arrival rows compare against.
  bool use_skip_sampling = true;

  Status Validate() const;

  /// 1/p of a round whose broadcast carried `n_bar`: ⌊εn̄/(c√k)⌋₂, at
  /// least 1. The tracker and its replica both evaluate it here.
  uint64_t InvP(uint64_t n_bar) const;
};

/// One site of the §3.1 protocol.
class FrequencySite {
 public:
  using Options = RandomizedFrequencyOptions;

  /// The coordinator port of a hosted site: every message becomes a
  /// frame on the tap, and nothing the coordinator holds is written.
  struct TapPort : count::TapCoarsePort {
    void SplitNotify(int site) const {
      sim::wire::Emit(tap, sim::wire::MsgType::kSplitNotice, site, 0, 0);
    }
    void CounterReport(int site, uint64_t item, uint64_t instance,
                       uint64_t value) const {
      sim::wire::Emit(tap, sim::wire::MsgType::kCounterReport, site, 0, item,
                      instance, value, 2);
    }
    void SampleForward(int site, uint64_t item, uint64_t instance) const {
      sim::wire::Emit(tap, sim::wire::MsgType::kSampleForward, site, 0, item,
                      instance);
    }
    void Space(const FrequencySite& /*site*/) const {}
  };

  /// `options` must outlive the site.
  FrequencySite(const RandomizedFrequencyOptions& options, int site);

  /// One arrival of `item`: the coarse step (whose report may come back
  /// as a broadcast and run Ritual first), the split check, both coins,
  /// the counter list. A port offers CoarseReport(site, delta),
  /// SplitNotify(site), CounterReport(site, item, instance, value),
  /// SampleForward(site, item, instance) and Space(site) (the counter
  /// list changed size).
  template <typename Port>
  void Arrive(uint64_t item, Port& port);

  /// The site's half of a round transition for a broadcast carrying
  /// `n_bar`: the new round parameters, cleared counters, a fresh
  /// instance, redrawn skips.
  template <typename Port>
  void Ritual(uint64_t n_bar, Port& port);

  /// Arrivals until the next event (coin success on either channel,
  /// coarse report, or virtual-site split): where the batch engine's span
  /// loop stops to take the site step.
  uint64_t NextEventGap() const;

  /// Retires `n` arrivals of `keys` known to be eventless
  /// (n < NextEventGap()): tracked counters count every arrival (only
  /// reports are coin-gated), plus round-arrival advances, coin failures
  /// on both channels and coarse count advances.
  void AdvanceNoEvent(const uint64_t* keys, size_t n) {
    counters_.IncrementTrackedRun(keys, n);
    round_arrivals_ += n;
    counter_skip_.ConsumeFailures(n);
    sample_skip_.ConsumeFailures(n);
    coarse_.AdvanceNoReport(n);
  }

  /// Frequency sites can snapshot between any two arrivals.
  bool SnapshotReady() const { return true; }
  /// Appends the site's whole state, its round parameters included.
  void Serialize(std::vector<uint64_t>* out) const;
  /// Restores Serialize output; false (state untouched) on a blob whose
  /// length disagrees with its header words or with a round parameter
  /// out of range.
  bool Restore(const std::vector<uint64_t>& blob);

  const count::CoarseSite& coarse() const { return coarse_; }
  int id() const { return site_; }
  uint64_t inv_p() const { return uint64_t{1} << log2_inv_p_; }
  /// Counter list (item, value pairs) plus O(1) fixed state: instance id,
  /// round arrival counter, 1/p copy, split threshold, and the two skip
  /// countdowns. The flat table is charged at its live population — the
  /// algorithm's state — not its physical capacity.
  uint64_t SpaceWords() const { return 2 * counters_.size() + 6; }

 private:
  // Round parameters, instance, skips and RNG ahead of the counter list.
  static constexpr size_t kHeaderWords =
      2 + count::CoarseSite::kWords + 3 + 2 * 2 + 4 + 1;

  // Mints the next virtual-site instance id: the site id over a per-site
  // sequence, so a site's ids never depend on other sites' splits. The
  // ids travel in counter-report and sample frames.
  void NewInstance() {
    instance_ = (static_cast<uint64_t>(site_) << 32) |
                static_cast<uint64_t>(instance_seq_++);
  }

  CounterTable counters_;  // L_i
  // One skip channel per independent per-arrival coin: the counter
  // channel (create-or-re-report) and the sampling channel (d_ij).
  SkipSampler counter_skip_;
  SkipSampler sample_skip_;
  uint64_t round_arrivals_ = 0;
  uint64_t split_threshold_ = 1;  // n̄/k
  count::CoarseSite coarse_;
  uint64_t instance_ = 0;      // current virtual-site id (globally unique)
  Rng rng_;
  const RandomizedFrequencyOptions& options_;  // the owner's
  uint32_t instance_seq_ = 0;  // per-site sequence the id is minted from
  int site_;
  // The site's copy of 1/p, always a power of two, as its log2 (the skip
  // samplers' argument).
  int log2_inv_p_ = 0;
};

/// Randomized ε-approximate frequency tracking (Theorem 3.1).
class RandomizedFrequencyTracker : public sim::FrequencyTrackerInterface {
 public:
  using Site = FrequencySite;

  explicit RandomizedFrequencyTracker(
      const RandomizedFrequencyOptions& options);

  void Arrive(int site, uint64_t item) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  double EstimateFrequency(uint64_t item) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Current sampling probability p.
  double p() const { return 1.0 / static_cast<double>(sites_[0].inv_p()); }

  uint64_t rounds() const { return coarse_.round(); }

  /// Number of virtual-site splits performed so far (diagnostics).
  uint64_t splits() const { return splits_; }

  /// Always true: ArriveBatch has one engine, the site-grouped one. Kept
  /// only because perfbench reports it; the next benchmark change drops
  /// it.
  bool grouped_delivery_enabled() const { return true; }

  /// A tap mirrors every metered message as a typed wire::Message at the
  /// §1.1 send instant.
  void set_wire_tap(sim::wire::WireTap* tap);

  /// Site `i` (the fault harness and the snapshot tests compare hosted
  /// sites against it).
  const FrequencySite& site(int i) const {
    return sites_[static_cast<size_t>(i)];
  }
  FrequencySite& site(int i) { return sites_[static_cast<size_t>(i)]; }

 private:
  // The in-process coordinator port: every effect applies in place
  // except counter reports and samples, which queue for FlushPending.
  struct DirectPort;

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void ArriveOne(int site, uint64_t item);

  // The per-site span loop of grouped delivery: eventless stretches pay
  // one batched table walk and retire in bulk; each event arrival takes
  // the site step through the direct port.
  void RunSiteSpan(int site, const uint64_t* keys, size_t count);
  // Applies the queued counter reports and samples as one batch (after a
  // serial arrival or a grouped chunk's spans).
  void FlushPending();

  RandomizedFrequencyOptions options_;
  sim::CommMeter meter_;
  sim::SpaceGauge space_;
  count::CoarseTracker coarse_;
  std::vector<FrequencySite> sites_;
  sim::wire::WireTap* tap_ = nullptr;

  // The coordinator's estimator state (frequency_aggregate.h), and the
  // counter reports and samples queued for FlushPending.
  FrequencyAggregate agg_;
  std::vector<FrequencyAggregate::Message> pending_;

  uint64_t splits_ = 0;
  uint64_t n_ = 0;

  // Site-grouped delivery scratch.
  SiteGrouper grouper_;
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_
