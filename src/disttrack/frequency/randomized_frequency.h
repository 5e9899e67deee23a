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
// Note the second branch: when no counter exists the *negative* sampled
// count corrects the boundary bias of the naive estimator (2), which the
// `naive_boundary_estimator` ablation reinstates.
//
// Hot path: the sticky counter list is a flat open-addressing table
// (counter_table.h) — one Fibonacci-hash probe per arrival instead of an
// unordered_map find — and batched delivery runs on the shared
// EventCountdown engine: between events (coin successes on either
// channel, coarse reports, virtual-site splits) an arrival costs one
// countdown decrement plus the table probe, with the two skip channels,
// the round-arrival counter, and the coarse tracker reconciled in bulk at
// each event. Both fast paths keep their historical counterparts
// reachable (`use_skip_sampling`, `use_flat_counters`) for A/B runs; the
// batch engine consumes the RNG exactly as per-element Arrive() does, so
// batch-vs-scalar is bit-identical (batch_equivalence_test).

#ifndef DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_
#define DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "disttrack/common/event_countdown.h"
#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/common/status.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/frequency/counter_table.h"
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

  /// Ablation (DESIGN.md §5): use the biased estimator (2) — contribute 0
  /// instead of -d_ij/p when no counter exists.
  bool naive_boundary_estimator = false;

  /// Ablation: disable the n̄/k virtual-site split (space may then grow to
  /// O(p·n̄) = O(√k/ε) at a site receiving the whole stream).
  bool virtual_site_split = true;

  /// When true (default), the two per-arrival Bernoulli(p) coins (counter
  /// channel and sampling channel) are realized by two geometric
  /// SkipSamplers per site — identical in distribution, redrawn on every
  /// round broadcast — and ArriveBatch runs the event-countdown engine.
  /// False selects the historical per-arrival coin path.
  bool use_skip_sampling = true;

  /// When true (default), each site's sticky counter list is the flat
  /// open-addressing CounterTable; false keeps the historical
  /// std::unordered_map store for A/B runs. The store holds no
  /// randomness, so the choice never changes estimates.
  bool use_flat_counters = true;

  /// When true (requires the two fast paths above), ArriveBatch permutes
  /// each chunk into site-contiguous spans whenever the chunk provably
  /// contains no coarse broadcast and walks each span against that
  /// site's counter table in one batched pass (table invariants hoisted,
  /// four-lane probe pipelining, key-run dedup); coordinator effects
  /// apply directly (the canonical ItemAgg instance order makes
  /// cross-site application order immaterial), so estimates,
  /// communication, rounds, and splits are bit-identical to the
  /// event-countdown engine — which remains the fallback for chunks that
  /// may broadcast.
  ///
  /// Default FALSE, unlike count and rank: on the reference container
  /// the per-site tables the split threshold allows are small enough to
  /// be cache-resident even interleaved, so the scatter pass buys no
  /// probe locality and costs ~5-10% net (the grouped_batched bench rows
  /// record the A/B). The engine is bit-identical and fully tested; true
  /// forces it on regardless of table size (A/B runs).
  bool use_site_grouping = false;

  /// Eps-aware auto gate for the grouped engine (applies only when
  /// use_site_grouping is false, i.e. not forced). The expected live
  /// sticky-counter population per site per round is ~c/(ε√k) entries —
  /// a pure function of (ε, k, c), since the split threshold n̄/k and
  /// 1/p = ⌊εn̄/(c√k)⌋₂ both scale with n̄ — so whether the k interleaved
  /// tables fit in cache is decidable at construction. When the
  /// projected aggregate working set crosses kGroupedCacheBoundBytes the
  /// grouped engine is selected automatically (that is exactly the
  /// regime where the scatter pass buys probe locality; the bench's
  /// table-bound frequency configuration records the win). False
  /// disables the gate, keeping grouped delivery purely manual.
  bool auto_site_grouping = true;

  /// Cache-residency bound of the auto gate: aggregate projected counter
  /// working set (bytes) above which grouped delivery wins. Default 1
  /// MiB — an L2's worth; the working set must miss per probe before the
  /// scatter pass pays for itself.
  size_t grouped_cache_bound_bytes = size_t{1} << 20;

  Status Validate() const;
};

/// Randomized ε-approximate frequency tracking (Theorem 3.1).
class RandomizedFrequencyTracker : public sim::FrequencyTrackerInterface,
                                   private sim::KeyedShardIngest {
 public:
  explicit RandomizedFrequencyTracker(
      const RandomizedFrequencyOptions& options);

  void Arrive(int site, uint64_t item) override;
  void ArriveBatch(const sim::Arrival* arrivals, size_t count) override;
  double EstimateFrequency(uint64_t item) const override;
  uint64_t TrueCount() const override { return n_; }
  const sim::CommMeter& meter() const override { return meter_; }
  const sim::SpaceGauge& space() const override { return space_; }

  /// Shard ingest (sim/shard.h): site workers run counters, splits, and
  /// both coin channels site-locally; every coordinator effect (coarse
  /// reports, split notices, counter re-reports, sampled copies) is
  /// buffered per site and folded at the epoch barrier. Per-site message
  /// order is preserved, and cross-site order cannot matter: coarse
  /// reports and traffic are commutative sums, and the per-item instance
  /// lists are canonically ordered (see ItemAgg::ForInstance) — so the
  /// coordinator's aggregation state evolves bit-identically to the
  /// serial execution without global-index bookkeeping.
  sim::KeyedShardIngest* shard_ingest() override {
    return options_.use_skip_sampling && options_.use_flat_counters ? this
                                                                    : nullptr;
  }

  /// Current sampling probability p.
  double p() const { return 1.0 / static_cast<double>(inv_p_); }

  uint64_t rounds() const { return coarse_->round(); }

  /// Number of virtual-site splits performed so far (diagnostics).
  uint64_t splits() const { return splits_; }

  /// True when batch delivery runs the site-grouped engine — forced via
  /// use_site_grouping or auto-selected by the eps-aware cache gate
  /// (diagnostics/tests; resolved once at construction).
  bool grouped_delivery_enabled() const { return grouped_enabled_; }

  // --- Wire layer / crash recovery (sim/robust_cluster.h) ----------------
  // Mirrors the count tracker's API: a tap emits every metered message as
  // a typed wire::Message; site snapshots capture the sticky counter
  // list, both skip channels, the instance id mint, and the RNG; the
  // ReplayCrash* calls re-run lost arrivals through a coordinator-
  // suppressed port (frames re-emitted, no meter/aggregation writes).

  void set_wire_tap(sim::wire::WireTap* tap);

  /// Frequency sites can snapshot between any two arrivals.
  bool SiteSnapshotReady(int /*site*/) const { return true; }

  void SerializeSiteState(int site, std::vector<uint64_t>* out) const;
  void RestoreSiteState(int site, const std::vector<uint64_t>& blob);

  void BeginCrashReplay(int site);
  void EndCrashReplay();

  /// Re-delivers one lost arrival. `mid_ritual_n_bar` non-null iff the
  /// arrival's coarse report triggered a broadcast in the original run.
  void ReplayCrashArrive(int site, uint64_t item,
                         const uint64_t* mid_ritual_n_bar);

  /// Per-site half of a round transition another site triggered.
  void ReplayCrashRitual(int site, uint64_t n_bar);

 private:
  struct SiteState {
    uint64_t instance = 0;      // current virtual-site id (globally unique)
    uint32_t instance_seq = 0;  // per-site sequence the id is minted from
    uint64_t round_arrivals = 0;
    CounterTable counters;  // L_i (use_flat_counters, the default)
    std::unordered_map<uint64_t, uint64_t> legacy_counters;  // A/B store
    // One skip channel per independent per-arrival coin: the counter
    // channel (create-or-re-report) and the sampling channel (d_ij).
    SkipSampler counter_skip;
    SkipSampler sample_skip;
    Rng rng{0};
  };

  // Coordinator-side per-(round,item) aggregation. An item is touched by
  // very few instances per round (a handful of sites/virtual sites win a
  // coin for it), so the per-instance state is a short vector with linear
  // scans rather than the two hash tables a map-of-maps would cost on
  // every newly sampled item. ItemAggs live in a pooled arena indexed by
  // a CounterTable (item -> arena slot) that is bulk-cleared at round
  // boundaries with the arena recycled, so a steady-state round performs
  // no coordinator-side allocation at all.
  struct InstanceAgg {
    uint64_t instance = 0;
    uint64_t cbar = 0;  // last reported counter value; 0 = no counter yet
                        // (reports are always >= 1, so 0 is unambiguous)
    uint64_t d = 0;     // sampled copies, used only while cbar == 0
  };
  struct ItemAgg {
    uint64_t item = 0;
    // Kept sorted by instance id. Instance ids are site-minted
    // ((site << 32) | per-site sequence), so the sorted order is a pure
    // function of the instance SET — the order coordinator messages
    // arrive in (stream order, site-grouped order, shard-barrier order)
    // can no longer influence the estimator's floating-point summation
    // order. That canonical order is what lets the grouped engine apply
    // counter reports and samples directly instead of re-serializing
    // them by global arrival index (cbar and d stay exact per instance
    // because all of an instance's messages come from its own site, in
    // that site's stream order).
    std::vector<InstanceAgg> instances;

    InstanceAgg& ForInstance(uint64_t instance) {
      size_t lo = 0;
      size_t hi = instances.size();
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (instances[mid].instance < instance) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < instances.size() && instances[lo].instance == instance) {
        return instances[lo];
      }
      instances.insert(instances.begin() + static_cast<long>(lo),
                       InstanceAgg{instance, 0, 0});
      return instances[lo];
    }
  };

  void OnBroadcast(uint64_t round, uint64_t n_bar);
  void FoldRound();
  ItemAgg& LiveAgg(uint64_t item);
  const ItemAgg* FindLiveAgg(uint64_t item) const;
  double LiveEstimate(const ItemAgg& agg) const;
  uint64_t InvPFor(uint64_t n_bar) const;
  void UpdateSpace(int site);
  void ArriveOne(int site, uint64_t item);
  // Everything ArriveOne does except ++n_ (the batch engine advances n_
  // up front): coarse arrival, split check, coins, store updates.
  void ProcessArrival(int site, uint64_t item);
  // The shared protocol logic of ProcessArrival, parameterized over how
  // coordinator effects are delivered: DirectPort applies them in place
  // (the serial path), ShardPort defers them to the site's message sink
  // (shard ingest). Site-local state is mutated identically either way.
  template <typename Port>
  void ProcessArrivalImpl(int site, uint64_t item, Port& port);
  // Mints the next virtual-site instance id for `site` (site-unique ids
  // keep id assignment schedule-independent under shard ingest).
  uint64_t NewInstanceId(int site, SiteState* s) {
    return (static_cast<uint64_t>(site) << 32) |
           static_cast<uint64_t>(s->instance_seq++);
  }
  size_t CounterCount(const SiteState& s) const;
  void ClearCounters(SiteState* s);

  // --- Shard ingest (sim::KeyedShardIngest) ------------------------------
  void ShardEpochBegin(uint64_t arrivals_in_epoch) override;
  void ShardArriveRun(int site, const uint64_t* keys, size_t count) override;
  void ShardEpochEnd() override;
  // sim::OnlineKeyedSession certifies rolling epochs against this
  // tracker's broadcast state.
  count::CoarseTracker* shard_coarse() override { return coarse_.get(); }

  // One deferred coordinator message (shard ingest only; grouped chunks
  // apply effects directly). No serialization key is needed: per-site
  // order is preserved by the sinks themselves, and cross-site order is
  // immaterial (commutative sums + the canonical instance order).
  struct ShardMsg {
    enum Kind : uint8_t {
      kCoarseReport,   // value = deferred n' delta
      kSplit,          // virtual-site split notice
      kCounterReport,  // item/instance, value = fresh counter value
      kSample,         // item/instance, one sampled copy (d channel)
    };
    Kind kind = kCoarseReport;
    int32_t site = 0;  // full site id (num_sites is only bounded below)
    uint64_t item = 0;
    uint64_t instance = 0;
    uint64_t value = 0;
  };
  struct DirectPort;
  struct ShardPort;
  struct ReplayPort;
  std::vector<std::vector<ShardMsg>> shard_sinks_;  // one sink per site

  void EmitTap(sim::wire::MsgType type, int site, uint64_t a, uint64_t b,
               uint64_t c, uint64_t words);

  // The per-site span loop shared by shard ingest and grouped delivery:
  // eventless stretches pay one batched table walk and retire in bulk;
  // each event arrival replays ProcessArrivalImpl through `port`.
  template <typename Port>
  void RunSiteSpan(int site, const uint64_t* keys, size_t count, Port& port);
  // Applies the per-site message sinks — the coordinator half of a
  // shard-epoch barrier (the only caller: grouped chunks buffer nothing
  // and apply effects directly through DirectPort). Per-site order is
  // preserved; cross-site order cannot matter (see ShardMsg).
  void FoldSinkMessages();
  void EnsureSinks();

  // Batched fast path on the shared EventCountdown engine; see
  // common/event_countdown.h for the reconciliation contract.
  template <bool kFlat>
  void RunBatch(const sim::Arrival* arrivals, size_t count);
  // Arrivals at `site` until its next event (coin success on either
  // channel, coarse report, or virtual-site split) — the single source
  // of truth for the countdown engine and the shard run loop.
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

  // Crash-replay bookkeeping (see BeginCrashReplay).
  bool crash_replay_ = false;
  int replay_site_ = -1;
  uint64_t replay_saved_inv_p_ = 0;
  int replay_saved_log2_ = 0;
  uint64_t replay_saved_split_threshold_ = 0;

  // Current round: item -> (arena slot + 1) in live_index_; the arena
  // entries [0, live_used_) are this round's ItemAggs.
  CounterTable live_index_;
  std::vector<ItemAgg> live_arena_;
  size_t live_used_ = 0;
  // Completed rounds: item -> Σ round estimates, a flat CounterTable with
  // the double accumulator bit-cast into the uint64 payload (the table
  // never interprets values). Folding a round touches every live item
  // once, so the map op is the fold's hot instruction — the flat probe
  // replaced an unordered_map node walk.
  CounterTable frozen_;

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
  // Resolved grouped-delivery decision (forced || auto gate), fixed at
  // construction.
  bool grouped_enabled_ = false;
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_RANDOMIZED_FREQUENCY_H_
