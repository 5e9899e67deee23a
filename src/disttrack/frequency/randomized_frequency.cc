#include "disttrack/frequency/randomized_frequency.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "disttrack/common/math_util.h"

namespace disttrack {
namespace frequency {
namespace {

// Cache-residency bound of the grouped-delivery gate (see
// RandomizedFrequencyTracker::grouped_delivery_enabled()): the projected
// aggregate counter working set, in bytes, above which grouped delivery
// wins. An L2's worth: the working set must miss per probe before the
// scatter pass pays for itself.
constexpr size_t kGroupedCacheBoundBytes = size_t{1} << 20;

}  // namespace

Status RandomizedFrequencyOptions::Validate() const {
  if (num_sites < 1) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (!(confidence_factor >= 1.0)) {
    return Status::InvalidArgument("confidence_factor must be >= 1");
  }
  return Status::OK();
}

uint64_t RandomizedFrequencyOptions::InvP(uint64_t n_bar) const {
  double scaled =
      epsilon * static_cast<double>(n_bar) /
      (confidence_factor * std::sqrt(static_cast<double>(num_sites)));
  if (scaled <= 1.0) return 1;
  return FloorPow2(scaled);
}

RandomizedFrequencyTracker::RandomizedFrequencyTracker(
    const RandomizedFrequencyOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)),
      agg_(options.naive_boundary_estimator) {
  for (int i = 0; i < options_.num_sites; ++i) {
    SiteState& s = sites_[static_cast<size_t>(i)];
    s.instance = NewInstanceId(i, &s);
    s.rng = Rng(options_.seed * 0xA24BAED4963EE407ull +
                static_cast<uint64_t>(i));
    s.counter_skip.ResetPow2(log2_inv_p_, &s.rng);
    s.sample_skip.ResetPow2(log2_inv_p_, &s.rng);
    UpdateSpace(i);
  }
  coarse_ = std::make_unique<count::CoarseTracker>(options_.num_sites,
                                                   &meter_);
  coarse_->AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
  countdown_.Resize(options_.num_sites);
  // The grouped-delivery gate (see grouped_delivery_enabled()): group
  // when the projected aggregate counter working set — k sites ×
  // ~c/(ε√k) live entries × one 16-byte slot at ~0.5 load — cannot stay
  // cache-resident under interleaved delivery. The per-arrival coin
  // oracle has no batch engine to group.
  double per_site_entries =
      options_.confidence_factor /
      (options_.epsilon * std::sqrt(static_cast<double>(options_.num_sites)));
  double aggregate_bytes =
      static_cast<double>(options_.num_sites) * per_site_entries * 32.0;
  grouped_enabled_ =
      options_.use_skip_sampling &&
      aggregate_bytes > static_cast<double>(kGroupedCacheBoundBytes);
}

void RandomizedFrequencyTracker::OnBroadcast(uint64_t /*round*/,
                                             uint64_t n_bar) {
  if (grouped_chunk_active_) {
    // CoarseTracker::BatchCannotBroadcast certified this chunk; a
    // broadcast here means grouped processing already reordered arrivals
    // across it — abort instead of silently diverging from the serial
    // coin streams.
    std::fprintf(stderr,
                 "RandomizedFrequencyTracker: broadcast inside a grouped "
                 "chunk — the broadcast-safety bound is wrong\n");
    std::abort();
  }
  // Mid-batch, the outstanding eventless arrivals belong to the closing
  // round: flush them into the authoritative per-site state before the
  // round ritual discards it.
  if (in_batch_) ResyncAllMidBatch();
  // Restart from scratch with the new parameters (§3.1 "Dealing with a
  // decreasing p"); the closing round's terms are already in the totals.
  SetRoundParams(n_bar);
  FrequencyAggregate::RequireExact(agg_.BeginRound(inv_p_), "1/p");
  for (int i = 0; i < options_.num_sites; ++i) SiteRitual(i);
  if (in_batch_) RearmAll();
}

void RandomizedFrequencyTracker::SetRoundParams(uint64_t n_bar) {
  inv_p_ = options_.InvP(n_bar);
  log2_inv_p_ = FloorLog2(inv_p_);
  split_threshold_ = SplitThreshold(n_bar);
}

uint64_t RandomizedFrequencyTracker::SplitThreshold(uint64_t n_bar) const {
  return std::max<uint64_t>(
      1, n_bar / static_cast<uint64_t>(options_.num_sites));
}

void RandomizedFrequencyTracker::SiteRitual(int site) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  s.counters.Clear();
  s.round_arrivals = 0;
  s.instance = NewInstanceId(site, &s);
  if (options_.use_skip_sampling) {
    // The new p invalidates outstanding skips (they encode old-p coin
    // gaps); redrawing is exact by independence of unconsumed coins.
    s.counter_skip.ResetPow2(log2_inv_p_, &s.rng);
    s.sample_skip.ResetPow2(log2_inv_p_, &s.rng);
  }
  UpdateSpace(site);
}

void RandomizedFrequencyTracker::UpdateSpace(int site) {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  // Counter list (item, value pairs) plus O(1) fixed state: instance id,
  // round arrival counter, 1/p copy, split threshold, and the two skip
  // countdowns. The flat table is charged at its live population — the
  // algorithm's state — not its physical capacity.
  space_.Set(site, 2 * s.counters.size() + 6);
}

// Serial and grouped-chunk coordinator port: every effect applies in
// place (including a broadcast firing mid-arrival) except counter reports
// and samples, which queue for FlushPending. Inside a certified
// broadcast-free chunk no effect depends on cross-site order — coarse
// reports and traffic are commutative sums, and estimator terms are
// exact integers (frequency_aggregate.h) — so site-grouped application
// reproduces the serial coordinator state bit for bit.
struct RandomizedFrequencyTracker::DirectPort {
  RandomizedFrequencyTracker* t;
  void CoarseArrive(int site) { t->coarse_->Arrive(site); }
  void SplitNotify(int site) {
    t->meter_.RecordUpload(site, 1);
    ++t->splits_;
    t->EmitTap(sim::wire::MsgType::kSplitNotice, site, 0, 0, 0, 1);
  }
  void CounterReport(int site, uint64_t item, uint64_t instance,
                     uint64_t value) {
    t->meter_.RecordUpload(site, 2);
    t->pending_.push_back({item, instance, value});
    t->EmitTap(sim::wire::MsgType::kCounterReport, site, item, instance,
               value, 2);
  }
  void SampleForward(int site, uint64_t item, uint64_t instance) {
    t->meter_.RecordUpload(site, 1);
    t->pending_.push_back({item, instance, 0});
    t->EmitTap(sim::wire::MsgType::kSampleForward, site, item, instance, 0,
               1);
  }
};

// Replay coordinator port: the site-local half of every arrival runs
// unchanged (counters, splits, coins, instance minting), every wire frame
// is emitted with identical content, and every coordinator-side effect —
// meter charges, split counter, live aggregation — is suppressed: the
// coordinator applies the frames itself, and a recovered site's
// re-emitted frames are deduplicated by sequence number.
struct RandomizedFrequencyTracker::ReplayPort {
  RandomizedFrequencyTracker* t;
  void CoarseArrive(int site) { t->coarse_->ReplayArrive(site); }
  void SplitNotify(int site) {
    t->EmitTap(sim::wire::MsgType::kSplitNotice, site, 0, 0, 0, 1);
  }
  void CounterReport(int site, uint64_t item, uint64_t instance,
                     uint64_t value) {
    t->EmitTap(sim::wire::MsgType::kCounterReport, site, item, instance,
               value, 2);
  }
  void SampleForward(int site, uint64_t item, uint64_t instance) {
    t->EmitTap(sim::wire::MsgType::kSampleForward, site, item, instance, 0,
               1);
  }
};

template <typename Port>
inline void RandomizedFrequencyTracker::ProcessArrivalImpl(int site,
                                                           uint64_t item,
                                                           Port& port) {
  port.CoarseArrive(site);
  SiteState& s = sites_[static_cast<size_t>(site)];

  // Virtual-site split: the (n̄/k + 1)-th element of a round starts a fresh
  // copy of the algorithm at this site (§3.1). p is unchanged, so the skip
  // counters stay valid across the split.
  if (options_.virtual_site_split &&
      s.round_arrivals >= split_threshold_) {
    port.SplitNotify(site);
    s.counters.Clear();
    s.instance = NewInstanceId(site, &s);
    s.round_arrivals = 0;
    UpdateSpace(site);
  }
  ++s.round_arrivals;

  // Each arrival consumes exactly one coin per channel: the counter
  // channel decides re-report (item tracked) or creation (item untracked);
  // the sampling channel decides forwarding (d_ij). Skip counters realize
  // the same two coin sequences with one decrement per miss.
  bool counter_hit, sample_hit;
  if (options_.use_skip_sampling) {
    counter_hit = s.counter_skip.Next(&s.rng);
    sample_hit = s.sample_skip.Next(&s.rng);
  } else {
    double cur_p = 1.0 / static_cast<double>(inv_p_);
    counter_hit = s.rng.Bernoulli(cur_p);
    sample_hit = s.rng.Bernoulli(cur_p);
  }

  // Counter-list channel. The probe is only needed to route a hit and to
  // increment an existing counter; misses on untracked items touch no
  // coordinator state.
  if (uint64_t* value = s.counters.Find(item)) {
    uint64_t fresh_value = ++*value;
    if (counter_hit) {
      port.CounterReport(site, item, s.instance, fresh_value);
    }
  } else if (counter_hit) {
    s.counters.Insert(item, 1);
    // Setting cbar supersedes any sampled copies d of this instance: the
    // estimator reads d only while cbar == 0.
    port.CounterReport(site, item, s.instance, 1);
    UpdateSpace(site);  // the counter set grew; splits/rounds handle shrink
  }

  // Independent simple-random-sampling channel (d_ij).
  if (sample_hit) {
    port.SampleForward(site, item, s.instance);
  }
}

inline void RandomizedFrequencyTracker::ProcessArrival(int site,
                                                       uint64_t item) {
  DirectPort port{this};
  ProcessArrivalImpl(site, item, port);
  FlushPending();
}

inline void RandomizedFrequencyTracker::ArriveOne(int site, uint64_t item) {
  ++n_;
  ProcessArrival(site, item);
}

void RandomizedFrequencyTracker::Arrive(int site, uint64_t item) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ArriveOne(site, item);
}

// One site's span: the per-site projection of the serial event-countdown
// engine. Eventless arrivals pay one batched tracked-counter walk and
// retire in bulk (exactly SyncEventless); each event arrival replays the
// scalar ProcessArrival logic through the direct port.
void RandomizedFrequencyTracker::RunSiteSpan(int site, const uint64_t* keys,
                                             size_t count) {
  DirectPort port{this};
  SiteState& s = sites_[static_cast<size_t>(site)];
  size_t pos = 0;
  while (pos < count) {
    uint64_t gap = NextEventGap(site);
    uint64_t eventless =
        std::min<uint64_t>(gap - 1, static_cast<uint64_t>(count - pos));
    if (eventless > 0) {
      s.counters.IncrementTrackedRun(keys + pos,
                                     static_cast<size_t>(eventless));
      s.round_arrivals += eventless;
      s.counter_skip.ConsumeFailures(eventless);
      s.sample_skip.ConsumeFailures(eventless);
      coarse_->AdvanceLocalNoReport(site, eventless);
      pos += static_cast<size_t>(eventless);
    }
    if (pos >= count) break;
    ProcessArrivalImpl(site, keys[pos], port);
    ++pos;
  }
}

void RandomizedFrequencyTracker::FlushPending() {
  agg_.ApplyBatch(pending_.data(), pending_.size());
  pending_.clear();
}

uint64_t RandomizedFrequencyTracker::NextEventGap(int site) const {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  // Next event: the sooner of the two skip channels' successes, the
  // coarse-tracker report, and (when enabled) the virtual-site split.
  uint64_t gap = std::min(coarse_->arrivals_until_report(site),
                          std::min(s.counter_skip.pending_skips(),
                                   s.sample_skip.pending_skips()) +
                              1);
  if (options_.virtual_site_split) {
    // The split fires on the arrival that *begins* past the threshold, so
    // the gap to it is one beyond the remaining headroom.
    uint64_t split_gap = s.round_arrivals < split_threshold_
                             ? split_threshold_ - s.round_arrivals + 1
                             : 1;
    gap = std::min(gap, split_gap);
  }
  return gap;
}

void RandomizedFrequencyTracker::RearmSite(int site) {
  countdown_.Arm(site, NextEventGap(site));
}

void RandomizedFrequencyTracker::RearmAll() {
  for (int i = 0; i < options_.num_sites; ++i) RearmSite(i);
}

// Retires `consumed` arrivals at `site` that are known to be eventless:
// round-arrival advances, coin failures on both channels, and plain coarse
// count advances. By construction consumed is strictly below every event
// gap, so neither a coin success, a split, nor a coarse report can fire
// here. (Tracked-item counter increments happened inline at arrival time;
// they carry no randomness and touch no coordinator state.)
void RandomizedFrequencyTracker::SyncEventless(int site, uint64_t consumed) {
  if (consumed == 0) return;
  SiteState& s = sites_[static_cast<size_t>(site)];
  s.round_arrivals += consumed;
  s.counter_skip.ConsumeFailures(consumed);
  s.sample_skip.ConsumeFailures(consumed);
  coarse_->ArriveRun(site, consumed);
}

void RandomizedFrequencyTracker::ResyncAllMidBatch() {
  for (int i = 0; i < options_.num_sites; ++i) {
    uint64_t consumed = countdown_.Outstanding(i);
    countdown_.Reconcile(i);
    SyncEventless(i, consumed);
  }
}

// The countdown for `site` hit zero: reconcile the eventless prefix of its
// stride, then process the current arrival exactly as the scalar path
// would — coarse first (a broadcast here redraws skips before the coins
// are consumed), then the coins and store updates.
void RandomizedFrequencyTracker::HandleEventArrival(int site, uint64_t item) {
  SyncEventless(site, countdown_.TakeEventPrefix(site));
  ProcessArrival(site, item);
  RearmSite(site);
}

void RandomizedFrequencyTracker::RunBatch(const sim::Arrival* arrivals,
                                          size_t count) {
  // Event-countdown engine: an eventless arrival costs one decrement plus
  // one counter-store probe. n_ is advanced up front; nothing inside the
  // batch reads it.
  n_ += count;
  in_batch_ = true;
  RearmAll();
  uint32_t* until = countdown_.until();
  for (size_t i = 0; i < count; ++i) {
    int site = arrivals[i].site;
    sim::CheckSiteInRange(site, options_.num_sites);
    uint64_t item = arrivals[i].key;
    if (--until[site] == 0) {
      HandleEventArrival(site, item);
    } else {
      // Tracked items must count every arrival; only reports are coin-
      // gated, so the eventless path is probe + maybe-increment.
      sites_[static_cast<size_t>(site)].counters.IncrementIfTracked(item);
    }
  }
  ResyncAllMidBatch();
  in_batch_ = false;
}

void RandomizedFrequencyTracker::ArriveBatch(const sim::Arrival* arrivals,
                                             size_t count) {
  if (!options_.use_skip_sampling) {
    // The per-arrival coin oracle has no countdown to run, so batch
    // delivery degenerates to the scalar loop.
    for (size_t i = 0; i < count; ++i) {
      sim::CheckSiteInRange(arrivals[i].site, options_.num_sites);
      ArriveOne(arrivals[i].site, arrivals[i].key);
    }
    return;
  }
  if (!grouped_enabled_) {
    RunBatch(arrivals, count);
    return;
  }
  // Site-grouped delivery: a chunk certified broadcast-free is permuted
  // into site-contiguous spans, each walked against its site's counter
  // table in one cache-resident pass; counter reports and samples apply
  // after the spans in one prefetched batch (see DirectPort).
  // Chunks that may broadcast run through the countdown engine unchanged.
  size_t pos = 0;
  while (pos < count) {
    size_t len = std::min(kSiteGroupChunk, count - pos);
    grouper_.ScatterBySite(arrivals + pos, len, options_.num_sites);
    if (coarse_->BatchCannotBroadcast(grouper_.histogram())) {
      n_ += len;
      grouped_chunk_active_ = true;
      for (const SiteGrouper::Span& span : grouper_.spans()) {
        RunSiteSpan(span.site, span.data, span.length);
      }
      grouped_chunk_active_ = false;
      FlushPending();
    } else {
      RunBatch(arrivals + pos, len);
    }
    pos += len;
  }
}

double RandomizedFrequencyTracker::EstimateFrequency(uint64_t item) const {
  return agg_.Estimate(item);
}

void RandomizedFrequencyTracker::EmitTap(sim::wire::MsgType type, int site,
                                         uint64_t a, uint64_t b, uint64_t c,
                                         uint64_t words) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = type;
  msg.site = site;
  msg.epoch = coarse_->round();
  msg.a = a;
  msg.b = b;
  msg.c = c;
  msg.paper_words = words;
  tap_->OnMessage(std::move(msg));
}

void RandomizedFrequencyTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_->set_wire_tap(tap);
}

void RandomizedFrequencyTracker::SerializeSiteState(
    int site, std::vector<uint64_t>* out) const {
  out->push_back(inv_p_);
  out->push_back(static_cast<uint64_t>(log2_inv_p_));
  out->push_back(split_threshold_);
  coarse_->SerializeSite(site, out);
  const SiteState& s = sites_[static_cast<size_t>(site)];
  out->push_back(s.instance);
  out->push_back(s.instance_seq);
  out->push_back(s.round_arrivals);
  for (const SkipSampler* skip : {&s.counter_skip, &s.sample_skip}) {
    out->push_back(skip->raw_skip());
    uint64_t bits = 0;
    double inv_log = skip->raw_inv_log();
    std::memcpy(&bits, &inv_log, sizeof(bits));
    out->push_back(bits);
  }
  uint64_t rng_state[4];
  s.rng.SaveState(rng_state);
  for (uint64_t word : rng_state) out->push_back(word);
  // The sticky counter list, in key order: physical table order depends on
  // the insert history, so sorting makes the blob a function of the
  // site's state alone (the fault harness compares blobs word for word).
  // Restore rebuilds by Insert, which yields an observably identical
  // store regardless of layout.
  std::vector<std::pair<uint64_t, uint64_t>> counters;
  counters.reserve(s.counters.size());
  s.counters.ForEach([&counters](uint64_t key, uint64_t value) {
    counters.emplace_back(key, value);
  });
  std::sort(counters.begin(), counters.end());
  out->push_back(counters.size());
  for (const auto& [key, value] : counters) {
    out->push_back(key);
    out->push_back(value);
  }
}

void RandomizedFrequencyTracker::RestoreSiteState(
    int site, const std::vector<uint64_t>& blob) {
  size_t i = 0;
  inv_p_ = blob[i++];
  log2_inv_p_ = static_cast<int>(blob[i++]);
  split_threshold_ = blob[i++];
  i += coarse_->RestoreSite(site, blob.data() + i);
  SiteState& s = sites_[static_cast<size_t>(site)];
  s.instance = blob[i++];
  s.instance_seq = static_cast<uint32_t>(blob[i++]);
  s.round_arrivals = blob[i++];
  for (SkipSampler* skip : {&s.counter_skip, &s.sample_skip}) {
    uint64_t raw_skip = blob[i++];
    uint64_t bits = blob[i++];
    double inv_log = 0;
    std::memcpy(&inv_log, &bits, sizeof(inv_log));
    skip->RestoreRaw(raw_skip, inv_log);
  }
  uint64_t rng_state[4];
  for (int j = 0; j < 4; ++j) rng_state[j] = blob[i++];
  s.rng.RestoreState(rng_state);
  s.counters.Clear();
  uint64_t counters = blob[i++];
  for (uint64_t j = 0; j < counters; ++j) {
    uint64_t key = blob[i++];
    uint64_t value = blob[i++];
    s.counters.Insert(key, value);
  }
  UpdateSpace(site);
}

void RandomizedFrequencyTracker::ReplayCrashArrive(int site, uint64_t item) {
  ReplayPort port{this};
  ProcessArrivalImpl(site, item, port);
}

void RandomizedFrequencyTracker::ReplayCrashRitual(int site, uint64_t n_bar) {
  // Per-site half of OnBroadcast, with the identical draw order. The
  // coordinator half (the aggregate's BeginRound) is the coordinator's.
  SetRoundParams(n_bar);
  SiteRitual(site);
}

}  // namespace frequency
}  // namespace disttrack
