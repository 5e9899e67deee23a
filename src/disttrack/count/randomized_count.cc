#include "disttrack/count/randomized_count.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "disttrack/common/math_util.h"

namespace disttrack {
namespace count {

Status RandomizedCountOptions::Validate() const {
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

RandomizedCountTracker::RandomizedCountTracker(
    const RandomizedCountOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)) {
  for (int i = 0; i < options_.num_sites; ++i) {
    SiteState& s = sites_[static_cast<size_t>(i)];
    s.rng =
        Rng(options_.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i));
    s.skip.ResetPow2(log2_inv_p_, &s.rng);
    // O(1) site state: counter, last report, doubling threshold, 1/p copy,
    // plus the skip countdown on the fast path.
    space_.Set(i, options_.use_skip_sampling ? 5 : 4);
  }
  coarse_ = std::make_unique<CoarseTracker>(options_.num_sites, &meter_);
  coarse_->AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
  countdown_.Resize(options_.num_sites);
}

uint64_t RandomizedCountTracker::InvPFor(uint64_t n_bar) const {
  // p = 1 while εn̄ <= c√k; afterwards 1/p = ⌊εn̄/(c√k)⌋₂ (§2.1).
  double scaled = options_.epsilon * static_cast<double>(n_bar) /
                  (options_.confidence_factor *
                   std::sqrt(static_cast<double>(options_.num_sites)));
  if (scaled <= 1.0) return 1;
  return FloorPow2(scaled);
}

double RandomizedCountTracker::p() const {
  return 1.0 / static_cast<double>(inv_p_);
}

void RandomizedCountTracker::OnBroadcast(uint64_t /*round*/, uint64_t n_bar) {
  if (grouped_chunk_active_) {
    // CoarseTracker::BatchCannotBroadcast certified this chunk; a
    // broadcast here means grouped processing already reordered arrivals
    // across it — abort instead of silently diverging from the serial
    // coin streams.
    std::fprintf(stderr,
                 "RandomizedCountTracker: broadcast inside a grouped chunk "
                 "— the broadcast-safety bound is wrong\n");
    std::abort();
  }
  uint64_t new_inv_p = InvPFor(n_bar);
  bool halved = inv_p_ < new_inv_p;
  while (inv_p_ < new_inv_p) {
    inv_p_ *= 2;
    ++log2_inv_p_;
    double p_new = 1.0 / static_cast<double>(inv_p_);
    // Re-randomization ritual, once per halving, at every site that holds a
    // report (§2.1). The broadcast that told sites the new n̄ was already
    // charged by CoarseTracker; the correction uploads are charged here.
    for (int i = 0; i < options_.num_sites; ++i) {
      SiteState& s = sites_[static_cast<size_t>(i)];
      if (s.reported == 0) continue;
      if (s.rng.Bernoulli(0.5)) continue;  // report survives the thinning
      uint64_t old_report = s.reported;
      uint64_t failures = s.rng.GeometricFailures(p_new);
      uint64_t positions_below = old_report - 1;
      uint64_t new_report =
          failures >= positions_below ? 0 : old_report - 1 - failures;
      // Coordinator-side update (the site informs the coordinator).
      meter_.RecordUpload(i, 1);
      EmitTap(sim::wire::MsgType::kCorrection, i, new_report);
      reported_sum_ -= old_report;
      --reported_count_;
      s.reported = new_report;
      if (new_report > 0) {
        reported_sum_ += new_report;
        ++reported_count_;
      }
    }
  }
  // A halved p invalidates every outstanding skip: the counters encode
  // gaps of the *old* coin process. Unconsumed coins are independent of
  // everything observed, so redrawing at the final p is exact (see
  // skip_sampler.h). One redraw after the loop covers any number of
  // halvings. Mid-batch, the countdowns scheduled from the old skips must
  // be flushed first and re-armed after.
  if (halved && options_.use_skip_sampling) {
    if (in_batch_) ResyncAllMidBatch();
    for (SiteState& s : sites_) s.skip.ResetPow2(log2_inv_p_, &s.rng);
    if (in_batch_) RearmAll();
  }
}

void RandomizedCountTracker::Report(int site) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  meter_.RecordUpload(site, 1);
  if (s.reported > 0) reported_sum_ -= s.reported;
  else ++reported_count_;
  s.reported = s.count;
  reported_sum_ += s.reported;
  EmitTap(sim::wire::MsgType::kCoinReport, site, s.reported);
}

void RandomizedCountTracker::EmitTap(sim::wire::MsgType type, int site,
                                     uint64_t a) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = type;
  msg.site = site;
  msg.epoch = coarse_->round();
  msg.a = a;
  msg.paper_words = 1;
  tap_->OnMessage(std::move(msg));
}

void RandomizedCountTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_->set_wire_tap(tap);
}

void RandomizedCountTracker::SerializeSiteState(
    int site, std::vector<uint64_t>* out) const {
  out->push_back(inv_p_);
  out->push_back(static_cast<uint64_t>(log2_inv_p_));
  coarse_->SerializeSite(site, out);
  const SiteState& s = sites_[static_cast<size_t>(site)];
  out->push_back(s.count);
  out->push_back(s.reported);
  out->push_back(s.skip.raw_skip());
  uint64_t inv_log_bits = 0;
  double inv_log = s.skip.raw_inv_log();
  std::memcpy(&inv_log_bits, &inv_log, sizeof(inv_log_bits));
  out->push_back(inv_log_bits);
  uint64_t rng_state[4];
  s.rng.SaveState(rng_state);
  for (uint64_t word : rng_state) out->push_back(word);
}

void RandomizedCountTracker::RestoreSiteState(
    int site, const std::vector<uint64_t>& blob) {
  size_t i = 0;
  inv_p_ = blob[i++];
  log2_inv_p_ = static_cast<int>(blob[i++]);
  i += coarse_->RestoreSite(site, blob.data() + i);
  SiteState& s = sites_[static_cast<size_t>(site)];
  s.count = blob[i++];
  s.reported = blob[i++];
  uint64_t skip = blob[i++];
  uint64_t inv_log_bits = blob[i++];
  double inv_log = 0;
  std::memcpy(&inv_log, &inv_log_bits, sizeof(inv_log));
  s.skip.RestoreRaw(skip, inv_log);
  uint64_t rng_state[4];
  for (int j = 0; j < 4; ++j) rng_state[j] = blob[i++];
  s.rng.RestoreState(rng_state);
}

void RandomizedCountTracker::BeginCrashReplay(int site) {
  crash_replay_ = true;
  replay_site_ = site;
  replay_saved_inv_p_ = inv_p_;
  replay_saved_log2_ = log2_inv_p_;
}

void RandomizedCountTracker::EndCrashReplay() {
  if (inv_p_ != replay_saved_inv_p_ || log2_inv_p_ != replay_saved_log2_) {
    std::fprintf(stderr,
                 "RandomizedCountTracker: crash replay did not re-evolve "
                 "1/p to its pre-crash value (journal is incomplete)\n");
    std::abort();
  }
  crash_replay_ = false;
  replay_site_ = -1;
}

void RandomizedCountTracker::ReplayCrashArrive(int site,
                                               const uint64_t* mid_ritual_n_bar) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  ++s.count;
  uint64_t delta = coarse_->ArriveLocal(site);
  if (delta > 0) {
    EmitTap(sim::wire::MsgType::kCoarseReport, site, delta);
  }
  if (mid_ritual_n_bar != nullptr) {
    if (delta == 0) {
      std::fprintf(stderr,
                   "RandomizedCountTracker: journaled mid-arrival broadcast "
                   "at an arrival with no coarse report\n");
      std::abort();
    }
    ReplayCrashRitual(site, *mid_ritual_n_bar);
  }
  bool hit = options_.use_skip_sampling
                 ? s.skip.Next(&s.rng)
                 : s.rng.Bernoulli(1.0 / static_cast<double>(inv_p_));
  if (hit) {
    // Site half of Report(): the coordinator's aggregates already contain
    // this report from the original (pre-crash) delivery.
    s.reported = s.count;
    EmitTap(sim::wire::MsgType::kCoinReport, site, s.reported);
  }
}

void RandomizedCountTracker::ReplayCrashRitual(int site, uint64_t n_bar) {
  uint64_t new_inv_p = InvPFor(n_bar);
  bool halved = inv_p_ < new_inv_p;
  SiteState& s = sites_[static_cast<size_t>(site)];
  while (inv_p_ < new_inv_p) {
    inv_p_ *= 2;
    ++log2_inv_p_;
    double p_new = 1.0 / static_cast<double>(inv_p_);
    // Per-site half of the §2.1 ritual, with the identical draw order the
    // full OnBroadcast loop consumes for this site.
    if (s.reported != 0 && !s.rng.Bernoulli(0.5)) {
      uint64_t old_report = s.reported;
      uint64_t failures = s.rng.GeometricFailures(p_new);
      uint64_t positions_below = old_report - 1;
      s.reported = failures >= positions_below ? 0 : old_report - 1 - failures;
      EmitTap(sim::wire::MsgType::kCorrection, site, s.reported);
    }
  }
  if (halved && options_.use_skip_sampling) {
    s.skip.ResetPow2(log2_inv_p_, &s.rng);
  }
}

inline void RandomizedCountTracker::ArriveOne(int site) {
  ++n_;
  SiteState& s = sites_[static_cast<size_t>(site)];
  ++s.count;
  // The coarse tracker may broadcast here, halving p before this arrival's
  // coin is consumed — the skip redraw (or the flip below) then uses the
  // up-to-date p.
  coarse_->Arrive(site);
  if (options_.use_skip_sampling) {
    if (s.skip.Next(&s.rng)) Report(site);
  } else {
    if (s.rng.Bernoulli(1.0 / static_cast<double>(inv_p_))) Report(site);
  }
}

void RandomizedCountTracker::Arrive(int site) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ArriveOne(site);
}

uint64_t RandomizedCountTracker::NextEventGap(int site) const {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  return std::min(coarse_->arrivals_until_report(site),
                  s.skip.pending_skips() + 1);
}

void RandomizedCountTracker::RearmSite(int site) {
  countdown_.Arm(site, NextEventGap(site));
}

void RandomizedCountTracker::RearmAll() {
  for (int i = 0; i < options_.num_sites; ++i) RearmSite(i);
}

// Retires `consumed` arrivals at `site` that are known to be eventless:
// plain count advances and coin failures. By construction consumed is
// strictly below both the coarse-report gap and the pending skip count, so
// neither a report nor a coin success can fire here.
void RandomizedCountTracker::SyncEventless(int site, uint64_t consumed) {
  if (consumed == 0) return;
  SiteState& s = sites_[static_cast<size_t>(site)];
  s.count += consumed;
  s.skip.ConsumeFailures(consumed);
  coarse_->ArriveRun(site, consumed);
}

// Flushes every site's consumed-but-unreconciled arrivals. Called when a
// mid-batch broadcast is about to redraw the skips (the countdowns encode
// coin gaps of the old p) and at batch end.
void RandomizedCountTracker::ResyncAllMidBatch() {
  for (int i = 0; i < options_.num_sites; ++i) {
    uint64_t consumed = countdown_.Outstanding(i);
    countdown_.Reconcile(i);
    SyncEventless(i, consumed);
  }
}

// The countdown for `site` hit zero: reconcile the eventless prefix of its
// stride, then process the current arrival exactly as the scalar path
// would — coarse first (a broadcast here redraws skips before the coin is
// consumed), then the coin.
void RandomizedCountTracker::HandleEventArrival(int site) {
  // TakeEventPrefix marks the site fully reconciled before coarse is
  // touched: if this arrival broadcasts, ResyncAllMidBatch must see zero
  // outstanding arrivals here.
  SyncEventless(site, countdown_.TakeEventPrefix(site));
  SiteState& s = sites_[static_cast<size_t>(site)];
  ++s.count;
  coarse_->Arrive(site);
  if (s.skip.Next(&s.rng)) Report(site);
  RearmSite(site);
}

void RandomizedCountTracker::CountdownBatch(const sim::Arrival* arrivals,
                                            size_t count) {
  // Event-countdown engine: one decrement per eventless arrival.
  in_batch_ = true;
  RearmAll();
  uint32_t* until = countdown_.until();
  for (size_t i = 0; i < count; ++i) {
    int site = arrivals[i].site;
    sim::CheckSiteInRange(site, options_.num_sites);
    if (--until[site] == 0) HandleEventArrival(site);
  }
  ResyncAllMidBatch();
  in_batch_ = false;
}

void RandomizedCountTracker::CountdownSites(const uint16_t* sites,
                                            size_t count) {
  in_batch_ = true;
  RearmAll();
  uint32_t* until = countdown_.until();
  const unsigned num_sites = static_cast<unsigned>(options_.num_sites);
  for (size_t i = 0; i < count; ++i) {
    unsigned site = sites[i];
    if (site >= num_sites) sim::CheckSiteInRange(static_cast<int>(site),
                                                 options_.num_sites);
    if (--until[site] == 0) HandleEventArrival(static_cast<int>(site));
  }
  ResyncAllMidBatch();
  in_batch_ = false;
}

// Count arrivals carry no payload, so a site's slice of a broadcast-free
// chunk is just a number: advance counter, coin process, and coarse
// tracker in eventless bulk, replaying each event arrival (coarse report
// or coin success) through the exact scalar order. The per-site coin
// stream is consumed at the same offsets as the countdown engine, and all
// cross-site coordinator effects inside the chunk are order-insensitive
// sums (reports fold into n' and the estimator's aggregates; the
// broadcast condition provably cannot trip), so the permutation is
// bit-invisible.
void RandomizedCountTracker::GroupedRun(int site, uint64_t count) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  while (count > 0) {
    uint64_t gap = NextEventGap(site);
    if (count < gap) {
      s.count += count;
      s.skip.ConsumeFailures(count);
      coarse_->ArriveRun(site, count);
      return;
    }
    uint64_t prefix = gap - 1;
    s.count += prefix;
    s.skip.ConsumeFailures(prefix);
    coarse_->ArriveRun(site, prefix);
    count -= gap;
    // The event arrival, in scalar order: coarse first, then the coin.
    ++s.count;
    coarse_->Arrive(site);
    if (s.skip.Next(&s.rng)) Report(site);
  }
}

void RandomizedCountTracker::ArriveBatch(const sim::Arrival* arrivals,
                                         size_t count) {
  if (!options_.use_skip_sampling) {
    for (size_t i = 0; i < count; ++i) {
      sim::CheckSiteInRange(arrivals[i].site, options_.num_sites);
      ArriveOne(arrivals[i].site);
    }
    return;
  }
  // n_ is advanced up front; nothing inside the batch reads it.
  n_ += count;
  if (!options_.use_site_grouping) {
    CountdownBatch(arrivals, count);
    return;
  }
  // Count arrivals cost ~1 cycle each, so the per-chunk work (histogram
  // reset, span build, safety check) is amortized over a larger chunk
  // than the keyed engines use; there is no scatter scratch to keep
  // cache-resident here.
  constexpr size_t kCountChunk = kSiteGroupChunk * 4;
  size_t pos = 0;
  while (pos < count) {
    size_t len = std::min(kCountChunk, count - pos);
    grouper_.CountArrivals(arrivals + pos, len, options_.num_sites);
    if (coarse_->BatchCannotBroadcast(grouper_.histogram())) {
      grouped_chunk_active_ = true;
      for (const SiteGrouper::Span& span : grouper_.spans()) {
        GroupedRun(span.site, span.length);
      }
      grouped_chunk_active_ = false;
    } else {
      CountdownBatch(arrivals + pos, len);
    }
    pos += len;
  }
}

void RandomizedCountTracker::ArriveSites(const uint16_t* sites,
                                         size_t count) {
  if (!options_.use_skip_sampling) {
    for (size_t i = 0; i < count; ++i) {
      sim::CheckSiteInRange(sites[i], options_.num_sites);
      ArriveOne(sites[i]);
    }
    return;
  }
  n_ += count;
  if (!options_.use_site_grouping) {
    CountdownSites(sites, count);
    return;
  }
  constexpr size_t kCountChunk = kSiteGroupChunk * 4;
  size_t pos = 0;
  while (pos < count) {
    size_t len = std::min(kCountChunk, count - pos);
    grouper_.CountSites(sites + pos, len, options_.num_sites);
    if (coarse_->BatchCannotBroadcast(grouper_.histogram())) {
      grouped_chunk_active_ = true;
      for (const SiteGrouper::Span& span : grouper_.spans()) {
        GroupedRun(span.site, span.length);
      }
      grouped_chunk_active_ = false;
    } else {
      CountdownSites(sites + pos, len);
    }
    pos += len;
  }
}

void RandomizedCountTracker::ShardEpochBegin(uint64_t arrivals_in_epoch) {
  if (shard_sinks_.empty()) {
    shard_sinks_.resize(static_cast<size_t>(options_.num_sites));
  }
  // Nothing inside a shard epoch reads n_; advancing it up front keeps
  // TrueCount() exact at the barrier, mirroring the batch engines.
  n_ += arrivals_in_epoch;
}

// One site's whole push slice, on a worker thread. The structure is the
// per-site projection of the serial event-countdown engine: eventless
// arrivals retire as bulk count advances + consumed coin failures, and
// each event arrival replays the exact scalar order (coarse first, then
// the coin) with coordinator effects deferred to the sink. A push that
// would broadcast is refused by the trial fold and unwound, so in every
// kept run the coin probability is frozen and the site's RNG stream is
// consumed at exactly the serial per-site offsets.
// disttrack-lint: allow(site-check) -- shard-internal: every id was
// validated by SiteGrouper (CheckSiteInRange aborts) before the epoch
// was partitioned onto workers; the worker replays a pre-checked span.
void RandomizedCountTracker::ShardArriveRun(int site, uint64_t count) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  ShardSink& sink = shard_sinks_[static_cast<size_t>(site)];
  while (count > 0) {
    uint64_t gap = NextEventGap(site);
    if (count < gap) {
      s.count += count;
      s.skip.ConsumeFailures(count);
      coarse_->AdvanceLocalNoReport(site, count);
      return;
    }
    uint64_t prefix = gap - 1;
    s.count += prefix;
    s.skip.ConsumeFailures(prefix);
    coarse_->AdvanceLocalNoReport(site, prefix);
    count -= gap;
    // The event arrival.
    ++s.count;
    if (uint64_t delta = coarse_->ArriveLocal(site)) {
      sink.coarse_deltas.push_back(delta);
    }
    if (s.skip.Next(&s.rng)) {
      // Deferred Report(site): the site-side value updates immediately,
      // the coordinator aggregates and the upload charge at the barrier.
      ++sink.report_messages;
      if (s.reported > 0) {
        sink.reported_sum_delta -= static_cast<int64_t>(s.reported);
      } else {
        ++sink.reported_count_delta;
      }
      s.reported = s.count;
      sink.reported_sum_delta += static_cast<int64_t>(s.count);
    }
  }
}

void RandomizedCountTracker::ShardSnapshotSite(int site,
                                               std::vector<uint64_t>* out) {
  out->clear();
  SerializeSiteState(site, out);
}

void RandomizedCountTracker::ShardRestoreSite(
    int site, const std::vector<uint64_t>& blob) {
  // The blob also reinstalls the round globals (1/p); no broadcast can
  // have fired between snapshot and restore (the trial fold refused), so
  // they are unchanged and the reinstall is a no-op.
  RestoreSiteState(site, blob);
}

bool RandomizedCountTracker::ShardTryEpochEnd() {
  uint64_t pending = 0;
  for (const ShardSink& sink : shard_sinks_) {
    for (uint64_t delta : sink.coarse_deltas) pending += delta;
  }
  if (coarse_->coordinator().WouldBroadcast(pending)) return false;
  for (int i = 0; i < options_.num_sites; ++i) {
    ShardSink& sink = shard_sinks_[static_cast<size_t>(i)];
    for (uint64_t delta : sink.coarse_deltas) {
      coarse_->ApplyDeferredReport(i, delta);
    }
    sink.coarse_deltas.clear();
    if (sink.report_messages > 0) {
      // disttrack-lint: allow(meter-tap) -- shard-fold: the serial
      // path charges and taps per message; the fold replays the
      // epoch's deferred charges in bulk, and taps never run on the
      // sharded path (only the serial runtimes install one).
      meter_.RecordUploadBulk(i, sink.report_messages, sink.report_messages);
      sink.report_messages = 0;
    }
    reported_sum_ = static_cast<uint64_t>(static_cast<int64_t>(reported_sum_) +
                                          sink.reported_sum_delta);
    reported_count_ = static_cast<uint64_t>(
        static_cast<int64_t>(reported_count_) + sink.reported_count_delta);
    sink.reported_sum_delta = 0;
    sink.reported_count_delta = 0;
  }
  return true;
}

void RandomizedCountTracker::ShardAbortEpoch(uint64_t arrivals) {
  n_ -= arrivals;
  for (ShardSink& sink : shard_sinks_) {
    sink.coarse_deltas.clear();
    sink.reported_sum_delta = 0;
    sink.reported_count_delta = 0;
    sink.report_messages = 0;
  }
}

double RandomizedCountTracker::EstimateCount() const {
  double inv_p = static_cast<double>(inv_p_);
  if (options_.naive_boundary_estimator) {
    // Ablation: apply n̂_i = n̄_i - 1 + 1/p to *every* site, treating a
    // missing report as n̄_i = 0. Each report-less site contributes the
    // bias (1/p - 1) the paper's two-case estimator avoids.
    double all = static_cast<double>(reported_sum_) +
                 static_cast<double>(options_.num_sites) * (inv_p - 1.0);
    return all;
  }
  return static_cast<double>(reported_sum_) +
         static_cast<double>(reported_count_) * (inv_p - 1.0);
}

}  // namespace count
}  // namespace disttrack
