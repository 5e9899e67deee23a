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

uint64_t RandomizedCountOptions::InvP(uint64_t n_bar) const {
  double scaled =
      epsilon * static_cast<double>(n_bar) /
      (confidence_factor * std::sqrt(static_cast<double>(num_sites)));
  if (scaled <= 1.0) return 1;
  return FloorPow2(scaled);
}

namespace {

int SiteOf(const sim::Arrival& arrival) { return arrival.site; }
int SiteOf(uint16_t site) { return site; }

void CountChunk(SiteGrouper* grouper, const sim::Arrival* arrivals,
                size_t count, int num_sites) {
  grouper->CountArrivals(arrivals, count, num_sites);
}
void CountChunk(SiteGrouper* grouper, const uint16_t* sites, size_t count,
                int num_sites) {
  grouper->CountSites(sites, count, num_sites);
}

}  // namespace

RandomizedCountTracker::RandomizedCountTracker(
    const RandomizedCountOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)),
      agg_(options.num_sites, options.naive_boundary_estimator) {
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

double RandomizedCountTracker::p() const {
  return 1.0 / static_cast<double>(inv_p_);
}

struct RandomizedCountTracker::DirectPort {
  RandomizedCountTracker* t;
  void CoarseArrive(int site) { t->coarse_->Arrive(site); }
  void Report(sim::wire::MsgType type, int site, uint64_t value) {
    t->meter_.RecordUpload(site, 1);
    t->agg_.Set(site, value);
    t->EmitTap(type, site, value);
  }
};

// Site-local state and the RNG stream advance exactly as in the serial
// execution; no n', round, meter or aggregate write happens.
struct RandomizedCountTracker::ReplayPort {
  RandomizedCountTracker* t;
  void CoarseArrive(int site) { t->coarse_->ReplayArrive(site); }
  void Report(sim::wire::MsgType type, int site, uint64_t value) {
    t->EmitTap(type, site, value);
  }
};

template <typename Port>
inline void RandomizedCountTracker::SiteEvent(int site, Port& port) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  ++s.count;
  // The coarse tracker may broadcast here, halving p before this arrival's
  // coin is consumed — the skip redraw (or the flip below) then uses the
  // up-to-date p.
  port.CoarseArrive(site);
  bool hit = options_.use_skip_sampling
                 ? s.skip.Next(&s.rng)
                 : s.rng.Bernoulli(1.0 / static_cast<double>(inv_p_));
  if (hit) {
    s.reported = s.count;
    port.Report(sim::wire::MsgType::kCoinReport, site, s.reported);
  }
}

// A site holding a report keeps it with probability 1/2 (Bernoulli-process
// thinning), otherwise walks n̄_i down one position per failed
// Bernoulli(p_new) coin until a success or zero, and tells the
// coordinator.
template <typename Port>
void RandomizedCountTracker::ThinSite(int site, double p_new, Port& port) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  if (s.reported == 0 || s.rng.Bernoulli(0.5)) return;
  uint64_t failures = s.rng.GeometricFailures(p_new);
  s.reported = failures >= s.reported - 1 ? 0 : s.reported - 1 - failures;
  port.Report(sim::wire::MsgType::kCorrection, site, s.reported);
}

template <typename Thin>
bool RandomizedCountTracker::HalveTo(uint64_t n_bar, Thin thin) {
  uint64_t new_inv_p = options_.InvP(n_bar);
  bool halved = inv_p_ < new_inv_p;
  while (inv_p_ < new_inv_p) {
    inv_p_ *= 2;
    ++log2_inv_p_;
    thin(1.0 / static_cast<double>(inv_p_));
  }
  return halved;
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
  // The re-randomization ritual, once per halving, at every site (§2.1).
  // The broadcast that told sites the new n̄ was already charged by
  // CoarseTracker; the corrections are charged by the port.
  DirectPort port{this};
  bool halved = HalveTo(n_bar, [&](double p_new) {
    for (int i = 0; i < options_.num_sites; ++i) ThinSite(i, p_new, port);
  });
  agg_.BeginRound(inv_p_);
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

void RandomizedCountTracker::ReplayCrashArrive(int site, uint64_t /*key*/) {
  ReplayPort port{this};
  SiteEvent(site, port);
}

void RandomizedCountTracker::ReplayCrashRitual(int site, uint64_t n_bar) {
  ReplayPort port{this};
  bool halved =
      HalveTo(n_bar, [&](double p_new) { ThinSite(site, p_new, port); });
  if (halved && options_.use_skip_sampling) {
    SiteState& s = sites_[static_cast<size_t>(site)];
    s.skip.ResetPow2(log2_inv_p_, &s.rng);
  }
}

inline void RandomizedCountTracker::ArriveOne(int site) {
  ++n_;
  DirectPort port{this};
  SiteEvent(site, port);
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
  coarse_->AdvanceLocalNoReport(site, consumed);
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
// stride, then take the site step for the current arrival.
void RandomizedCountTracker::HandleEventArrival(int site) {
  // TakeEventPrefix marks the site fully reconciled before coarse is
  // touched: if this arrival broadcasts, ResyncAllMidBatch must see zero
  // outstanding arrivals here.
  SyncEventless(site, countdown_.TakeEventPrefix(site));
  DirectPort port{this};
  SiteEvent(site, port);
  RearmSite(site);
}

template <typename Input>
void RandomizedCountTracker::CountdownChunk(const Input* input,
                                            size_t count) {
  // Event-countdown engine: one decrement per eventless arrival.
  in_batch_ = true;
  RearmAll();
  uint32_t* until = countdown_.until();
  for (size_t i = 0; i < count; ++i) {
    int site = SiteOf(input[i]);
    sim::CheckSiteInRange(site, options_.num_sites);
    if (--until[site] == 0) HandleEventArrival(site);
  }
  ResyncAllMidBatch();
  in_batch_ = false;
}

// Count arrivals carry no payload, so a site's slice of a chunk is just a
// number. The per-site coin stream is consumed at the same offsets as the
// countdown engine, and inside a grouped chunk no broadcast can fire and
// all cross-site coordinator effects are order-insensitive sums (reports
// fold into n' and the aggregate), so the permutation is bit-invisible.
void RandomizedCountTracker::RunSite(int site, uint64_t count) {
  DirectPort port{this};
  while (count > 0) {
    uint64_t gap = NextEventGap(site);
    if (count < gap) {
      SyncEventless(site, count);
      return;
    }
    SyncEventless(site, gap - 1);
    count -= gap;
    SiteEvent(site, port);
  }
}

template <typename Input>
void RandomizedCountTracker::DeliverChunks(const Input* input, size_t count) {
  // n_ is advanced up front; nothing inside the batch reads it.
  n_ += count;
  // Count arrivals cost ~1 cycle each, so the per-chunk work (histogram
  // reset, span build, safety check) is amortized over a larger chunk
  // than the keyed engines use; there is no scatter scratch to keep
  // cache-resident here.
  constexpr size_t kCountChunk = kSiteGroupChunk * 4;
  for (size_t pos = 0; pos < count; pos += kCountChunk) {
    size_t len = std::min(kCountChunk, count - pos);
    CountChunk(&grouper_, input + pos, len, options_.num_sites);
    if (grouped_enabled_ &&
        coarse_->BatchCannotBroadcast(grouper_.histogram())) {
      grouped_chunk_active_ = true;
      for (const SiteGrouper::Span& span : grouper_.spans()) {
        RunSite(span.site, span.length);
      }
      grouped_chunk_active_ = false;
    } else {
      CountdownChunk(input + pos, len);
    }
  }
}

void RandomizedCountTracker::ArriveBatch(const sim::Arrival* arrivals,
                                         size_t count) {
  if (options_.use_skip_sampling) {
    DeliverChunks(arrivals, count);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    sim::CheckSiteInRange(arrivals[i].site, options_.num_sites);
    ArriveOne(arrivals[i].site);
  }
}

void RandomizedCountTracker::ArriveSites(const uint16_t* sites,
                                         size_t count) {
  if (options_.use_skip_sampling) {
    DeliverChunks(sites, count);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    sim::CheckSiteInRange(sites[i], options_.num_sites);
    ArriveOne(sites[i]);
  }
}

double RandomizedCountTracker::EstimateCount() const {
  return agg_.Estimate();
}

}  // namespace count
}  // namespace disttrack
