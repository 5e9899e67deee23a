#include "disttrack/count/randomized_count.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

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

CountSite::CountSite(const RandomizedCountOptions& options, int site)
    : options_(options),
      rng_(options.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(site)),
      site_(site) {
  skip_.ResetPow2(log2_inv_p_, &rng_);
}

template <typename Port>
void CountSite::Arrive(uint64_t /*key*/, Port& port) {
  // The coarse tracker may broadcast here, halving p before this arrival's
  // coin is consumed — the skip redraw (or the flip below) then uses the
  // up-to-date p.
  if (uint64_t delta = coarse_.Arrive()) port.CoarseReport(site_, delta);
  bool hit = options_.use_skip_sampling
                 ? skip_.Next(&rng_)
                 : rng_.Bernoulli(1.0 / static_cast<double>(inv_p()));
  if (hit) {
    reported_ = coarse_.count;
    port.Report(sim::wire::MsgType::kCoinReport, site_, reported_);
  }
}

// At each halving of p, a site holding a report keeps it with probability
// 1/2 (Bernoulli-process thinning), otherwise walks n̄_i down one position
// per failed Bernoulli(p_new) coin until a success or zero, and tells the
// coordinator. A halved p invalidates the outstanding skip, which encodes
// a gap of the *old* coin process; unconsumed coins are independent of
// everything observed, so one redraw at the final p is exact (see
// skip_sampler.h), however many halvings there were.
template <typename Port>
void CountSite::Ritual(uint64_t n_bar, Port& port) {
  const uint64_t new_inv_p = options_.InvP(n_bar);
  if (inv_p() >= new_inv_p) return;
  while (inv_p() < new_inv_p) {
    ++log2_inv_p_;
    if (reported_ == 0 || rng_.Bernoulli(0.5)) continue;
    uint64_t failures =
        rng_.GeometricFailures(1.0 / static_cast<double>(inv_p()));
    reported_ = failures >= reported_ - 1 ? 0 : reported_ - 1 - failures;
    port.Report(sim::wire::MsgType::kCorrection, site_, reported_);
  }
  if (options_.use_skip_sampling) skip_.ResetPow2(log2_inv_p_, &rng_);
}

template void CountSite::Arrive(uint64_t, CountSite::TapPort&);
template void CountSite::Ritual(uint64_t, CountSite::TapPort&);

void CountSite::Serialize(std::vector<uint64_t>* out) const {
  uint64_t words[kBlobWords];
  words[0] = static_cast<uint64_t>(log2_inv_p_);
  coarse_.Save(words + 1);
  uint64_t* w = words + 1 + CoarseSite::kWords;
  w[0] = reported_;
  skip_.Save(w + 1);
  rng_.SaveState(w + 3);
  out->insert(out->end(), words, words + kBlobWords);
}

bool CountSite::Restore(const std::vector<uint64_t>& blob) {
  if (blob.size() != kBlobWords || blob[0] >= 64) return false;
  log2_inv_p_ = static_cast<int>(blob[0]);
  coarse_.Restore(blob.data() + 1);
  const uint64_t* w = blob.data() + 1 + CoarseSite::kWords;
  reported_ = w[0];
  skip_.Restore(w + 1);
  rng_.RestoreState(w + 3);
  return true;
}

RandomizedCountTracker::RandomizedCountTracker(
    const RandomizedCountOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      coarse_(&meter_),
      agg_(options.num_sites, options.naive_boundary_estimator) {
  sites_.reserve(static_cast<size_t>(options_.num_sites));
  for (int i = 0; i < options_.num_sites; ++i) {
    sites_.emplace_back(options_, i);
    // O(1) site state: counter, last report, doubling threshold, 1/p copy,
    // plus the skip countdown on the fast path.
    space_.Set(i, options_.use_skip_sampling ? 5 : 4);
  }
  coarse_.AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
  countdown_.Resize(options_.num_sites);
}

double RandomizedCountTracker::p() const {
  return 1.0 / static_cast<double>(agg_.inv_p());
}

struct RandomizedCountTracker::DirectPort {
  RandomizedCountTracker* t;
  void CoarseReport(int site, uint64_t delta) {
    t->coarse_.Report(site, delta);
  }
  void Report(sim::wire::MsgType type, int site, uint64_t value) {
    t->meter_.RecordUpload(site, 1);
    t->agg_.Set(site, value);
    sim::wire::Emit(t->tap_, type, site, t->coarse_.round(), value);
  }
};

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
  // Mid-batch, the countdowns were scheduled from the old skips: flush
  // them before the rituals redraw, and re-arm after.
  if (in_batch_) ResyncAllMidBatch();
  // The re-randomization ritual, at every site (§2.1). The broadcast that
  // told sites the new n̄ was already charged by CoarseTracker; the
  // corrections are charged by the port.
  DirectPort port{this};
  for (CountSite& site : sites_) site.Ritual(n_bar, port);
  agg_.BeginRound(options_.InvP(n_bar));
  if (in_batch_) RearmAll();
}

void RandomizedCountTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_.set_wire_tap(tap);
}

inline void RandomizedCountTracker::ArriveOne(int site) {
  ++n_;
  DirectPort port{this};
  sites_[static_cast<size_t>(site)].Arrive(0, port);
}

void RandomizedCountTracker::Arrive(int site) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ArriveOne(site);
}

void RandomizedCountTracker::RearmSite(int site) {
  countdown_.Arm(site, sites_[static_cast<size_t>(site)].NextEventGap());
}

void RandomizedCountTracker::RearmAll() {
  for (int i = 0; i < options_.num_sites; ++i) RearmSite(i);
}

// Flushes every site's consumed-but-unreconciled arrivals, which are
// eventless by construction. Called when a mid-batch broadcast is about
// to redraw the skips (the countdowns encode coin gaps of the old p) and
// at batch end.
void RandomizedCountTracker::ResyncAllMidBatch() {
  for (int i = 0; i < options_.num_sites; ++i) {
    uint64_t consumed = countdown_.Outstanding(i);
    countdown_.Reconcile(i);
    sites_[static_cast<size_t>(i)].AdvanceNoEvent(consumed);
  }
}

// The countdown for `site` hit zero: reconcile the eventless prefix of its
// stride, then take the site step for the current arrival.
void RandomizedCountTracker::HandleEventArrival(int site) {
  // TakeEventPrefix marks the site fully reconciled before coarse is
  // touched: if this arrival broadcasts, ResyncAllMidBatch must see zero
  // outstanding arrivals here.
  CountSite& s = sites_[static_cast<size_t>(site)];
  s.AdvanceNoEvent(countdown_.TakeEventPrefix(site));
  DirectPort port{this};
  s.Arrive(0, port);
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
  CountSite& s = sites_[static_cast<size_t>(site)];
  while (count > 0) {
    uint64_t gap = s.NextEventGap();
    if (count < gap) {
      s.AdvanceNoEvent(count);
      return;
    }
    s.AdvanceNoEvent(gap - 1);
    count -= gap;
    s.Arrive(0, port);
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
        coarse_.BatchCannotBroadcast(sites_, grouper_.histogram())) {
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
