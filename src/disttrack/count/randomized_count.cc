#include "disttrack/count/randomized_count.h"

#include <cmath>

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

// Count arrivals carry no payload, so a run is just a number. The site
// consumes its coin stream at the same offsets as per-arrival Arrive().
template <typename Port>
void CountSite::ArriveRun(const uint64_t* /*keys*/, size_t n, Port& port) {
  if (!options_.use_skip_sampling) {
    for (size_t i = 0; i < n; ++i) Arrive(0, port);
    return;
  }
  uint64_t left = n;
  while (left > 0) {
    uint64_t gap = NextEventGap();
    if (left < gap) {
      AdvanceNoEvent(left);
      return;
    }
    AdvanceNoEvent(gap - 1);
    left -= gap;
    Arrive(0, port);
  }
}

template void CountSite::ArriveRun(const uint64_t*, size_t,
                                   CountSite::TapPort&);
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
  // The re-randomization ritual, at every site (§2.1). The broadcast that
  // told sites the new n̄ was already charged by CoarseTracker; the
  // corrections are charged by the port.
  DirectPort port{this};
  for (CountSite& site : sites_) site.Ritual(n_bar, port);
  agg_.BeginRound(options_.InvP(n_bar));
}

void RandomizedCountTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_.set_wire_tap(tap);
}

void RandomizedCountTracker::Arrive(int site) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ++n_;
  DirectPort port{this};
  sites_[static_cast<size_t>(site)].Arrive(0, port);
}

template <typename Input, typename Count>
void RandomizedCountTracker::DeliverGrouped(const Input* input, size_t count,
                                            Count&& count_chunk) {
  // n_ is advanced up front; nothing inside the batch reads it.
  n_ += count;
  // Count arrivals cost ~1 cycle each, so the per-chunk work (histogram
  // reset, span build, safety check) is amortized over a larger chunk
  // than the keyed trackers use; there is no scatter scratch to keep
  // cache-resident here.
  coarse_.DeliverChunks(
      sites_, input, count, kSiteGroupChunk * 4, nullptr,
      [&](const Input* chunk, size_t len) {
        count_chunk(chunk, len);
        return grouper_.histogram();
      },
      [this] {
        // A site's slice of a grouped chunk is just a count; inside the
        // chunk every cross-site coordinator effect is an
        // order-insensitive sum (reports fold into n' and the
        // aggregate), so the permutation is bit-invisible.
        DirectPort port{this};
        for (const SiteGrouper::Span& span : grouper_.spans()) {
          sites_[static_cast<size_t>(span.site)].ArriveRun(nullptr,
                                                          span.length, port);
        }
      });
}

void RandomizedCountTracker::ArriveBatch(const sim::Arrival* arrivals,
                                         size_t count) {
  DeliverGrouped(arrivals, count, [this](const sim::Arrival* in, size_t len) {
    grouper_.CountArrivals(in, len, options_.num_sites);
  });
}

void RandomizedCountTracker::ArriveSites(const uint16_t* sites,
                                         size_t count) {
  DeliverGrouped(sites, count, [this](const uint16_t* in, size_t len) {
    grouper_.CountSites(in, len, options_.num_sites);
  });
}

double RandomizedCountTracker::EstimateCount() const {
  return agg_.Estimate();
}

}  // namespace count
}  // namespace disttrack
