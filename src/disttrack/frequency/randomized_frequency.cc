#include "disttrack/frequency/randomized_frequency.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "disttrack/common/math_util.h"

namespace disttrack {
namespace frequency {

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

FrequencySite::FrequencySite(const RandomizedFrequencyOptions& options,
                             int site)
    : rng_(options.seed * 0xA24BAED4963EE407ull + static_cast<uint64_t>(site)),
      options_(options),
      site_(site) {
  NewInstance();
  counter_skip_.ResetPow2(log2_inv_p_, &rng_);
  sample_skip_.ResetPow2(log2_inv_p_, &rng_);
}

template <typename Port>
void FrequencySite::Arrive(uint64_t item, Port& port) {
  if (uint64_t delta = coarse_.Arrive()) port.CoarseReport(site_, delta);

  // Virtual-site split: the (n̄/k + 1)-th element of a round starts a fresh
  // copy of the algorithm at this site (§3.1). p is unchanged, so the skip
  // counters stay valid across the split.
  if (options_.virtual_site_split && round_arrivals_ >= split_threshold_) {
    port.SplitNotify(site_);
    counters_.Clear();
    NewInstance();
    round_arrivals_ = 0;
    port.Space(*this);
  }
  ++round_arrivals_;

  // Each arrival consumes exactly one coin per channel: the counter
  // channel decides re-report (item tracked) or creation (item untracked);
  // the sampling channel decides forwarding (d_ij). Skip counters realize
  // the same two coin sequences with one decrement per miss.
  bool counter_hit, sample_hit;
  if (options_.use_skip_sampling) {
    counter_hit = counter_skip_.Next(&rng_);
    sample_hit = sample_skip_.Next(&rng_);
  } else {
    double cur_p = 1.0 / static_cast<double>(inv_p());
    counter_hit = rng_.Bernoulli(cur_p);
    sample_hit = rng_.Bernoulli(cur_p);
  }

  // Counter-list channel. The probe is only needed to route a hit and to
  // increment an existing counter; misses on untracked items touch no
  // coordinator state.
  if (uint64_t* value = counters_.Find(item)) {
    uint64_t fresh_value = ++*value;
    if (counter_hit) port.CounterReport(site_, item, instance_, fresh_value);
  } else if (counter_hit) {
    counters_.Insert(item, 1);
    // Setting cbar supersedes any sampled copies d of this instance: the
    // estimator reads d only while cbar == 0.
    port.CounterReport(site_, item, instance_, 1);
    port.Space(*this);  // the counter set grew; splits/rounds handle shrink
  }

  // Independent simple-random-sampling channel (d_ij).
  if (sample_hit) port.SampleForward(site_, item, instance_);
}

// Restart from scratch with the new parameters (§3.1 "Dealing with a
// decreasing p"); the closing round's terms are already in the
// coordinator's totals.
template <typename Port>
void FrequencySite::Ritual(uint64_t n_bar, Port& port) {
  log2_inv_p_ = FloorLog2(options_.InvP(n_bar));
  split_threshold_ = std::max<uint64_t>(
      1, n_bar / static_cast<uint64_t>(options_.num_sites));
  counters_.Clear();
  round_arrivals_ = 0;
  NewInstance();
  if (options_.use_skip_sampling) {
    // The new p invalidates outstanding skips (they encode old-p coin
    // gaps); redrawing is exact by independence of unconsumed coins.
    counter_skip_.ResetPow2(log2_inv_p_, &rng_);
    sample_skip_.ResetPow2(log2_inv_p_, &rng_);
  }
  port.Space(*this);
}

template <typename Port>
void FrequencySite::ArriveRun(const uint64_t* keys, size_t n, Port& port) {
  if (!options_.use_skip_sampling) {
    for (size_t i = 0; i < n; ++i) Arrive(keys[i], port);
    return;
  }
  size_t pos = 0;
  while (pos < n) {
    uint64_t eventless = std::min<uint64_t>(NextEventGap() - 1,
                                            static_cast<uint64_t>(n - pos));
    if (eventless > 0) {
      AdvanceNoEvent(keys + pos, static_cast<size_t>(eventless));
      pos += static_cast<size_t>(eventless);
    }
    if (pos >= n) break;
    Arrive(keys[pos], port);
    ++pos;
  }
}

template void FrequencySite::ArriveRun(const uint64_t*, size_t,
                                       FrequencySite::TapPort&);
template void FrequencySite::Ritual(uint64_t, FrequencySite::TapPort&);

uint64_t FrequencySite::NextEventGap() const {
  // Next event: the sooner of the two skip channels' successes, the
  // coarse report, and (when enabled) the virtual-site split.
  uint64_t gap = std::min(coarse_.arrivals_until_report(),
                          std::min(counter_skip_.pending_skips(),
                                   sample_skip_.pending_skips()) +
                              1);
  if (options_.virtual_site_split) {
    // The split fires on the arrival that *begins* past the threshold, so
    // the gap to it is one beyond the remaining headroom.
    uint64_t split_gap = round_arrivals_ < split_threshold_
                             ? split_threshold_ - round_arrivals_ + 1
                             : 1;
    gap = std::min(gap, split_gap);
  }
  return gap;
}

void FrequencySite::Serialize(std::vector<uint64_t>* out) const {
  uint64_t words[kHeaderWords];
  words[0] = static_cast<uint64_t>(log2_inv_p_);
  words[1] = split_threshold_;
  coarse_.Save(words + 2);
  uint64_t* w = words + 2 + count::CoarseSite::kWords;
  w[0] = instance_;
  w[1] = instance_seq_;
  w[2] = round_arrivals_;
  counter_skip_.Save(w + 3);
  sample_skip_.Save(w + 5);
  rng_.SaveState(w + 7);
  w[11] = counters_.size();
  out->insert(out->end(), words, words + kHeaderWords);
  // The sticky counter list, in key order: physical table order depends on
  // the insert history, so sorting makes the blob a function of the
  // site's state alone (the fault harness compares blobs word for word).
  // Restore rebuilds by Insert, which yields an observably identical
  // store regardless of layout.
  std::vector<std::pair<uint64_t, uint64_t>> counters;
  counters.reserve(counters_.size());
  counters_.ForEach([&counters](uint64_t key, uint64_t value) {
    counters.emplace_back(key, value);
  });
  std::sort(counters.begin(), counters.end());
  for (const auto& [key, value] : counters) {
    out->push_back(key);
    out->push_back(value);
  }
}

bool FrequencySite::Restore(const std::vector<uint64_t>& blob) {
  if (blob.size() < kHeaderWords || blob[0] >= 64) return false;
  const uint64_t* w = blob.data() + 2 + count::CoarseSite::kWords;
  const uint64_t pairs = w[11];
  if (pairs > (blob.size() - kHeaderWords) / 2 ||
      blob.size() != kHeaderWords + 2 * pairs) {
    return false;
  }
  log2_inv_p_ = static_cast<int>(blob[0]);
  split_threshold_ = blob[1];
  coarse_.Restore(blob.data() + 2);
  instance_ = w[0];
  instance_seq_ = static_cast<uint32_t>(w[1]);
  round_arrivals_ = w[2];
  counter_skip_.Restore(w + 3);
  sample_skip_.Restore(w + 5);
  rng_.RestoreState(w + 7);
  counters_.Clear();
  for (const uint64_t* pair = w + 12; pair != blob.data() + blob.size();
       pair += 2) {
    counters_.Insert(pair[0], pair[1]);
  }
  return true;
}

RandomizedFrequencyTracker::RandomizedFrequencyTracker(
    const RandomizedFrequencyOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      coarse_(&meter_),
      agg_(options.naive_boundary_estimator) {
  sites_.reserve(static_cast<size_t>(options_.num_sites));
  for (int i = 0; i < options_.num_sites; ++i) {
    sites_.emplace_back(options_, i);
    space_.Set(i, sites_.back().SpaceWords());
  }
  coarse_.AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
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
  void EmitTap(sim::wire::MsgType type, int site, uint64_t a, uint64_t b,
               uint64_t c, uint64_t words) {
    sim::wire::Emit(t->tap_, type, site, t->coarse_.round(), a, b, c, words);
  }
  void CoarseReport(int site, uint64_t delta) {
    t->coarse_.Report(site, delta);
  }
  void SplitNotify(int site) {
    t->meter_.RecordUpload(site, 1);
    ++t->splits_;
    EmitTap(sim::wire::MsgType::kSplitNotice, site, 0, 0, 0, 1);
  }
  void CounterReport(int site, uint64_t item, uint64_t instance,
                     uint64_t value) {
    t->meter_.RecordUpload(site, 2);
    t->pending_.push_back({item, instance, value});
    EmitTap(sim::wire::MsgType::kCounterReport, site, item, instance, value,
            2);
  }
  void SampleForward(int site, uint64_t item, uint64_t instance) {
    t->meter_.RecordUpload(site, 1);
    t->pending_.push_back({item, instance, 0});
    EmitTap(sim::wire::MsgType::kSampleForward, site, item, instance, 0, 1);
  }
  void Space(const FrequencySite& site) {
    t->space_.Set(site.id(), site.SpaceWords());
  }
};

void RandomizedFrequencyTracker::OnBroadcast(uint64_t /*round*/,
                                             uint64_t n_bar) {
  FrequencyAggregate::RequireExact(agg_.BeginRound(options_.InvP(n_bar)),
                                   "1/p");
  DirectPort port{this};
  for (FrequencySite& site : sites_) site.Ritual(n_bar, port);
}

void RandomizedFrequencyTracker::Arrive(int site, uint64_t item) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ++n_;
  DirectPort port{this};
  sites_[static_cast<size_t>(site)].Arrive(item, port);
  FlushPending();
}

void RandomizedFrequencyTracker::FlushPending() {
  agg_.ApplyBatch(pending_.data(), pending_.size());
  pending_.clear();
}

void RandomizedFrequencyTracker::ArriveBatch(const sim::Arrival* arrivals,
                                             size_t count) {
  // n_ is advanced up front; nothing inside the batch reads it. Each
  // chunk's spans are walked against their sites' counter tables in one
  // cache-resident pass, and the counter reports and samples they queue
  // apply after the spans in one prefetched batch (see DirectPort) —
  // always before a broadcasting arrival's round ends.
  n_ += count;
  coarse_.DeliverChunks(
      sites_, arrivals, count, kSiteGroupChunk, nullptr,
      [this](const sim::Arrival* chunk, size_t len) {
        grouper_.ScatterBySite(chunk, len, options_.num_sites);
        return grouper_.histogram();
      },
      [this] {
        DirectPort port{this};
        for (const SiteGrouper::Span& span : grouper_.spans()) {
          sites_[static_cast<size_t>(span.site)].ArriveRun(
              span.data, span.length, port);
        }
        FlushPending();
      });
}

double RandomizedFrequencyTracker::EstimateFrequency(uint64_t item) const {
  return agg_.Estimate(item);
}

void RandomizedFrequencyTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_.set_wire_tap(tap);
}

}  // namespace frequency
}  // namespace disttrack
