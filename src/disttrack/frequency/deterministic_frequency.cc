#include "disttrack/frequency/deterministic_frequency.h"

#include <algorithm>
#include <cmath>

#include "disttrack/common/ordered_drain.h"

namespace disttrack {
namespace frequency {

Status DeterministicFrequencyOptions::Validate() const {
  if (num_sites < 1) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  return Status::OK();
}

DeterministicFrequencyTracker::DeterministicFrequencyTracker(
    const DeterministicFrequencyOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)),
      sketch_capacity_(static_cast<size_t>(
          std::ceil(4.0 / options.epsilon))) {
  for (auto& s : sites_) {
    s.sketch = std::make_unique<summaries::MisraGries>(sketch_capacity_);
  }
  coarse_ = std::make_unique<count::CoarseTracker>(&meter_);
  coarse_->AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
}

void DeterministicFrequencyTracker::UpdateSpace(int site) {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  // The site stores the sketch plus the last-reported values it mirrors.
  space_.Set(site, s.sketch->SpaceWords() + 2 * s.mirror.size() + 2);
}

void DeterministicFrequencyTracker::MaybeReport(int site, uint64_t item) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t current = s.sketch->Estimate(item);
  auto it = s.mirror.find(item);
  uint64_t reported = it == s.mirror.end() ? 0 : it->second;
  uint64_t drift =
      current >= reported ? current - reported : reported - current;
  if (drift < drift_threshold_) return;

  // Site -> coordinator: (item, new counter value).
  meter_.RecordUpload(site, 2);
  live_totals_[item] +=
      static_cast<int64_t>(current) - static_cast<int64_t>(reported);
  if (current == 0) {
    if (it != s.mirror.end()) s.mirror.erase(it);
  } else if (it == s.mirror.end()) {
    s.mirror.emplace(item, current);
  } else {
    it->second = current;
  }
}

void DeterministicFrequencyTracker::SweepAfterDecrement(int site) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  // A decrement-all event changed every tracked counter; also, counters may
  // have been evicted entirely. Check every mirrored or tracked item once,
  // in item order: the sweep emits site->coordinator reports, so its visit
  // order is message order and must not depend on the mirror's hash layout.
  std::vector<uint64_t> to_check = common::SortedKeys(s.mirror);
  for (const auto& [item, _] : s.sketch->Items()) to_check.push_back(item);
  std::sort(to_check.begin(), to_check.end());
  to_check.erase(std::unique(to_check.begin(), to_check.end()),
                 to_check.end());
  for (uint64_t item : to_check) MaybeReport(site, item);
}

void DeterministicFrequencyTracker::Arrive(int site, uint64_t item) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ++n_;
  SiteState& s = sites_[static_cast<size_t>(site)];
  coarse_->Arrive(site, &s.coarse);
  uint64_t dec_before = s.sketch->UndercountBound();
  s.sketch->Insert(item);
  if (s.sketch->UndercountBound() != dec_before) {
    s.decrement_events_seen = s.sketch->UndercountBound();
    SweepAfterDecrement(site);
  } else {
    MaybeReport(site, item);
  }
  UpdateSpace(site);
}

void DeterministicFrequencyTracker::FlushSite(int site) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  // Report every item whose mirror is stale, so the completed round is
  // recorded exactly as the sketch saw it.
  std::vector<uint64_t> to_check = common::SortedKeys(s.mirror);
  for (const auto& [item, _] : s.sketch->Items()) to_check.push_back(item);
  std::sort(to_check.begin(), to_check.end());
  to_check.erase(std::unique(to_check.begin(), to_check.end()),
                 to_check.end());
  for (uint64_t item : to_check) {
    uint64_t current = s.sketch->Estimate(item);
    auto it = s.mirror.find(item);
    uint64_t reported = it == s.mirror.end() ? 0 : it->second;
    if (current == reported) continue;
    meter_.RecordUpload(site, 2);
    live_totals_[item] +=
        static_cast<int64_t>(current) - static_cast<int64_t>(reported);
  }
  s.mirror.clear();
  s.sketch->Clear();
  s.decrement_events_seen = 0;
}

void DeterministicFrequencyTracker::OnBroadcast(uint64_t /*round*/,
                                                uint64_t n_bar) {
  // Close the previous round: flush all sites, fold live totals into the
  // frozen per-item sums, and open a fresh round with the new threshold.
  for (int i = 0; i < options_.num_sites; ++i) FlushSite(i);
  // Item-order fold (the additions commute, but draining in hash order
  // would still leak layout into frozen_'s growth history for free).
  for (const auto& [item, total] : common::SortedItems(live_totals_)) {
    if (total > 0) frozen_[item] += static_cast<uint64_t>(total);
  }
  live_totals_.clear();
  double t = options_.epsilon * static_cast<double>(n_bar) /
             (4.0 * static_cast<double>(options_.num_sites));
  drift_threshold_ = std::max<uint64_t>(1, static_cast<uint64_t>(t));
  for (int i = 0; i < options_.num_sites; ++i) UpdateSpace(i);
}

double DeterministicFrequencyTracker::EstimateFrequency(uint64_t item) const {
  double est = 0;
  auto fit = frozen_.find(item);
  if (fit != frozen_.end()) est += static_cast<double>(fit->second);
  auto lit = live_totals_.find(item);
  if (lit != live_totals_.end()) est += static_cast<double>(lit->second);
  return est;
}

}  // namespace frequency
}  // namespace disttrack
