#include "disttrack/count/deterministic_count.h"

#include <cmath>

namespace disttrack {
namespace count {

Status DeterministicCountOptions::Validate() const {
  if (num_sites < 1) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  return Status::OK();
}

DeterministicCountTracker::DeterministicCountTracker(
    const DeterministicCountOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)) {
  // Two words of per-site state: the counter and the last-reported value.
  for (int i = 0; i < options_.num_sites; ++i) space_.Set(i, 2);
}

void DeterministicCountTracker::Arrive(int site) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ++n_;
  SiteState& s = sites_[static_cast<size_t>(site)];
  ++s.count;
  double threshold =
      static_cast<double>(s.last_reported) * (1.0 + options_.epsilon / 2.0);
  if (s.last_reported == 0 || static_cast<double>(s.count) >= threshold) {
    meter_.RecordUpload(site, 1);
    reported_sum_ += s.count - s.last_reported;
    s.last_reported = s.count;
  }
}

double DeterministicCountTracker::EstimateCount() const {
  return static_cast<double>(reported_sum_);
}

}  // namespace count
}  // namespace disttrack
