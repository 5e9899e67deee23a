#include "disttrack/service/site_half.h"

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"

namespace disttrack {
namespace service {

std::unique_ptr<SiteHalf> SiteHalf::Create(const ServiceOptions& options,
                                           int site) {
  switch (options.tracker) {
    case TrackerKind::kCount:
      return std::make_unique<
          sim::TrackerSite<count::RandomizedCountTracker, SiteHalf>>(
          options.CountOptions(), site);
    case TrackerKind::kFrequency:
      return std::make_unique<
          sim::TrackerSite<frequency::RandomizedFrequencyTracker, SiteHalf>>(
          options.FrequencyOptions(), site);
    case TrackerKind::kRank:
      return std::make_unique<
          sim::TrackerSite<rank::RandomizedRankTracker, SiteHalf>>(
          options.RankOptions(), site);
  }
  return nullptr;
}

}  // namespace service
}  // namespace disttrack
