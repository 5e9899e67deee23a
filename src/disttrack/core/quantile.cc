#include "disttrack/core/quantile.h"

#include <algorithm>

namespace disttrack {
namespace core {

uint64_t QuantileFromRank(const sim::RankTrackerInterface& tracker,
                          double phi, uint64_t universe) {
  if (universe == 0) return 0;
  double target =
      std::clamp(phi, 0.0, 1.0) * static_cast<double>(tracker.TrueCount());
  // The smallest x whose inclusive rank reaches target.
  return QuantileSearch(universe - 1, target, [&tracker](uint64_t x) {
    return tracker.EstimateRank(x + 1);
  });
}

std::vector<uint64_t> QuantilesFromRank(
    const sim::RankTrackerInterface& tracker, const std::vector<double>& phis,
    uint64_t universe) {
  std::vector<uint64_t> out;
  out.reserve(phis.size());
  for (double phi : phis) {
    out.push_back(QuantileFromRank(tracker, phi, universe));
  }
  return out;
}

double FrequencyFromRank(const sim::RankTrackerInterface& tracker,
                         uint64_t value) {
  double above = tracker.EstimateRank(value + 1);
  double below = tracker.EstimateRank(value);
  return above - below;
}

}  // namespace core
}  // namespace disttrack
