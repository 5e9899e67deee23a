// The service's site half: sim::SiteHalf (sim/site_core.h) built from a
// fleet's ServiceOptions. A site process hosts exactly one site class of
// its tracker (sim::HostedSite over count::CountSite,
// frequency::FrequencySite or rank::RankSite) inside the one site
// protocol, sim::SiteCore; its state does not grow with the fleet size.
// The fault harness hosts the same site classes (robust_cluster.h), so
// the storms prove the seam the daemon runs (the service demo and
// tests/service_*.cc prove the daemon).

#ifndef DISTTRACK_SERVICE_SITE_HALF_H_
#define DISTTRACK_SERVICE_SITE_HALF_H_

#include <memory>

#include "disttrack/service/options.h"
#include "disttrack/sim/site_core.h"

namespace disttrack {
namespace service {

class SiteHalf : public sim::SiteHalf {
 public:
  /// Builds site `site` of options.tracker's tracker.
  static std::unique_ptr<SiteHalf> Create(const ServiceOptions& options,
                                          int site);
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_HALF_H_
