// The service's site half: sim::SiteHalf (sim/site_core.h) built from a
// fleet's ServiceOptions. A site process hosts a real k-site tracker and
// drives exactly one site of it through the trackers' replay port, inside
// the one site protocol, sim::SiteCore; the fault harness hosts the same
// halves (robust_cluster.h), so the storms prove the seam the daemon
// runs (the service demo and tests/service_*.cc prove the daemon).

#ifndef DISTTRACK_SERVICE_SITE_HALF_H_
#define DISTTRACK_SERVICE_SITE_HALF_H_

#include <memory>

#include "disttrack/service/options.h"
#include "disttrack/sim/site_core.h"

namespace disttrack {
namespace service {

class SiteHalf : public sim::SiteHalf {
 public:
  /// Builds the tracker for options.tracker; this host drives `site`.
  static std::unique_ptr<SiteHalf> Create(const ServiceOptions& options,
                                          int site);
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_HALF_H_
