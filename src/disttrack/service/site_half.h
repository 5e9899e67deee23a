// The site half of a tracker, as a kind-erased host over the three
// tracker classes' crash-replay seam. The seam has one signature on all
// three trackers, so one class template (site_half.cc) hosts each kind.
//
// A site process hosts a real tracker but drives exactly one site of it,
// in crash-replay mode permanently: ReplayCrashArrive advances only
// site-local state (counters, RNG/skip streams, coarse thresholds) and
// re-emits every protocol frame through the wire tap, while every
// coordinator-side effect (n', rounds, meter, estimator aggregates) is
// suppressed — those live in the coordinator's replicas (sim/replica.h).
// Round rituals arrive from outside as ApplyRitual calls, either
// mid-arrival (from inside the tap, for the site's own triggering report
// — the trackers emit the coarse report *before* consuming any
// p-dependent randomness, so a reentrant ritual lands at the exact
// program point the serial execution performs it) or between arrivals
// (another site triggered the round).
//
// This is the same seam the fault harness replays crashes through, which
// is what makes the distributed execution comparable to the serial
// tracker bit for bit (robust_cluster.h proves the seam; the service
// demo and tests/service_*.cc prove the daemon).

#ifndef DISTTRACK_SERVICE_SITE_HALF_H_
#define DISTTRACK_SERVICE_SITE_HALF_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/service/options.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {

class SiteHalf {
 public:
  /// Builds the tracker for options.tracker and enters permanent replay
  /// mode for `site` (rank trackers in detached-replay mode).
  static std::unique_ptr<SiteHalf> Create(const ServiceOptions& options,
                                          int site);
  virtual ~SiteHalf() = default;

  /// Installs the frame sink. Every protocol message of this site is
  /// delivered to the tap at its §1.1 send instant, including frames
  /// emitted from inside ApplyRitual (thinning corrections).
  virtual void set_wire_tap(sim::wire::WireTap* tap) = 0;

  /// One arrival of this site's stream (key: item / value / ignored).
  virtual void Arrive(uint64_t key) = 0;

  /// Per-site half of the round ritual for a broadcast carrying n̄.
  /// Callable between arrivals or reentrantly from the tap's
  /// kCoarseReport delivery (see header comment).
  virtual void ApplyRitual(uint64_t n_bar) = 0;

  virtual bool SnapshotReady() const = 0;
  virtual void Serialize(std::vector<uint64_t>* out) const = 0;
  virtual void Restore(const std::vector<uint64_t>& blob) = 0;
};

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_SITE_HALF_H_
