// Abstract interfaces for the three continuous tracking problems (§1.2).
//
// Every concrete protocol — deterministic, randomized, or sampling-based —
// implements one of these, so experiment harnesses, boosters, and examples
// are written once against the interface.
//
// The simulation contract mirrors the model of §1.1: Arrive() delivers one
// stream element to a site; all communication triggered by that arrival
// completes (instantly) before Arrive() returns; estimates may be read at
// any time between arrivals.

#ifndef DISTTRACK_SIM_PROTOCOL_H_
#define DISTTRACK_SIM_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/space_gauge.h"

namespace disttrack {
namespace sim {

/// One stream arrival: an element (item id or value, unused for counting)
/// delivered to a site.
struct Arrival {
  int site = 0;
  uint64_t key = 0;
};

/// Aborts with a diagnostic unless `site` is a valid site id. An id >= k
/// would index per-site state out of bounds, so every replay delivery
/// path validates before touching tracker state (same contract as the
/// checkpoint_factor check in sim/cluster.cc).
inline void CheckSiteInRange(int site, int num_sites) {
  if (site < 0 || site >= num_sites) {
    std::fprintf(stderr,
                 "disttrack: arrival site %d out of range [0, %d)\n", site,
                 num_sites);
    std::abort();
  }
}

/// Count-tracking (§2): maintain n = Σ nᵢ within ±εn.
class CountTrackerInterface {
 public:
  virtual ~CountTrackerInterface() = default;

  /// One element arrives at `site` (0-based, < num_sites).
  virtual void Arrive(int site) = 0;

  /// Delivers `count` arrivals in order. Semantically identical to calling
  /// Arrive() once per element; exists so that replay loops pay one virtual
  /// dispatch per batch instead of per element, and so that trackers with a
  /// cheap inlinable per-element path (skip sampling) can expose it.
  virtual void ArriveBatch(const Arrival* arrivals, size_t count) {
    int k = meter().num_sites();
    for (size_t i = 0; i < count; ++i) {
      CheckSiteInRange(arrivals[i].site, k);
      Arrive(arrivals[i].site);
    }
  }

  /// Batched delivery of a pure site stream. Count arrivals carry no key,
  /// so a 2-byte site id is the natural arrival record — an 8x smaller
  /// stream than Arrival[], which matters once the tracker's per-element
  /// work drops below memory-streaming cost (the skip-sampling fast path
  /// does). Semantically identical to Arrive(sites[i]) in order.
  virtual void ArriveSites(const uint16_t* sites, size_t count) {
    int k = meter().num_sites();
    for (size_t i = 0; i < count; ++i) {
      CheckSiteInRange(sites[i], k);
      Arrive(sites[i]);
    }
  }

  /// The coordinator's current estimate n̂ of the global count.
  virtual double EstimateCount() const = 0;

  /// Ground-truth n, maintained by the harness side for evaluation only.
  virtual uint64_t TrueCount() const = 0;

  /// Communication spent so far.
  virtual const CommMeter& meter() const = 0;

  /// Per-site working-space watermark.
  virtual const SpaceGauge& space() const = 0;
};

/// Frequency-tracking (§3): maintain every item frequency within ±εn.
class FrequencyTrackerInterface {
 public:
  virtual ~FrequencyTrackerInterface() = default;

  /// One copy of `item` arrives at `site`.
  virtual void Arrive(int site, uint64_t item) = 0;

  /// Batched Arrive(); see CountTrackerInterface::ArriveBatch.
  virtual void ArriveBatch(const Arrival* arrivals, size_t count) {
    int k = meter().num_sites();
    for (size_t i = 0; i < count; ++i) {
      CheckSiteInRange(arrivals[i].site, k);
      Arrive(arrivals[i].site, arrivals[i].key);
    }
  }

  /// The coordinator's estimate f̂ⱼ of item `item`'s global frequency.
  /// May be negative for rare items (the unbiased estimator (4) of §3.1).
  virtual double EstimateFrequency(uint64_t item) const = 0;

  /// Ground-truth n (total arrivals), for evaluation.
  virtual uint64_t TrueCount() const = 0;

  virtual const CommMeter& meter() const = 0;
  virtual const SpaceGauge& space() const = 0;
};

/// Rank-tracking (§4): maintain the rank of any x within ±εn.
/// Values live in a totally ordered integer universe; rank(x) counts
/// elements strictly smaller than x (duplicates allowed by the harness and
/// counted with multiplicity).
class RankTrackerInterface {
 public:
  virtual ~RankTrackerInterface() = default;

  /// One element with value `value` arrives at `site`.
  virtual void Arrive(int site, uint64_t value) = 0;

  /// Batched Arrive(); see CountTrackerInterface::ArriveBatch.
  virtual void ArriveBatch(const Arrival* arrivals, size_t count) {
    int k = meter().num_sites();
    for (size_t i = 0; i < count; ++i) {
      CheckSiteInRange(arrivals[i].site, k);
      Arrive(arrivals[i].site, arrivals[i].key);
    }
  }

  /// The coordinator's estimate of |{y in stream : y < value}|.
  virtual double EstimateRank(uint64_t value) const = 0;

  /// Ground-truth n (total arrivals), for evaluation.
  virtual uint64_t TrueCount() const = 0;

  virtual const CommMeter& meter() const = 0;
  virtual const SpaceGauge& space() const = 0;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_PROTOCOL_H_
