// Site-grouped batch delivery: the shared permutation layer of the serial
// grouped engines (count, frequency, rank).
//
// All per-arrival randomness in the paper's trackers lives in independent
// per-site coin streams, and the only cross-site coupling is the
// CoarseTracker broadcast. Inside a batch that provably contains no
// broadcast (see CoarseTracker::BatchCannotBroadcast), arrivals can
// therefore be permuted into site-contiguous spans without changing a
// single coin draw: each site still sees its own arrivals in stream order
// and consumes its private RNG at the same per-site offsets.
// Processing one site's span end-to-end keeps that site's working set
// (counter table, run buffer, ladder, compactor nodes) cache-resident
// instead of thrashing k of them per cache line of the arrival stream.
//
// SiteGrouper is the reusable permutation: a stable scatter of one batch
// into per-site spans, with all scratch pooled across calls (a
// steady-state replay groups without allocating). Keyed trackers scatter
// the 8-byte keys in ONE pass over the batch (per-site pooled buffers;
// the histogram falls out of the buffer sizes, so the broadcast-safety
// check runs after the scatter and an unsafe chunk wastes only that one
// pass); the count tracker needs only the histogram — its spans are just
// counts.

#ifndef DISTTRACK_COMMON_SITE_GROUP_H_
#define DISTTRACK_COMMON_SITE_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "disttrack/sim/protocol.h"

namespace disttrack {

/// Chunk size of the grouped engines: large enough to amortize the O(k)
/// per-chunk work and the broadcast-safety check, small enough that the
/// scatter scratch (8 bytes/element keyed) stays cache-resident and an
/// unsafe chunk's countdown fallback stays fine-grained.
inline constexpr size_t kSiteGroupChunk = size_t{1} << 14;

/// Stable scatter of an arrival batch into per-site spans. One instance
/// per tracker; scratch buffers are reused across calls.
class SiteGrouper {
 public:
  /// One site's slice of the grouped batch, in that site's stream order.
  /// `data` points into pooled grouper storage (ScatterBySite only;
  /// null after the histogram-only passes) and stays valid until the
  /// next mutating call.
  struct Span {
    int site = 0;
    uint32_t length = 0;  // > 0 (empty sites produce no span)
    const uint64_t* data = nullptr;
  };

  /// Histogram + spans of a batch, payload left in place — the count
  /// tracker's whole grouping (its spans are plain counts). Aborts on
  /// out-of-range site ids (the delivery-path contract of
  /// sim::CheckSiteInRange).
  void CountArrivals(const sim::Arrival* arrivals, size_t count,
                     int num_sites);

  /// CountArrivals over a compact site stream.
  void CountSites(const uint16_t* sites, size_t count, int num_sites);

  /// One-pass keyed grouping: appends each arrival's key to its site's
  /// pooled buffer in stream order and derives histogram() and spans()
  /// from the result. Aborts on out-of-range site ids.
  void ScatterBySite(const sim::Arrival* arrivals, size_t count,
                     int num_sites);

  /// Per-site arrival counts of the last pass (num_sites entries).
  const uint32_t* histogram() const { return hist_.data(); }

  /// Spans of the last pass, ascending by site; empty sites are skipped.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  // Rebuilds spans_ from hist_ (keyed spans point into site_keys_).
  void BuildSpans(int num_sites, bool keyed);

  std::vector<uint32_t> hist_;
  std::vector<Span> spans_;
  std::vector<std::vector<uint64_t>> site_keys_;  // pooled scatter buffers
  // Raw write cursors into site_keys_ (cur/end per site): the scatter
  // inner loop costs one bounds compare and two stores, no vector
  // bookkeeping.
  std::vector<std::pair<uint64_t*, uint64_t*>> cursors_;
};

}  // namespace disttrack

#endif  // DISTTRACK_COMMON_SITE_GROUP_H_
