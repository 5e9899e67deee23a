// Layer-alone replays for the traced run: each library layer driven by
// itself on the workload's own input, timed around the calls into it.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "disttrack/service/options.h"
#include "disttrack/sim/protocol.h"
#include "disttrack/sim/wire.h"

namespace perfbench {

/// Data-plane frames a fleet of SiteHalf instances (one per site) emits
/// for an arrival sequence. A CoarseMirror stands in for the
/// coordinator's broadcast decision. The trackers under test are never
/// tapped: a tapped tracker stays on the unbatched path.
struct FrameRecording {
  std::vector<disttrack::sim::wire::Message> frames;
  uint64_t arrivals = 0;
  double site_half_ns_per_arrival = 0;
};
FrameRecording RecordFrames(const disttrack::service::ServiceOptions& options,
                            const std::vector<disttrack::sim::Arrival>& input,
                            size_t count);

/// Per-frame costs of the wire, framing and replica layers on the
/// recorded frames, and the replica's query costs once they are applied.
struct WireCosts {
  bool ok = true;  ///< every frame decoded back
  double encode_ns_per_frame = 0;
  double decode_ns_per_frame = 0;  ///< includes the CRC
  double framing_ns_per_frame = 0;  ///< FrameReader Append + Next
  double apply_ns_per_frame = 0;
  double encoded_bytes = 0;
  double paper_words = 0;
  // Replica query costs (us per call); only the tracker's own kinds.
  double count_us = 0, point_us = 0, heavy_hitters_us = 0;
  double rank_us = 0, quantile_us = 0;
};
WireCosts ReplayWire(const disttrack::service::ServiceOptions& options,
                     const FrameRecording& recording);

/// Key-driven layers replayed on `count` arrivals of the workload.
struct KeyLayerCosts {
  double skip_ns_per_draw = 0;
  double site_group_ns_per_arrival = 0;      ///< keyed ScatterBySite
  double site_histogram_ns_per_arrival = 0;  ///< count's CountArrivals
  double counter_table_ns_per_key = 0;
  double countmin_ns_per_key = 0;  ///< the floor reference
  double compactor_ns_per_value = 0;
  double run_ladder_ns_per_value = 0;
  bool ok = true;  ///< CountMin never under-counts a tracked key
};
KeyLayerCosts ReplayKeyLayers(const std::vector<disttrack::sim::Arrival>& input,
                              size_t count, int num_sites, double epsilon,
                              double sample_p, int rank_height,
                              uint64_t seed);

/// Reports the `<tracker>.` metrics every workload derives the same way
/// from its frame recording: site_half, wire, framing and replica apply.
void AddRecordedLayerMetrics(Report* report, Tracker tracker,
                             const FrameRecording& recording,
                             const WireCosts& wire);

/// Reports the key-driven layer metrics (skip_sampler, site_group,
/// counter_table and its floor ratio, compactor, run_ladder).
void AddKeyLayerMetrics(Report* report, const KeyLayerCosts& costs);

/// kRankSummary frames per 1000 recorded arrivals, and their mean
/// number of summary values.
void RankSummaryStats(const FrameRecording& recording, double* per_karrival,
                      double* values_per_frame);

/// Median round trip of one grant-sized frame over a socketpair, in us
/// (negative on a socket error).
double SocketPingPongUs(int exchanges);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
