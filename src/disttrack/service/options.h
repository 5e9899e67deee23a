// Shared configuration for the multi-process service: one ServiceOptions
// struct drives the coordinator daemon, every site process, and the demo
// parent. All three parse the same flags and must agree — kJoin carries
// OptionsHash() and the coordinator rejects a mismatched site, so a fleet
// can never silently mix epsilons or seeds.
//
// The synthetic workload is defined HERE, not shipped: site i derives its
// own arrival keys from (seed, i, index) with a stateless mixer, and the
// demo parent re-derives the same keys when it rebuilds the effective
// serial order from the coordinator's run journal. Deterministic input
// from three integers is what makes the distributed-vs-serial
// differential possible without moving the workload over the wire.

#ifndef DISTTRACK_SERVICE_OPTIONS_H_
#define DISTTRACK_SERVICE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/site_core.h"

namespace disttrack {
namespace service {

enum class TrackerKind : uint64_t { kCount = 0, kFrequency = 1, kRank = 2 };

enum class RunMode : uint64_t {
  /// The coordinator serializes execution into granted runs: exactly one
  /// site advances at a time, and the journaled grant order IS the
  /// effective global arrival order. Estimates are bit-identical to a
  /// serial tracker replaying that order (determinism tier A).
  kLockstep = 0,
  /// Sites stream concurrently, pausing only for per-report broadcast
  /// decisions. The effective interleaving is scheduling-dependent, so
  /// the guarantee is the paper's ε-accuracy, not bit-equality
  /// (determinism tier C; docs/ARCHITECTURE.md).
  kFreerun = 1,
};

struct ServiceOptions {
  TrackerKind tracker = TrackerKind::kCount;
  RunMode mode = RunMode::kLockstep;
  int num_sites = 8;
  double epsilon = 0.05;
  uint64_t seed = 1;
  uint64_t total_arrivals = 100000;  ///< across all sites
  uint64_t universe = 1 << 20;       ///< key / value domain
  uint64_t grant_max = 2048;         ///< lockstep run size cap
  uint64_t snapshot_every = 0;       ///< site arrivals between snapshots
                                     ///< (0 = no snapshots)

  /// FNV-1a over every field that must match fleet-wide (kJoin.b).
  uint64_t Hash() const;

  count::RandomizedCountOptions CountOptions() const;
  frequency::RandomizedFrequencyOptions FrequencyOptions() const;
  rank::RandomizedRankOptions RankOptions() const;

  /// Parses one `--name=value` service flag into `*this`; false if the
  /// flag is not a service option (caller handles or rejects it).
  bool ParseFlag(const std::string& arg, std::string* error);
};

const char* TrackerKindName(TrackerKind kind);
const char* RunModeName(RunMode mode);

/// Arrivals assigned to `site`: an even split of total_arrivals with the
/// remainder spread over the lowest site ids.
uint64_t ShardSize(const ServiceOptions& options, int site);

/// The `index`-th key (frequency item / rank value / ignored for count)
/// of site `site`'s shard. Stateless: mixes (seed, site, index). The
/// frequency stream is skewed — 3/4 of arrivals land on a 16-item hot
/// set — so heavy hitters exist for the query API to find; rank values
/// are uniform over the universe.
uint64_t WorkloadKey(const ServiceOptions& options, int site, uint64_t index);

// --- Site snapshot files --------------------------------------------------
// A site's durable state between crashes: the SiteCore snapshot (tracker
// blob, which includes the round-scoped globals, plus the channel cursors
// needed to splice back into the coordinator's sequence spaces), tagged
// with the fleet and the site. Written atomically (tmp + rename); a torn
// write is detected by the trailing checksum and treated as no-snapshot
// (fresh start).

struct SiteSnapshot : sim::SiteCore::Snapshot {
  uint64_t options_hash = 0;
  int site = -1;
};

/// Default snapshot path for a site under `dir`.
std::string SnapshotPath(const std::string& dir, int site);

bool WriteSnapshotFile(const std::string& path, const SiteSnapshot& snapshot,
                       std::string* error);

/// False if the file is missing, torn, or from a different options hash
/// (all three mean "start fresh").
bool ReadSnapshotFile(const std::string& path, uint64_t expected_hash,
                      SiteSnapshot* out);

}  // namespace service
}  // namespace disttrack

#endif  // DISTTRACK_SERVICE_OPTIONS_H_
