// Snapshot round-trip property tests for all three trackers: a site's
// Serialize / Restore must be a lossless round trip of everything that
// influences future behavior — counters, report state, RNG and
// skip-sampler streams, the site's copy of the round parameters.
//
// Protocol: run two trackers with identical options over the same
// workload (bit-identical state), then at several cut points serialize
// every ready site from one and restore the blob into the *other*. If the
// blob is complete and restore is exact, the twins stay bit-identical for
// the rest of the stream: same estimates at every later checkpoint, same
// paper traffic, and re-serializing yields the same blob.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/workload.h"

namespace disttrack {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Drives twin trackers through `workload`, cross-restoring snapshots at
/// every cut in `cuts` (pending until each site reports ready), asserting
/// `estimate` stays bit-identical throughout.
template <typename Tracker>
void RunTwinTest(Tracker& primary, Tracker& twin, const sim::Workload& workload,
                 const std::function<void(Tracker&, const sim::Arrival&)>& feed,
                 const std::function<double(const Tracker&)>& estimate,
                 int num_sites, const std::vector<uint64_t>& cuts) {
  size_t cut_idx = 0;
  std::vector<char> pending(static_cast<size_t>(num_sites), 0);
  for (uint64_t i = 0; i < workload.size(); ++i) {
    feed(primary, workload[i]);
    feed(twin, workload[i]);

    if (cut_idx < cuts.size() && cuts[cut_idx] == i + 1) {
      std::fill(pending.begin(), pending.end(), 1);
      ++cut_idx;
    }
    for (int s = 0; s < num_sites; ++s) {
      if (!pending[static_cast<size_t>(s)] ||
          !primary.site(s).SnapshotReady()) {
        continue;
      }
      pending[static_cast<size_t>(s)] = 0;
      ASSERT_TRUE(twin.site(s).SnapshotReady());  // twins agree on readiness

      std::vector<uint64_t> blob, blob_twin, blob_again;
      primary.site(s).Serialize(&blob);
      twin.site(s).Serialize(&blob_twin);
      EXPECT_EQ(blob, blob_twin) << "site " << s << " at arrival " << i + 1;

      // Cross-restore, twice (idempotent), then re-serialize (stable).
      ASSERT_TRUE(twin.site(s).Restore(blob));
      ASSERT_TRUE(twin.site(s).Restore(blob));
      twin.site(s).Serialize(&blob_again);
      EXPECT_EQ(blob, blob_again) << "site " << s << " at arrival " << i + 1;
    }

    if ((i + 1) % 64 == 0 || i + 1 == workload.size()) {
      ASSERT_TRUE(SameBits(estimate(primary), estimate(twin)))
          << "twin diverged at arrival " << i + 1;
    }
  }
  EXPECT_EQ(primary.meter().TotalWords(), twin.meter().TotalWords());
  EXPECT_EQ(primary.meter().TotalMessages(), twin.meter().TotalMessages());
}

std::vector<uint64_t> Cuts(uint64_t n) {
  return {n / 7, n / 3, n / 2, (3 * n) / 4, n - 2};
}

TEST(SnapshotRoundTripTest, CountTrackerSurvivesCrossRestore) {
  const int k = 5;
  const uint64_t n = 4000;
  count::RandomizedCountOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.1;
  opt.seed = 31;
  sim::Workload w = stream::MakeCountWorkload(
      k, n, stream::SiteSchedule::kUniformRandom, 77);

  count::RandomizedCountTracker a(opt), b(opt);
  RunTwinTest<count::RandomizedCountTracker>(
      a, b, w,
      [](count::RandomizedCountTracker& t, const sim::Arrival& x) {
        t.Arrive(x.site);
      },
      [](const count::RandomizedCountTracker& t) { return t.EstimateCount(); },
      k, Cuts(n));
}

TEST(SnapshotRoundTripTest, CountTrackerSkipSamplingVariant) {
  const int k = 4;
  const uint64_t n = 3000;
  count::RandomizedCountOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.08;
  opt.seed = 5;
  opt.use_skip_sampling = true;
  sim::Workload w = stream::MakeCountWorkload(
      k, n, stream::SiteSchedule::kSkewedGeometric, 13);

  count::RandomizedCountTracker a(opt), b(opt);
  RunTwinTest<count::RandomizedCountTracker>(
      a, b, w,
      [](count::RandomizedCountTracker& t, const sim::Arrival& x) {
        t.Arrive(x.site);
      },
      [](const count::RandomizedCountTracker& t) { return t.EstimateCount(); },
      k, Cuts(n));
}

TEST(SnapshotRoundTripTest, FrequencyTrackerSurvivesCrossRestore) {
  const int k = 5;
  const uint64_t n = 4000;
  frequency::RandomizedFrequencyOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.15;
  opt.seed = 17;
  sim::Workload w = stream::MakeFrequencyWorkload(
      k, n, stream::SiteSchedule::kUniformRandom, 128, 1.1, 23);
  const uint64_t query = 1;

  frequency::RandomizedFrequencyTracker a(opt), b(opt);
  RunTwinTest<frequency::RandomizedFrequencyTracker>(
      a, b, w,
      [](frequency::RandomizedFrequencyTracker& t, const sim::Arrival& x) {
        t.Arrive(x.site, x.key);
      },
      [query](const frequency::RandomizedFrequencyTracker& t) {
        return t.EstimateFrequency(query);
      },
      k, Cuts(n));
}

TEST(SnapshotRoundTripTest, RankTrackerSurvivesCrossRestore) {
  const int k = 4;
  const uint64_t n = 4000;
  rank::RandomizedRankOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.15;
  opt.seed = 41;
  sim::Workload w = stream::MakeRankWorkload(
      k, n, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 24, 51);
  const uint64_t query = 1ull << 23;

  // Rank sites are ready only at chunk boundaries; the driver keeps the
  // request pending until the site reports ready.
  rank::RandomizedRankTracker a(opt), b(opt);
  RunTwinTest<rank::RandomizedRankTracker>(
      a, b, w,
      [](rank::RandomizedRankTracker& t, const sim::Arrival& x) {
        t.Arrive(x.site, x.key);
      },
      [query](const rank::RandomizedRankTracker& t) {
        return t.EstimateRank(query);
      },
      k, Cuts(n));
}

}  // namespace
}  // namespace disttrack
