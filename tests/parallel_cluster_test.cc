// sim::ParallelCluster: determinism and serial-equivalence pins.
//
// The contract under test is strong: for the randomized count, frequency,
// and rank trackers (default fast-path options), the sharded replay — an
// online session fed the workload — is BIT-IDENTICAL to the serial
// Replay* drivers — same checkpoint ns, same estimates to the last ulp,
// same communication totals — at every thread count, because epoch
// barriers sit exactly on the (deterministic) broadcast schedule and each
// site consumes its private RNG stream at the serial per-site offsets.
// These tests pin that property across thread counts, the k = 1 and
// k = max edge shards, skewed/bursty schedules, and the serial fallback
// paths; TSan runs them in CI (fast label) to certify the barriers.

#include "disttrack/sim/parallel_cluster.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/sim/online.h"

#include "gtest/gtest.h"

#include "disttrack/core/tracking.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/workload.h"
#include "tests/test_util.h"

namespace disttrack {
namespace {

using sim::Checkpoint;
using sim::ParallelCluster;
using sim::SiteStream;
using sim::Workload;

core::TrackerOptions Options(int k, uint64_t seed = 42,
                             double eps = 0.05) {
  core::TrackerOptions opt;
  opt.num_sites = k;
  opt.epsilon = eps;
  opt.seed = seed;
  return opt;
}

std::unique_ptr<sim::CountTrackerInterface> MakeCount(
    const core::TrackerOptions& opt,
    core::Algorithm alg = core::Algorithm::kRandomized) {
  std::unique_ptr<sim::CountTrackerInterface> t;
  EXPECT_TRUE(core::MakeCountTracker(alg, opt, &t).ok());
  return t;
}

std::unique_ptr<sim::FrequencyTrackerInterface> MakeFrequency(
    const core::TrackerOptions& opt) {
  std::unique_ptr<sim::FrequencyTrackerInterface> t;
  EXPECT_TRUE(
      core::MakeFrequencyTracker(core::Algorithm::kRandomized, opt, &t).ok());
  return t;
}

std::unique_ptr<sim::RankTrackerInterface> MakeRank(
    const core::TrackerOptions& opt) {
  std::unique_ptr<sim::RankTrackerInterface> t;
  EXPECT_TRUE(core::MakeRankTracker(core::Algorithm::kRandomized, opt, &t).ok());
  return t;
}

// Bit-exact comparison: n, estimate, and truth must all match.
void ExpectIdentical(const std::vector<Checkpoint>& a,
                     const std::vector<Checkpoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].n, b[i].n) << "checkpoint " << i;
    EXPECT_EQ(a[i].estimate, b[i].estimate) << "checkpoint " << i;
    EXPECT_EQ(a[i].truth, b[i].truth) << "checkpoint " << i;
  }
}

// ------------------------------------------------------------------ count

TEST(ParallelClusterCount, BitIdenticalToSerialAcrossThreadCounts) {
  for (int k : {1, 3, 8}) {
    for (auto sched : {stream::SiteSchedule::kUniformRandom,
                       stream::SiteSchedule::kSkewedGeometric,
                       stream::SiteSchedule::kBursty}) {
      SiteStream sites = stream::MakeCountSites(k, 60000, sched, 7);
      auto serial_tracker = MakeCount(Options(k));
      auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 1.5);
      for (int threads : {1, 2, 4, 7}) {
        ParallelCluster cluster(threads);
        auto tracker = MakeCount(Options(k));
        auto parallel = cluster.ReplayCountSites(tracker.get(), sites, 1.5);
        EXPECT_TRUE(cluster.last_replay_sharded());
        ExpectIdentical(serial, parallel);
        // The message schedule is the same, so the traffic is too.
        EXPECT_EQ(serial_tracker->meter().TotalMessages(),
                  tracker->meter().TotalMessages());
        EXPECT_EQ(serial_tracker->meter().TotalWords(),
                  tracker->meter().TotalWords());
      }
    }
  }
}

TEST(ParallelClusterCount, WorkloadOverloadMatchesSiteStreamOverload) {
  int k = 5;
  Workload w = stream::MakeCountWorkload(k, 20000,
                                         stream::SiteSchedule::kUniformRandom,
                                         11);
  SiteStream sites = stream::MakeCountSites(
      k, 20000, stream::SiteSchedule::kUniformRandom, 11);
  ParallelCluster cluster(3);
  auto a = MakeCount(Options(k));
  auto b = MakeCount(Options(k));
  auto cw = cluster.ReplayCount(a.get(), w, 1.5);
  auto cs = cluster.ReplayCountSites(b.get(), sites, 1.5);
  ExpectIdentical(cw, cs);
}

TEST(ParallelClusterCount, DeterministicTrackerShardsExactly) {
  int k = 6;
  SiteStream sites = stream::MakeCountSites(
      k, 30000, stream::SiteSchedule::kSkewedGeometric, 3);
  auto serial_tracker = MakeCount(Options(k), core::Algorithm::kDeterministic);
  auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 1.5);
  ParallelCluster cluster(4);
  auto tracker = MakeCount(Options(k), core::Algorithm::kDeterministic);
  auto parallel = cluster.ReplayCountSites(tracker.get(), sites, 1.5);
  // The deterministic tracker has no online shard ingest: the replay runs
  // the serial driver, which is trivially exact.
  EXPECT_FALSE(cluster.last_replay_sharded());
  ExpectIdentical(serial, parallel);
  EXPECT_EQ(serial_tracker->meter().TotalMessages(),
            tracker->meter().TotalMessages());
}

TEST(ParallelClusterCount, FallsBackToSerialForPerArrivalCoinPath) {
  int k = 4;
  SiteStream sites = stream::MakeCountSites(
      k, 5000, stream::SiteSchedule::kUniformRandom, 5);
  core::TrackerOptions opt = Options(k);
  opt.use_skip_sampling = false;
  auto serial_tracker = MakeCount(opt);
  auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 1.5);
  ParallelCluster cluster(4);
  auto tracker = MakeCount(opt);
  auto parallel = cluster.ReplayCountSites(tracker.get(), sites, 1.5);
  EXPECT_FALSE(cluster.last_replay_sharded());
  ExpectIdentical(serial, parallel);
}

TEST(ParallelClusterCount, SamplingBaselineFallsBackToSerial) {
  int k = 4;
  SiteStream sites = stream::MakeCountSites(
      k, 3000, stream::SiteSchedule::kUniformRandom, 5);
  ParallelCluster cluster(2);
  auto tracker = MakeCount(Options(k), core::Algorithm::kSampling);
  auto parallel = cluster.ReplayCountSites(tracker.get(), sites, 1.5);
  EXPECT_FALSE(cluster.last_replay_sharded());
  EXPECT_EQ(parallel.back().n, 3000u);
}

// A light statistical check on top of the exactness pins: the sharded
// replay's final estimate stays within the protocol's error bound over
// independent seeds (it must, being bit-identical to serial — this guards
// the guard).
TEST(ParallelClusterCount, FinalErrorWithinBoundOverSeeds) {
  int k = 8;
  uint64_t n = 40000;
  SiteStream sites = stream::MakeCountSites(
      k, n, stream::SiteSchedule::kUniformRandom, 23);
  ParallelCluster cluster(3);
  int failures = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto tracker = MakeCount(Options(k, seed, 0.05));
    auto cps = cluster.ReplayCountSites(tracker.get(), sites, 2.0);
    double rel = std::abs(cps.back().estimate - cps.back().truth) /
                 static_cast<double>(n);
    if (rel > 0.05) ++failures;
  }
  // eps = 0.05 at confidence c = 2 gives failure probability <= 1/4;
  // observed coverage is far better (ROADMAP notes ~0.99). 8/20 would be
  // a wild outlier.
  EXPECT_LE(failures, 8);
}

// -------------------------------------------------------------- frequency

TEST(ParallelClusterFrequency, BitIdenticalToSerialAcrossThreadCounts) {
  for (int k : {1, 4, 16}) {
    Workload w = stream::MakeFrequencyWorkload(
        k, 40000, stream::SiteSchedule::kUniformRandom, 5000, 1.1, 9);
    uint64_t query = 0;  // head item of the Zipf draw
    auto serial_tracker = MakeFrequency(Options(k));
    auto serial =
        sim::ReplayFrequency(serial_tracker.get(), w, query, 1.5);
    for (int threads : {1, 3, 6}) {
      ParallelCluster cluster(threads);
      auto tracker = MakeFrequency(Options(k));
      auto parallel = cluster.ReplayFrequency(tracker.get(), w, query, 1.5);
      EXPECT_TRUE(cluster.last_replay_sharded());
      ExpectIdentical(serial, parallel);
      EXPECT_EQ(serial_tracker->meter().TotalMessages(),
                tracker->meter().TotalMessages());
      EXPECT_EQ(serial_tracker->meter().TotalWords(),
                tracker->meter().TotalWords());
    }
  }
}

TEST(ParallelClusterFrequency, BurstySingleSiteLoadShardsExactly) {
  // All mass on few sites exercises the virtual-site split machinery and
  // the k = max edge (threads > active sites).
  for (auto sched : {stream::SiteSchedule::kSingleSite,
                     stream::SiteSchedule::kBursty}) {
    int k = 8;
    Workload w =
        stream::MakeFrequencyWorkload(k, 30000, sched, 2000, 0.0, 13);
    auto serial_tracker = MakeFrequency(Options(k));
    auto serial = sim::ReplayFrequency(serial_tracker.get(), w, 1, 1.5);
    ParallelCluster cluster(6);
    auto tracker = MakeFrequency(Options(k));
    auto parallel = cluster.ReplayFrequency(tracker.get(), w, 1, 1.5);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelClusterFrequency, FallsBackForLegacyCounterStore) {
  int k = 4;
  Workload w = stream::MakeFrequencyWorkload(
      k, 4000, stream::SiteSchedule::kUniformRandom, 500, 0.0, 3);
  core::TrackerOptions opt = Options(k);
  opt.use_flat_counters = false;
  auto serial_tracker = MakeFrequency(opt);
  auto serial = sim::ReplayFrequency(serial_tracker.get(), w, 1, 1.5);
  ParallelCluster cluster(4);
  auto tracker = MakeFrequency(opt);
  auto parallel = cluster.ReplayFrequency(tracker.get(), w, 1, 1.5);
  EXPECT_FALSE(cluster.last_replay_sharded());
  ExpectIdentical(serial, parallel);
}

// ------------------------------------------------------------------- rank

TEST(ParallelClusterRank, BitIdenticalToSerialAcrossThreadCounts) {
  for (int k : {1, 4, 12}) {
    Workload w = stream::MakeRankWorkload(
        k, 30000, stream::SiteSchedule::kUniformRandom,
        stream::ValueOrder::kUniformRandom, 14, 17);
    uint64_t query = 1ull << 13;
    auto serial_tracker = MakeRank(Options(k));
    auto serial = sim::ReplayRank(serial_tracker.get(), w, query, 1.5);
    for (int threads : {1, 3, 6}) {
      ParallelCluster cluster(threads);
      auto tracker = MakeRank(Options(k));
      auto parallel = cluster.ReplayRank(tracker.get(), w, query, 1.5);
      EXPECT_TRUE(cluster.last_replay_sharded());
      ExpectIdentical(serial, parallel);
      EXPECT_EQ(serial_tracker->meter().TotalMessages(),
                tracker->meter().TotalMessages());
      EXPECT_EQ(serial_tracker->meter().TotalWords(),
                tracker->meter().TotalWords());
    }
  }
}

TEST(ParallelClusterRank, SortedAndSkewedInputsShardExactly) {
  int k = 6;
  for (auto order :
       {stream::ValueOrder::kAscending, stream::ValueOrder::kClustered}) {
    Workload w = stream::MakeRankWorkload(
        k, 20000, stream::SiteSchedule::kSkewedGeometric, order, 12, 29);
    uint64_t query = 1ull << 11;
    auto serial_tracker = MakeRank(Options(k));
    auto serial = sim::ReplayRank(serial_tracker.get(), w, query, 1.5);
    ParallelCluster cluster(4);
    auto tracker = MakeRank(Options(k));
    auto parallel = cluster.ReplayRank(tracker.get(), w, query, 1.5);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelClusterRank, StagedLadderOffAlsoShardsExactly) {
  // use_shared_ladder = false exercises the per-level staging feed under
  // the shard driver.
  int k = 4;
  Workload w = stream::MakeRankWorkload(
      k, 15000, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 12, 31);
  core::TrackerOptions opt = Options(k);
  opt.use_shared_ladder = false;
  auto serial_tracker = MakeRank(opt);
  auto serial = sim::ReplayRank(serial_tracker.get(), w, 100, 1.5);
  ParallelCluster cluster(4);
  auto tracker = MakeRank(opt);
  auto parallel = cluster.ReplayRank(tracker.get(), w, 100, 1.5);
  EXPECT_TRUE(cluster.last_replay_sharded());
  ExpectIdentical(serial, parallel);
}

TEST(ParallelClusterRank, PerElementFeedFallsBack) {
  int k = 4;
  Workload w = stream::MakeRankWorkload(
      k, 5000, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 12, 37);
  core::TrackerOptions opt = Options(k);
  opt.use_batch_compaction = false;
  auto serial_tracker = MakeRank(opt);
  auto serial = sim::ReplayRank(serial_tracker.get(), w, 100, 1.5);
  ParallelCluster cluster(2);
  auto tracker = MakeRank(opt);
  auto parallel = cluster.ReplayRank(tracker.get(), w, 100, 1.5);
  EXPECT_FALSE(cluster.last_replay_sharded());
  ExpectIdentical(serial, parallel);
}

// ------------------------------------------------------------ edge shapes

TEST(ParallelClusterEdge, OneSegmentReplaySplitsEveryBroadcast) {
  // checkpoint_factor = 1e9 leaves two segments: the first arrival and
  // then everything else in ONE push, which carries ~20 broadcasts the
  // keyed session must split in a single walk.
  int k = 5;
  Workload w = stream::MakeFrequencyWorkload(
      k, 100000, stream::SiteSchedule::kUniformRandom, 2000, 1.1, 53);
  uint64_t query = 700;
  auto serial_freq_tracker = MakeFrequency(Options(k));
  auto serial_freq = sim::ReplayFrequency(serial_freq_tracker.get(), w, 0, 1e9);
  auto serial_rank_tracker = MakeRank(Options(k));
  auto serial_rank = sim::ReplayRank(serial_rank_tracker.get(), w, query, 1e9);
  ASSERT_EQ(serial_rank.size(), 2u);
  EXPECT_GE(serial_rank_tracker->meter().broadcast_count(), 15u);
  for (int threads : {1, 4}) {
    ParallelCluster cluster(threads);
    auto freq_tracker = MakeFrequency(Options(k));
    ExpectIdentical(serial_freq,
                    cluster.ReplayFrequency(freq_tracker.get(), w, 0, 1e9));
    EXPECT_TRUE(cluster.last_replay_sharded());
    EXPECT_EQ(serial_freq_tracker->meter().TotalMessages(),
              freq_tracker->meter().TotalMessages());
    EXPECT_EQ(serial_freq_tracker->meter().TotalWords(),
              freq_tracker->meter().TotalWords());
    auto rank_tracker = MakeRank(Options(k));
    ExpectIdentical(serial_rank,
                    cluster.ReplayRank(rank_tracker.get(), w, query, 1e9));
    EXPECT_TRUE(cluster.last_replay_sharded());
    EXPECT_EQ(serial_rank_tracker->meter().TotalMessages(),
              rank_tracker->meter().TotalMessages());
    EXPECT_EQ(serial_rank_tracker->meter().TotalWords(),
              rank_tracker->meter().TotalWords());
  }
}

TEST(ParallelClusterEdge, EmptyAndTinyWorkloads) {
  int k = 3;
  ParallelCluster cluster(4);
  {
    auto tracker = MakeCount(Options(k));
    auto cps = cluster.ReplayCountSites(tracker.get(), SiteStream{}, 1.5);
    ASSERT_EQ(cps.size(), 1u);
    EXPECT_EQ(cps[0].n, 0u);
  }
  {
    // Fewer elements than sites and than threads.
    SiteStream sites{2, 0};
    auto serial_tracker = MakeCount(Options(k));
    auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 1.5);
    auto tracker = MakeCount(Options(k));
    auto parallel = cluster.ReplayCountSites(tracker.get(), sites, 1.5);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelClusterEdge, AutoThreadsMatchesSerialBitForBit) {
  // kAutoThreads sizes the pool from the hardware, clamped per replay by
  // the site count; whatever it resolves to, the replay must stay
  // bit-identical to the serial driver.
  int k = 6;
  Workload w = stream::MakeFrequencyWorkload(
      k, 20000, stream::SiteSchedule::kUniformRandom, 1000, 1.1, 43);
  ParallelCluster cluster(ParallelCluster::kAutoThreads);
  EXPECT_GE(cluster.threads(), 1);
  auto serial_tracker = MakeFrequency(Options(k));
  auto serial = sim::ReplayFrequency(serial_tracker.get(), w, 0, 1.5);
  auto tracker = MakeFrequency(Options(k));
  auto parallel = cluster.ReplayFrequency(tracker.get(), w, 0, 1.5);
  ExpectIdentical(serial, parallel);
  // And for rank, whose keyed plan skips the index arrays.
  auto serial_rank_tracker = MakeRank(Options(k));
  auto serial_rank = sim::ReplayRank(serial_rank_tracker.get(), w, 500, 1.5);
  auto rank_tracker = MakeRank(Options(k));
  ExpectIdentical(serial_rank,
                  cluster.ReplayRank(rank_tracker.get(), w, 500, 1.5));
}

TEST(ParallelClusterEdge, RepeatedRunsAreDeterministic) {
  int k = 8;
  Workload w = stream::MakeFrequencyWorkload(
      k, 25000, stream::SiteSchedule::kUniformRandom, 1000, 1.1, 41);
  ParallelCluster cluster(4);
  auto t1 = MakeFrequency(Options(k));
  auto t2 = MakeFrequency(Options(k));
  auto a = cluster.ReplayFrequency(t1.get(), w, 0, 1.5);
  auto b = cluster.ReplayFrequency(t2.get(), w, 0, 1.5);
  ExpectIdentical(a, b);
}

TEST(ParallelClusterEdge, OneClusterManyReplaysKeepsWorkersAlive) {
  // Reuses one pool across problems and thread-count-many task shapes.
  ParallelCluster cluster(3);
  for (int k : {1, 5}) {
    SiteStream sites = stream::MakeCountSites(
        k, 8000, stream::SiteSchedule::kUniformRandom, 2);
    auto serial_tracker = MakeCount(Options(k));
    auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 2.0);
    auto tracker = MakeCount(Options(k));
    ExpectIdentical(serial,
                    cluster.ReplayCountSites(tracker.get(), sites, 2.0));
  }
}

// ---------------------------------------------------------- online ingest
//
// The online sessions (sim/online.h) must agree with the serial drivers
// without the replay plan pass: the count session bit-exactly for ANY
// push partition (speculation + rollback changes no coin draw), the
// keyed sessions bit-exactly whenever serial delivery uses the SAME
// chunk sequence (push boundaries cut rank runs, so a different
// partition is distribution-equivalent only — covered by the statistical
// tier below).

// Pushes the stream through the session one segment per boundary
// (ascending, last == total), sampling the estimate after each — the
// online analogue of the Replay* checkpoint loop.
std::vector<Checkpoint> OnlineCountRun(sim::OnlineCountSession* session,
                                       sim::CountTrackerInterface* tracker,
                                       const SiteStream& sites,
                                       const std::vector<uint64_t>& bounds) {
  std::vector<Checkpoint> out;
  uint64_t pos = 0;
  for (uint64_t b : bounds) {
    session->PushSites(sites.data() + pos, b - pos);
    pos = b;
    out.push_back(
        Checkpoint{pos, tracker->EstimateCount(), static_cast<double>(pos)});
  }
  return out;
}

std::vector<Checkpoint> OnlineFrequencyRun(
    sim::OnlineKeyedSession* session, sim::FrequencyTrackerInterface* tracker,
    const Workload& w, uint64_t query, const std::vector<uint64_t>& bounds) {
  std::vector<Checkpoint> out;
  uint64_t pos = 0;
  uint64_t freq = 0;
  for (uint64_t b : bounds) {
    session->Push(w.data() + pos, b - pos);
    for (uint64_t i = pos; i < b; ++i) {
      if (w[i].key == query) ++freq;
    }
    pos = b;
    session->Sync();
    out.push_back(Checkpoint{pos, tracker->EstimateFrequency(query),
                             static_cast<double>(freq)});
  }
  return out;
}

std::vector<Checkpoint> OnlineRankRun(sim::OnlineKeyedSession* session,
                                      sim::RankTrackerInterface* tracker,
                                      const Workload& w, uint64_t query,
                                      const std::vector<uint64_t>& bounds) {
  std::vector<Checkpoint> out;
  uint64_t pos = 0;
  uint64_t rank = 0;
  for (uint64_t b : bounds) {
    session->Push(w.data() + pos, b - pos);
    for (uint64_t i = pos; i < b; ++i) {
      if (w[i].key < query) ++rank;
    }
    pos = b;
    session->Sync();
    out.push_back(Checkpoint{pos, tracker->EstimateRank(query),
                             static_cast<double>(rank)});
  }
  return out;
}

void ExpectSameTraffic(const sim::CountTrackerInterface& a,
                       const sim::CountTrackerInterface& b) {
  EXPECT_EQ(a.meter().TotalMessages(), b.meter().TotalMessages());
  EXPECT_EQ(a.meter().TotalWords(), b.meter().TotalWords());
}

template <typename Tracker>
void ExpectSameKeyedTraffic(const Tracker& a, const Tracker& b) {
  EXPECT_EQ(a.meter().TotalMessages(), b.meter().TotalMessages());
  EXPECT_EQ(a.meter().TotalWords(), b.meter().TotalWords());
}

TEST(OnlineCount, MatchesSerialReplayAcrossThreadCounts) {
  for (int k : {1, 3, 8}) {
    for (auto sched : {stream::SiteSchedule::kUniformRandom,
                       stream::SiteSchedule::kSkewedGeometric,
                       stream::SiteSchedule::kBursty,
                       stream::SiteSchedule::kSingleSite}) {
      SiteStream sites = stream::MakeCountSites(k, 60000, sched, 7);
      auto serial_tracker = MakeCount(Options(k));
      auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 1.5);
      std::vector<uint64_t> bounds = sim::CheckpointCounts(sites.size(), 1.5);
      for (int threads : {1, 2, 4, 7}) {
        ParallelCluster cluster(threads);
        auto tracker = MakeCount(Options(k));
        sim::OnlineCountSession session(&cluster, tracker.get());
        EXPECT_TRUE(session.sharded());
        auto online = OnlineCountRun(&session, tracker.get(), sites, bounds);
        ExpectIdentical(serial, online);
        // The very first arrival broadcasts (limit = 1), so at least that
        // push must have been unwound and re-delivered serially.
        EXPECT_GT(session.rollbacks(), 0u);
        ExpectSameTraffic(*serial_tracker, *tracker);
      }
    }
  }
}

TEST(OnlineCount, ArbitraryPushBoundariesAreExact) {
  // The count session is partition-insensitive: compare growing, never-
  // aligned pushes against ONE serial delivery of the whole stream.
  int k = 6;
  SiteStream sites = stream::MakeCountSites(
      k, 40000, stream::SiteSchedule::kSkewedGeometric, 19);
  auto serial_tracker = MakeCount(Options(k));
  serial_tracker->ArriveSites(sites.data(), sites.size());
  ParallelCluster cluster(4);
  auto tracker = MakeCount(Options(k));
  sim::OnlineCountSession session(&cluster, tracker.get());
  size_t pos = 0;
  size_t push = 1;
  while (pos < sites.size()) {
    size_t len = std::min(push, sites.size() - pos);
    session.PushSites(sites.data() + pos, len);
    pos += len;
    push = push * 2 + 1;
  }
  EXPECT_EQ(serial_tracker->EstimateCount(), tracker->EstimateCount());
  ExpectSameTraffic(*serial_tracker, *tracker);
}

TEST(OnlineCount, FallsBackWithoutOnlineShardSupport) {
  int k = 4;
  SiteStream sites = stream::MakeCountSites(
      k, 8000, stream::SiteSchedule::kUniformRandom, 5);
  ParallelCluster cluster(4);
  {
    // Per-arrival coin path: sharded replay exists but is not online-
    // ready (no snapshot hooks) — the session must fall back to serial.
    core::TrackerOptions opt = Options(k);
    opt.use_skip_sampling = false;
    auto serial_tracker = MakeCount(opt);
    serial_tracker->ArriveSites(sites.data(), sites.size());
    auto tracker = MakeCount(opt);
    sim::OnlineCountSession session(&cluster, tracker.get());
    EXPECT_FALSE(session.sharded());
    session.PushSites(sites);
    EXPECT_EQ(session.rollbacks(), 0u);
    EXPECT_EQ(serial_tracker->EstimateCount(), tracker->EstimateCount());
    ExpectSameTraffic(*serial_tracker, *tracker);
  }
  {
    auto serial_tracker = MakeCount(Options(k), core::Algorithm::kDeterministic);
    serial_tracker->ArriveSites(sites.data(), sites.size());
    auto tracker = MakeCount(Options(k), core::Algorithm::kDeterministic);
    sim::OnlineCountSession session(&cluster, tracker.get());
    EXPECT_FALSE(session.sharded());
    session.PushSites(sites);
    EXPECT_EQ(serial_tracker->EstimateCount(), tracker->EstimateCount());
    ExpectSameTraffic(*serial_tracker, *tracker);
  }
}

TEST(OnlineFrequency, MatchesSerialReplayAcrossThreadCounts) {
  for (int k : {1, 4, 16}) {
    Workload w = stream::MakeFrequencyWorkload(
        k, 40000, stream::SiteSchedule::kUniformRandom, 5000, 1.1, 9);
    uint64_t query = 0;
    auto serial_tracker = MakeFrequency(Options(k));
    auto serial = sim::ReplayFrequency(serial_tracker.get(), w, query, 1.5);
    std::vector<uint64_t> bounds = sim::CheckpointCounts(w.size(), 1.5);
    for (int threads : {1, 2, 4, 7}) {
      ParallelCluster cluster(threads);
      auto tracker = MakeFrequency(Options(k));
      sim::OnlineKeyedSession session(&cluster, tracker.get());
      EXPECT_TRUE(session.sharded());
      auto online =
          OnlineFrequencyRun(&session, tracker.get(), w, query, bounds);
      ExpectIdentical(serial, online);
      EXPECT_GT(session.epoch_splits(), 0u);
      ExpectSameKeyedTraffic(*serial_tracker, *tracker);
    }
  }
}

TEST(OnlineFrequency, BurstySingleSiteAndMisalignedPushes) {
  // Frequency has no run buffering, so even a partition nobody else uses
  // (fixed 1009-arrival pushes) must match ONE serial batch bit-exactly.
  for (auto sched : {stream::SiteSchedule::kSingleSite,
                     stream::SiteSchedule::kBursty}) {
    int k = 8;
    Workload w =
        stream::MakeFrequencyWorkload(k, 30000, sched, 2000, 0.0, 13);
    auto serial_tracker = MakeFrequency(Options(k));
    serial_tracker->ArriveBatch(w.data(), w.size());
    ParallelCluster cluster(6);
    auto tracker = MakeFrequency(Options(k));
    sim::OnlineKeyedSession session(&cluster, tracker.get());
    size_t pos = 0;
    while (pos < w.size()) {
      size_t len = std::min<size_t>(1009, w.size() - pos);
      session.Push(w.data() + pos, len);
      pos += len;
    }
    session.Sync();
    EXPECT_EQ(serial_tracker->EstimateFrequency(1),
              tracker->EstimateFrequency(1));
    ExpectSameKeyedTraffic(*serial_tracker, *tracker);
  }
}

TEST(OnlineFrequency, FallsBackForLegacyCounterStore) {
  int k = 4;
  Workload w = stream::MakeFrequencyWorkload(
      k, 4000, stream::SiteSchedule::kUniformRandom, 500, 0.0, 3);
  core::TrackerOptions opt = Options(k);
  opt.use_flat_counters = false;
  auto serial_tracker = MakeFrequency(opt);
  serial_tracker->ArriveBatch(w.data(), w.size());
  ParallelCluster cluster(4);
  auto tracker = MakeFrequency(opt);
  sim::OnlineKeyedSession session(&cluster, tracker.get());
  EXPECT_FALSE(session.sharded());
  session.Push(w);
  session.Sync();
  EXPECT_EQ(session.epoch_splits(), 0u);
  EXPECT_EQ(serial_tracker->EstimateFrequency(1), tracker->EstimateFrequency(1));
  ExpectSameKeyedTraffic(*serial_tracker, *tracker);
}

TEST(OnlineRank, CheckpointAlignedPushesBitIdenticalToSerial) {
  // Push boundaries cut per-site runs, so bit-identity is pinned on the
  // SAME chunk sequence the serial replay uses (the checkpoint batches).
  for (int k : {1, 4, 12}) {
    Workload w = stream::MakeRankWorkload(
        k, 30000, stream::SiteSchedule::kUniformRandom,
        stream::ValueOrder::kUniformRandom, 14, 17);
    uint64_t query = 1ull << 13;
    auto serial_tracker = MakeRank(Options(k));
    auto serial = sim::ReplayRank(serial_tracker.get(), w, query, 1.5);
    std::vector<uint64_t> bounds = sim::CheckpointCounts(w.size(), 1.5);
    for (int threads : {1, 2, 4, 7}) {
      ParallelCluster cluster(threads);
      auto tracker = MakeRank(Options(k));
      sim::OnlineKeyedSession session(&cluster, tracker.get());
      EXPECT_TRUE(session.sharded());
      auto online = OnlineRankRun(&session, tracker.get(), w, query, bounds);
      ExpectIdentical(serial, online);
      EXPECT_GT(session.epoch_splits(), 0u);
      ExpectSameKeyedTraffic(*serial_tracker, *tracker);
    }
  }
}

TEST(OnlineRank, SortedAndSkewedStreamsMatchSerial) {
  int k = 6;
  for (auto order :
       {stream::ValueOrder::kAscending, stream::ValueOrder::kClustered}) {
    Workload w = stream::MakeRankWorkload(
        k, 20000, stream::SiteSchedule::kSkewedGeometric, order, 12, 29);
    uint64_t query = 1ull << 11;
    auto serial_tracker = MakeRank(Options(k));
    auto serial = sim::ReplayRank(serial_tracker.get(), w, query, 1.5);
    std::vector<uint64_t> bounds = sim::CheckpointCounts(w.size(), 1.5);
    ParallelCluster cluster(4);
    auto tracker = MakeRank(Options(k));
    sim::OnlineKeyedSession session(&cluster, tracker.get());
    auto online = OnlineRankRun(&session, tracker.get(), w, query, bounds);
    ExpectIdentical(serial, online);
  }
}

TEST(OnlineRank, MisalignedPushesMatchSerialWithSameChunks) {
  // Any partition agrees bit-exactly with serial delivery of the SAME
  // chunk sequence — run cuts land at the same stream positions.
  int k = 5;
  Workload w = stream::MakeRankWorkload(
      k, 25000, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 13, 23);
  uint64_t query = 1ull << 12;
  auto serial_tracker = MakeRank(Options(k));
  ParallelCluster cluster(4);
  auto tracker = MakeRank(Options(k));
  sim::OnlineKeyedSession session(&cluster, tracker.get());
  size_t pos = 0;
  while (pos < w.size()) {
    size_t len = std::min<size_t>(769, w.size() - pos);
    serial_tracker->ArriveBatch(w.data() + pos, len);
    session.Push(w.data() + pos, len);
    session.Sync();
    EXPECT_EQ(serial_tracker->EstimateRank(query), tracker->EstimateRank(query))
        << "after " << pos + len << " arrivals";
    pos += len;
  }
  ExpectSameKeyedTraffic(*serial_tracker, *tracker);
}

TEST(OnlineRank, MisalignedPushErrorWithinBound) {
  // Across DIFFERENT partitions the batched compactor is distribution-
  // equivalent, not bit-equal — so the cross-partition pin is
  // statistical: the online estimate keeps the protocol's eps n error
  // bound over independent seeds.
  int k = 8;
  uint64_t n = 30000;
  Workload w = stream::MakeRankWorkload(
      k, n, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 14, 31);
  uint64_t query = 1ull << 13;
  uint64_t truth = 0;
  for (const auto& a : w) {
    if (a.key < query) ++truth;
  }
  ParallelCluster cluster(3);
  int failures = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto tracker = MakeRank(Options(k, seed, 0.05));
    sim::OnlineKeyedSession session(&cluster, tracker.get());
    size_t pos = 0;
    while (pos < w.size()) {
      size_t len = std::min<size_t>(769, w.size() - pos);
      session.Push(w.data() + pos, len);
      pos += len;
    }
    session.Sync();
    double err = std::abs(tracker->EstimateRank(query) -
                          static_cast<double>(truth));
    if (err > 0.05 * static_cast<double>(n)) ++failures;
  }
  EXPECT_LE(failures, 4);
}

TEST(OnlineRank, PerElementFeedFallsBack) {
  int k = 4;
  Workload w = stream::MakeRankWorkload(
      k, 5000, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 12, 37);
  core::TrackerOptions opt = Options(k);
  opt.use_batch_compaction = false;
  auto serial_tracker = MakeRank(opt);
  serial_tracker->ArriveBatch(w.data(), w.size());
  ParallelCluster cluster(2);
  auto tracker = MakeRank(opt);
  sim::OnlineKeyedSession session(&cluster, tracker.get());
  EXPECT_FALSE(session.sharded());
  session.Push(w);
  session.Sync();
  EXPECT_EQ(serial_tracker->EstimateRank(100), tracker->EstimateRank(100));
  ExpectSameKeyedTraffic(*serial_tracker, *tracker);
}

TEST(OnlineThreeWay, ReplayOnlinePushAndSerialAgree) {
  // The ISSUE's headline pin: the SAME workload through all three
  // engines — serial driver, replay cluster, online push — checkpoint by
  // checkpoint, estimates to the ulp plus communication totals.
  int k = 8;
  {
    SiteStream sites = stream::MakeCountSites(
        k, 50000, stream::SiteSchedule::kSkewedGeometric, 47);
    auto serial_tracker = MakeCount(Options(k));
    auto serial = sim::ReplayCountSites(serial_tracker.get(), sites, 1.5);
    ParallelCluster cluster(4);
    auto replay_tracker = MakeCount(Options(k));
    auto replayed =
        cluster.ReplayCountSites(replay_tracker.get(), sites, 1.5);
    auto online_tracker = MakeCount(Options(k));
    sim::OnlineCountSession session(&cluster, online_tracker.get());
    auto online = OnlineCountRun(&session, online_tracker.get(), sites,
                                 sim::CheckpointCounts(sites.size(), 1.5));
    ExpectIdentical(serial, replayed);
    ExpectIdentical(serial, online);
    ExpectSameTraffic(*serial_tracker, *replay_tracker);
    ExpectSameTraffic(*serial_tracker, *online_tracker);
  }
  Workload w = stream::MakeFrequencyWorkload(
      k, 40000, stream::SiteSchedule::kUniformRandom, 3000, 1.1, 47);
  {
    auto serial_tracker = MakeFrequency(Options(k));
    auto serial = sim::ReplayFrequency(serial_tracker.get(), w, 0, 1.5);
    ParallelCluster cluster(4);
    auto replay_tracker = MakeFrequency(Options(k));
    auto replayed = cluster.ReplayFrequency(replay_tracker.get(), w, 0, 1.5);
    auto online_tracker = MakeFrequency(Options(k));
    sim::OnlineKeyedSession session(&cluster, online_tracker.get());
    auto online = OnlineFrequencyRun(&session, online_tracker.get(), w, 0,
                                     sim::CheckpointCounts(w.size(), 1.5));
    ExpectIdentical(serial, replayed);
    ExpectIdentical(serial, online);
    ExpectSameKeyedTraffic(*serial_tracker, *replay_tracker);
    ExpectSameKeyedTraffic(*serial_tracker, *online_tracker);
  }
  {
    uint64_t query = 500;
    auto serial_tracker = MakeRank(Options(k));
    auto serial = sim::ReplayRank(serial_tracker.get(), w, query, 1.5);
    ParallelCluster cluster(4);
    auto replay_tracker = MakeRank(Options(k));
    auto replayed = cluster.ReplayRank(replay_tracker.get(), w, query, 1.5);
    auto online_tracker = MakeRank(Options(k));
    sim::OnlineKeyedSession session(&cluster, online_tracker.get());
    auto online = OnlineRankRun(&session, online_tracker.get(), w, query,
                                sim::CheckpointCounts(w.size(), 1.5));
    ExpectIdentical(serial, replayed);
    ExpectIdentical(serial, online);
    ExpectSameKeyedTraffic(*serial_tracker, *replay_tracker);
    ExpectSameKeyedTraffic(*serial_tracker, *online_tracker);
  }
}

TEST(OnlineEdge, EmptySessionsAndSingleArrivalPushes) {
  int k = 3;
  ParallelCluster cluster(4);
  {
    auto tracker = MakeCount(Options(k));
    sim::OnlineCountSession session(&cluster, tracker.get());
    session.PushSites(nullptr, 0);
    EXPECT_EQ(tracker->EstimateCount(), 0.0);
  }
  {
    // Every push a single arrival: the certifier and the speculation
    // machinery run per arrival, broadcasts and all.
    SiteStream sites = stream::MakeCountSites(
        k, 2000, stream::SiteSchedule::kBursty, 3);
    auto serial_tracker = MakeCount(Options(k));
    serial_tracker->ArriveSites(sites.data(), sites.size());
    auto tracker = MakeCount(Options(k));
    sim::OnlineCountSession session(&cluster, tracker.get());
    for (size_t i = 0; i < sites.size(); ++i) {
      session.PushSites(sites.data() + i, 1);
    }
    EXPECT_EQ(serial_tracker->EstimateCount(), tracker->EstimateCount());
    ExpectSameTraffic(*serial_tracker, *tracker);
  }
  {
    Workload w = stream::MakeRankWorkload(
        k, 2000, stream::SiteSchedule::kUniformRandom,
        stream::ValueOrder::kUniformRandom, 12, 7);
    auto serial_tracker = MakeRank(Options(k));
    auto tracker = MakeRank(Options(k));
    sim::OnlineKeyedSession session(&cluster, tracker.get());
    for (size_t i = 0; i < w.size(); ++i) {
      serial_tracker->ArriveBatch(w.data() + i, 1);
      session.Push(w.data() + i, 1);
    }
    session.Sync();
    EXPECT_EQ(serial_tracker->EstimateRank(100), tracker->EstimateRank(100));
    ExpectSameKeyedTraffic(*serial_tracker, *tracker);
  }
}

// ----------------------------------------------------------- death tests

using ParallelClusterDeathTest = ::testing::Test;

TEST(ParallelClusterDeathTest, OutOfRangeSiteIdAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  int k = 4;
  // In the recorded workload (caught by the planner's validation pass).
  {
    SiteStream sites{0, 1, 9};
    ParallelCluster cluster(2);
    auto tracker = MakeCount(Options(k));
    EXPECT_DEATH(cluster.ReplayCountSites(tracker.get(), sites, 1.5),
                 "out of range");
  }
  // Straight into the tracker batch paths.
  {
    auto tracker = MakeCount(Options(k));
    SiteStream sites{0, 4};
    EXPECT_DEATH(tracker->ArriveSites(sites.data(), sites.size()),
                 "out of range");
  }
  {
    auto tracker = MakeFrequency(Options(k));
    std::vector<sim::Arrival> bad{{0, 1}, {-1, 2}};
    EXPECT_DEATH(tracker->ArriveBatch(bad.data(), bad.size()),
                 "out of range");
  }
  {
    auto tracker = MakeRank(Options(k));
    std::vector<sim::Arrival> bad{{7, 1}};
    EXPECT_DEATH(tracker->ArriveBatch(bad.data(), bad.size()),
                 "out of range");
  }
}

TEST(ParallelClusterDeathTest, BadCheckpointFactorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ParallelCluster cluster(2);
  auto tracker = MakeCount(Options(2));
  SiteStream sites{0, 1};
  EXPECT_DEATH(cluster.ReplayCountSites(tracker.get(), sites, 1.0),
               "checkpoint_factor");
}

}  // namespace
}  // namespace disttrack
