// Differential fault-tolerance tests (robustness PR acceptance): a run
// under any seeded fault schedule — drops, duplicates, reorders, delays,
// site crashes mid-epoch, coordinator restarts — must end bit-identical
// to the fault-free run for count, frequency, and rank, with the wire
// bytes matching CommMeter's frame accounting exactly.
//
// The RobustReplay* engine already self-checks the strongest invariants
// every arrival (replica estimate == tracker estimate at checkpoints,
// per-arrival paper word charges, journal content equality, byte
// conservation) and reports any violation through RobustReport::ok.
// These tests drive the sweep, compare fault runs against the fault-free
// baseline checkpoint-by-checkpoint, and cross-check the robust engine
// against the serial and multi-threaded reference drivers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/robust_cluster.h"
#include "disttrack/stream/workload.h"

namespace disttrack {
namespace sim {
namespace {

constexpr int kSweepSeeds = 50;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct SweepStats {
  uint64_t recoveries = 0;
  uint64_t restarts = 0;
  uint64_t deduped = 0;
  uint64_t retransmissions = 0;
  int seeds_with_restart = 0;
};

/// Runs `run(robust)` for the fault-free plan and for `kSweepSeeds` seeded
/// storms, asserting every fault run is bit-identical to the baseline and
/// byte-conserving; `*stats` collects what the storms exercised in
/// aggregate. (Out-parameter: ASSERT_* needs a void function.)
void RunSweep(const char* tag, uint64_t n, int k, uint64_t seed_base,
              const std::function<RobustReport(const RobustOptions&)>& run,
              SweepStats* stats) {
  RobustOptions clean;
  RobustReport base = run(clean);
  ASSERT_TRUE(base.ok) << tag << " fault-free: " << base.error;
  EXPECT_EQ(base.retransmit_bytes, 0u) << tag;  // nothing to recover from
  EXPECT_EQ(base.retransmissions, 0u) << tag;
  EXPECT_EQ(base.frames_deduped, 0u) << tag;
  EXPECT_EQ(base.link_bytes_offered, base.wire_bytes + base.overhead_bytes)
      << tag;

  for (int i = 0; i < kSweepSeeds; ++i) {
    uint64_t seed = seed_base + static_cast<uint64_t>(i);
    RobustOptions faulty;
    faulty.plan = FaultPlan::FromSeed(seed, n, k);
    RobustReport report = run(faulty);
    ASSERT_TRUE(report.ok)
        << tag << " storm seed " << seed << ": " << report.error;

    // Bit-identical convergence at every checkpoint, for both the
    // authoritative tracker and the frame-rebuilt replica.
    ASSERT_EQ(report.checkpoints.size(), base.checkpoints.size())
        << tag << " seed " << seed;
    for (size_t c = 0; c < base.checkpoints.size(); ++c) {
      EXPECT_EQ(report.checkpoints[c].n, base.checkpoints[c].n);
      ASSERT_TRUE(SameBits(report.checkpoints[c].estimate,
                           base.checkpoints[c].estimate))
          << tag << " seed " << seed << " checkpoint n="
          << base.checkpoints[c].n << ": " << report.checkpoints[c].estimate
          << " != " << base.checkpoints[c].estimate;
      ASSERT_TRUE(SameBits(report.checkpoints[c].replica_estimate,
                           report.checkpoints[c].estimate))
          << tag << " seed " << seed;
      EXPECT_EQ(report.checkpoints[c].truth, base.checkpoints[c].truth);
    }

    // The paper-model traffic is computed above the transport: faults
    // must not change it at all.
    EXPECT_EQ(report.paper_words, base.paper_words) << tag << " seed " << seed;
    EXPECT_EQ(report.paper_messages, base.paper_messages)
        << tag << " seed " << seed;

    // First transmissions are the same frames in every run; all fault
    // and recovery traffic lands in the other two channels, and every
    // link byte is accounted for.
    EXPECT_EQ(report.wire_bytes, base.wire_bytes) << tag << " seed " << seed;
    EXPECT_EQ(report.link_bytes_offered,
              report.wire_bytes + report.retransmit_bytes +
                  report.overhead_bytes)
        << tag << " seed " << seed;

    EXPECT_GE(report.site_recoveries, 1u) << tag << " seed " << seed;
    stats->recoveries += report.site_recoveries;
    stats->restarts += report.coordinator_restarts;
    stats->deduped += report.frames_deduped;
    stats->retransmissions += report.retransmissions;
    if (report.coordinator_restarts > 0) ++stats->seeds_with_restart;
  }
}

void ExpectStormCoverage(const char* tag, const SweepStats& stats) {
  // Every storm crashes at least one site; about half restart the
  // coordinator; the link fault rates make duplicates and drops (hence
  // retransmissions) near-certain over 50 storms.
  EXPECT_GE(stats.recoveries, static_cast<uint64_t>(kSweepSeeds)) << tag;
  EXPECT_GE(stats.seeds_with_restart, 10) << tag;
  EXPECT_GT(stats.deduped, 0u) << tag;
  EXPECT_GT(stats.retransmissions, 0u) << tag;
}

TEST(FaultToleranceTest, CountSweepConvergesBitIdentical) {
  const int k = 4;
  const uint64_t n = 3000;
  count::RandomizedCountOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.1;
  opt.seed = 42;
  Workload w =
      stream::MakeCountWorkload(k, n, stream::SiteSchedule::kUniformRandom, 7);

  SweepStats stats;
  RunSweep(
      "count", n, k, 100,
      [&](const RobustOptions& r) { return RobustReplayCount(opt, w, r); },
      &stats);
  ExpectStormCoverage("count", stats);
}

TEST(FaultToleranceTest, FrequencySweepConvergesBitIdentical) {
  const int k = 4;
  const uint64_t n = 2500;
  frequency::RandomizedFrequencyOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.15;
  opt.seed = 5;
  Workload w = stream::MakeFrequencyWorkload(
      k, n, stream::SiteSchedule::kUniformRandom, 64, 1.1, 11);
  const uint64_t query = 2;

  SweepStats stats;
  RunSweep(
      "frequency", n, k, 200,
      [&](const RobustOptions& r) {
        return RobustReplayFrequency(opt, w, query, r);
      },
      &stats);
  ExpectStormCoverage("frequency", stats);
}

TEST(FaultToleranceTest, RankSweepConvergesBitIdentical) {
  const int k = 4;
  const uint64_t n = 2500;
  rank::RandomizedRankOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.15;
  opt.seed = 9;
  Workload w = stream::MakeRankWorkload(
      k, n, stream::SiteSchedule::kUniformRandom,
      stream::ValueOrder::kUniformRandom, 20, 13);
  const uint64_t query = 1ull << 19;

  SweepStats stats;
  RunSweep(
      "rank", n, k, 300,
      [&](const RobustOptions& r) {
        return RobustReplayRank(opt, w, query, r);
      },
      &stats);
  ExpectStormCoverage("rank", stats);
}

// The robust engine's scalar delivery must reproduce the serial reference
// drivers exactly (same trackers, same checkpoint schedule), so the
// fault-free robust run is a valid baseline for the sweep above.
TEST(FaultToleranceTest, FaultFreeRobustMatchesSerialReplay) {
  const int k = 5;
  const uint64_t n = 2000;
  {
    count::RandomizedCountOptions opt;
    opt.num_sites = k;
    opt.epsilon = 0.1;
    opt.seed = 3;
    Workload w = stream::MakeCountWorkload(
        k, n, stream::SiteSchedule::kRoundRobin, 19);
    count::RandomizedCountTracker serial(opt);
    std::vector<Checkpoint> ref = ReplayCount(&serial, w);
    RobustReport robust = RobustReplayCount(opt, w, RobustOptions());
    ASSERT_TRUE(robust.ok) << robust.error;
    ASSERT_EQ(robust.checkpoints.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(robust.checkpoints[i].n, ref[i].n);
      EXPECT_TRUE(SameBits(robust.checkpoints[i].estimate, ref[i].estimate));
      EXPECT_EQ(robust.checkpoints[i].truth, ref[i].truth);
    }
  }
  {
    frequency::RandomizedFrequencyOptions opt;
    opt.num_sites = k;
    opt.epsilon = 0.2;
    opt.seed = 23;
    Workload w = stream::MakeFrequencyWorkload(
        k, n, stream::SiteSchedule::kSkewedGeometric, 64, 1.2, 29);
    frequency::RandomizedFrequencyTracker serial(opt);
    std::vector<Checkpoint> ref = ReplayFrequency(&serial, w, 1);
    RobustReport robust = RobustReplayFrequency(opt, w, 1, RobustOptions());
    ASSERT_TRUE(robust.ok) << robust.error;
    ASSERT_EQ(robust.checkpoints.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(SameBits(robust.checkpoints[i].estimate, ref[i].estimate));
    }
  }
  {
    rank::RandomizedRankOptions opt;
    opt.num_sites = k;
    opt.epsilon = 0.2;
    opt.seed = 31;
    // The robust engine delivers element-at-a-time; the reference batch
    // driver is bit-identical to that only on the per-element compaction
    // feed (batched compaction is equivalent in distribution, not bits —
    // see batch_equivalence_test).
    opt.use_batch_compaction = false;
    Workload w = stream::MakeRankWorkload(
        k, n, stream::SiteSchedule::kUniformRandom,
        stream::ValueOrder::kClustered, 22, 37);
    rank::RandomizedRankTracker serial(opt);
    std::vector<Checkpoint> ref = ReplayRank(&serial, w, 1ull << 21);
    RobustReport robust =
        RobustReplayRank(opt, w, 1ull << 21, RobustOptions());
    ASSERT_TRUE(robust.ok) << robust.error;
    ASSERT_EQ(robust.checkpoints.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(SameBits(robust.checkpoints[i].estimate, ref[i].estimate));
    }
  }
}

// Cross-check against the fault-free serial replay: a robust run under a
// crash/restart-heavy storm must land on the same bits as ReplayCount /
// ReplayRank delivering the same workload through ArriveBatch.
TEST(FaultToleranceTest, CrashRestartRunMatchesSerialReplay) {
  const int k = 6;
  const uint64_t n = 4000;

  RobustOptions storm;
  storm.plan.seed = 424242;
  storm.plan.drop_rate = 0.25;
  storm.plan.duplicate_rate = 0.2;
  storm.plan.reorder_rate = 0.3;
  storm.plan.max_delay_ticks = 3;
  storm.plan.snapshot_every = 16;
  // Crash every site at least once, mid-stream; restart the coordinator
  // twice.
  for (int s = 0; s < k; ++s) {
    storm.plan.site_crashes.push_back(
        {n / 4 + static_cast<uint64_t>(s) * (n / (2 * k)), s});
  }
  storm.plan.coordinator_restarts = {n / 3, (2 * n) / 3};

  {
    count::RandomizedCountOptions opt;
    opt.num_sites = k;
    opt.epsilon = 0.1;
    opt.seed = 71;
    Workload w = stream::MakeCountWorkload(
        k, n, stream::SiteSchedule::kUniformRandom, 73);
    count::RandomizedCountTracker tracker(opt);
    std::vector<Checkpoint> ref = ReplayCount(&tracker, w);
    RobustReport robust = RobustReplayCount(opt, w, storm);
    ASSERT_TRUE(robust.ok) << robust.error;
    EXPECT_EQ(robust.site_recoveries, static_cast<uint64_t>(k));
    EXPECT_EQ(robust.coordinator_restarts, 2u);
    ASSERT_EQ(robust.checkpoints.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(SameBits(robust.checkpoints[i].estimate, ref[i].estimate))
          << "count checkpoint " << i;
    }
  }
  {
    rank::RandomizedRankOptions opt;
    opt.num_sites = k;
    opt.epsilon = 0.2;
    opt.seed = 79;
    opt.use_batch_compaction = false;  // per-element feed: exact path
    Workload w = stream::MakeRankWorkload(
        k, n, stream::SiteSchedule::kUniformRandom,
        stream::ValueOrder::kUniformRandom, 24, 83);
    rank::RandomizedRankTracker tracker(opt);
    std::vector<Checkpoint> ref = ReplayRank(&tracker, w, 1ull << 23);
    RobustReport robust = RobustReplayRank(opt, w, 1ull << 23, storm);
    ASSERT_TRUE(robust.ok) << robust.error;
    EXPECT_EQ(robust.site_recoveries, static_cast<uint64_t>(k));
    ASSERT_EQ(robust.checkpoints.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(SameBits(robust.checkpoints[i].estimate, ref[i].estimate))
          << "rank checkpoint " << i;
    }
  }
}

// Degenerate schedules the storm generator never draws.
TEST(FaultToleranceTest, ExtremeSchedulesStillConverge) {
  const int k = 3;
  const uint64_t n = 800;
  count::RandomizedCountOptions opt;
  opt.num_sites = k;
  opt.epsilon = 0.1;
  opt.seed = 2;
  Workload w = stream::MakeCountWorkload(
      k, n, stream::SiteSchedule::kBursty, 3);
  RobustReport base = RobustReplayCount(opt, w, RobustOptions());
  ASSERT_TRUE(base.ok);

  // Near-total loss: every frame retransmitted many times.
  RobustOptions lossy;
  lossy.plan.seed = 1;
  lossy.plan.drop_rate = 0.9;
  RobustReport r = RobustReplayCount(opt, w, lossy);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.retransmissions, 0u);
  ASSERT_EQ(r.checkpoints.size(), base.checkpoints.size());
  for (size_t i = 0; i < base.checkpoints.size(); ++i) {
    EXPECT_TRUE(SameBits(r.checkpoints[i].estimate,
                         base.checkpoints[i].estimate));
  }

  // Crash the same site repeatedly, including back-to-back.
  RobustOptions crashy;
  crashy.plan.seed = 2;
  crashy.plan.duplicate_rate = 0.5;
  crashy.plan.snapshot_every = 4;
  crashy.plan.site_crashes = {{100, 0}, {100, 0}, {101, 0}, {400, 0}};
  r = RobustReplayCount(opt, w, crashy);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.site_recoveries, 4u);
  for (size_t i = 0; i < base.checkpoints.size(); ++i) {
    EXPECT_TRUE(SameBits(r.checkpoints[i].estimate,
                         base.checkpoints[i].estimate));
  }

  // Restart the coordinator every few hundred arrivals.
  RobustOptions restarty;
  restarty.plan.seed = 3;
  restarty.plan.reorder_rate = 0.6;
  restarty.plan.max_delay_ticks = 5;
  restarty.plan.coordinator_restarts = {100, 200, 300, 400, 500, 600, 700};
  r = RobustReplayCount(opt, w, restarty);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.coordinator_restarts, 7u);
  for (size_t i = 0; i < base.checkpoints.size(); ++i) {
    EXPECT_TRUE(SameBits(r.checkpoints[i].estimate,
                         base.checkpoints[i].estimate));
  }
}

// The replay guards. A crash replay that strays from the original
// execution must abort loudly instead of re-emitting wrong frames, so
// each guard is pinned here on a replay driven by hand.

count::RandomizedCountOptions GuardCountOptions() {
  count::RandomizedCountOptions opt;
  opt.num_sites = 2;
  opt.epsilon = 0.1;
  return opt;
}

frequency::RandomizedFrequencyOptions GuardFrequencyOptions() {
  frequency::RandomizedFrequencyOptions opt;
  opt.num_sites = 2;
  opt.epsilon = 0.1;
  return opt;
}

rank::RandomizedRankOptions GuardRankOptions(double epsilon) {
  rank::RandomizedRankOptions opt;
  opt.num_sites = 2;
  opt.epsilon = epsilon;
  return opt;
}

// Site 0 has seen two arrivals, so its third fires no coarse report
// (reports fire at local counts 1, 2, 4, ...); a journal claiming that
// arrival broadcast is corrupt.
TEST(FaultToleranceDeathTest, JournaledBroadcastAtAnArrivalWithNoReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const uint64_t n_bar = 3;
  EXPECT_DEATH(
      {
        count::RandomizedCountTracker t(GuardCountOptions());
        t.Arrive(0);
        t.Arrive(0);
        t.BeginCrashReplay(0);
        t.ReplayCrashArrive(0, 0, &n_bar);
      },
      "mid-arrival broadcast at an arrival with no coarse report");
  EXPECT_DEATH(
      {
        frequency::RandomizedFrequencyTracker t(GuardFrequencyOptions());
        t.Arrive(0, 7);
        t.Arrive(0, 7);
        t.BeginCrashReplay(0);
        t.ReplayCrashArrive(0, 7, &n_bar);
      },
      "mid-arrival broadcast at an arrival with no coarse report");
  EXPECT_DEATH(
      {
        rank::RandomizedRankTracker t(GuardRankOptions(0.1));
        t.Arrive(0, 7);
        t.Arrive(0, 7);
        t.BeginCrashReplay(0);
        t.ReplayCrashArrive(0, 7, &n_bar);
      },
      "mid-arrival broadcast at an arrival with no coarse report");
}

// Site 0 is snapshotted first, then site 1's arrivals broadcast several
// rounds that shrink p. Site 0 lost no arrivals, but a replay that skips
// the rituals those rounds imposed on it leaves it on the old round.
TEST(FaultToleranceDeathTest, EndingAReplayThatSkippedARitual) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const uint64_t n = 2000;
  EXPECT_DEATH(
      {
        count::RandomizedCountTracker t(GuardCountOptions());
        std::vector<uint64_t> blob;
        t.SerializeSiteState(0, &blob);
        for (uint64_t i = 0; i < n; ++i) t.Arrive(1);
        t.BeginCrashReplay(0);
        t.RestoreSiteState(0, blob);
        t.EndCrashReplay();
      },
      "did not re-evolve 1/p");
  EXPECT_DEATH(
      {
        frequency::RandomizedFrequencyTracker t(GuardFrequencyOptions());
        std::vector<uint64_t> blob;
        t.SerializeSiteState(0, &blob);
        for (uint64_t i = 0; i < n; ++i) t.Arrive(1, i % 5);
        t.BeginCrashReplay(0);
        t.RestoreSiteState(0, blob);
        t.EndCrashReplay();
      },
      "did not re-evolve the round parameters");
  EXPECT_DEATH(
      {
        rank::RandomizedRankTracker t(GuardRankOptions(0.1));
        std::vector<uint64_t> blob;
        t.SerializeSiteState(0, &blob);
        for (uint64_t i = 0; i < n; ++i) t.Arrive(1, i);
        t.BeginCrashReplay(0);
        t.RestoreSiteState(0, blob);
        t.EndCrashReplay();
      },
      "did not restore the round parameters");
}

// Rank journals the 1/p of every instance a site starts. A replay that
// skips the rituals stays on the first round's one-element chunks, so
// twice the original arrivals start more instances than the journal holds.
TEST(FaultToleranceDeathTest, RankReplayRecreatingExtraInstances) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const uint64_t n = 100;
  EXPECT_DEATH(
      {
        rank::RandomizedRankTracker t(GuardRankOptions(0.01));
        std::vector<uint64_t> blob;
        t.SerializeSiteState(0, &blob);
        for (uint64_t i = 0; i < n; ++i) t.Arrive(0, i);
        t.BeginCrashReplay(0);
        t.RestoreSiteState(0, blob);
        for (uint64_t i = 0; i < 2 * n; ++i) {
          t.ReplayCrashArrive(0, i % n, nullptr);
        }
      },
      "created more instances than the original execution");
}

}  // namespace
}  // namespace sim
}  // namespace disttrack
