// Differential fault-tolerance tests (robustness PR acceptance): a run
// under any seeded fault schedule — drops, duplicates, reorders, delays,
// site crashes mid-epoch, coordinator restarts — must end bit-identical
// to the fault-free run for count, frequency, and rank, with the wire
// bytes matching CommMeter's frame accounting exactly.
//
// The RobustReplay* engine already self-checks the strongest invariants
// against its serial oracle (every site frame, every broadcast handed to
// a site, every site snapshot, the paper ledger after every run, the
// replica estimate at checkpoints, byte conservation) and reports any
// violation through RobustReport::ok. These tests drive the sweep,
// compare fault runs against the fault-free baseline checkpoint by
// checkpoint, and cross-check the robust engine against the serial
// reference drivers. The SiteCore tests at the end pin the site protocol
// on its own: how a parked report resolves, and that a wrong downlink is
// caught by the same frame and state comparisons.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/robust_cluster.h"
#include "disttrack/sim/site_core.h"
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
              const std::function<RobustReport(const FaultPlan&)>& run,
              SweepStats* stats) {
  RobustReport base = run(FaultPlan());
  ASSERT_TRUE(base.ok) << tag << " fault-free: " << base.error;
  EXPECT_EQ(base.retransmit_bytes, 0u) << tag;  // nothing to recover from
  EXPECT_EQ(base.retransmissions, 0u) << tag;
  EXPECT_EQ(base.frames_deduped, 0u) << tag;
  EXPECT_EQ(base.link_bytes_offered, base.wire_bytes + base.overhead_bytes)
      << tag;

  for (int i = 0; i < kSweepSeeds; ++i) {
    uint64_t seed = seed_base + static_cast<uint64_t>(i);
    RobustReport report = run(FaultPlan::FromSeed(seed, n, k));
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
      [&](const FaultPlan& plan) { return RobustReplayCount(opt, w, plan); },
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
      [&](const FaultPlan& plan) {
        return RobustReplayFrequency(opt, w, query, plan);
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
      [&](const FaultPlan& plan) {
        return RobustReplayRank(opt, w, query, plan);
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
    RobustReport robust = RobustReplayCount(opt, w, FaultPlan());
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
    RobustReport robust = RobustReplayFrequency(opt, w, 1, FaultPlan());
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
        RobustReplayRank(opt, w, 1ull << 21, FaultPlan());
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

  FaultPlan storm;
  storm.seed = 424242;
  storm.drop_rate = 0.25;
  storm.duplicate_rate = 0.2;
  storm.reorder_rate = 0.3;
  storm.max_delay_ticks = 3;
  storm.snapshot_every = 16;
  // Crash every site at least once, mid-stream; restart the coordinator
  // twice.
  for (int s = 0; s < k; ++s) {
    storm.site_crashes.push_back(
        {n / 4 + static_cast<uint64_t>(s) * (n / (2 * k)), s});
  }
  storm.coordinator_restarts = {n / 3, (2 * n) / 3};

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
  RobustReport base = RobustReplayCount(opt, w, FaultPlan());
  ASSERT_TRUE(base.ok);

  // Near-total loss: every frame retransmitted many times.
  FaultPlan lossy;
  lossy.seed = 1;
  lossy.drop_rate = 0.9;
  RobustReport r = RobustReplayCount(opt, w, lossy);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.retransmissions, 0u);
  ASSERT_EQ(r.checkpoints.size(), base.checkpoints.size());
  for (size_t i = 0; i < base.checkpoints.size(); ++i) {
    EXPECT_TRUE(SameBits(r.checkpoints[i].estimate,
                         base.checkpoints[i].estimate));
  }

  // Crash the same site repeatedly, including back-to-back.
  FaultPlan crashy;
  crashy.seed = 2;
  crashy.duplicate_rate = 0.5;
  crashy.snapshot_every = 4;
  crashy.site_crashes = {{100, 0}, {100, 0}, {101, 0}, {400, 0}};
  r = RobustReplayCount(opt, w, crashy);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.site_recoveries, 4u);
  for (size_t i = 0; i < base.checkpoints.size(); ++i) {
    EXPECT_TRUE(SameBits(r.checkpoints[i].estimate,
                         base.checkpoints[i].estimate));
  }

  // Restart the coordinator every few hundred arrivals.
  FaultPlan restarty;
  restarty.seed = 3;
  restarty.reorder_rate = 0.6;
  restarty.max_delay_ticks = 5;
  restarty.coordinator_restarts = {100, 200, 300, 400, 500, 600, 700};
  r = RobustReplayCount(opt, w, restarty);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.coordinator_restarts, 7u);
  for (size_t i = 0; i < base.checkpoints.size(); ++i) {
    EXPECT_TRUE(SameBits(r.checkpoints[i].estimate,
                         base.checkpoints[i].estimate));
  }
}

// --- The site protocol, in isolation ---------------------------------------

wire::Message Frame(wire::MsgType type, uint64_t a, uint64_t b = 0,
                    uint64_t c = 0) {
  wire::Message msg;
  msg.type = type;
  msg.site = 0;
  msg.a = a;
  msg.b = b;
  msg.c = c;
  return msg;
}

/// A site's transport in a test: records every uplink frame with its seq,
/// sends downlink frames in sequence, and answers a parked report through
/// `decide(report seq, report)`, which sends the decision.
struct TestLink : SiteLink {
  SiteCore* core = nullptr;
  std::vector<wire::Message> up;
  std::vector<uint64_t> up_seq;
  uint64_t down_seq = 0;
  int pumps = 0;
  std::function<void(uint64_t, const wire::Message&)> decide;

  void SendUp(const std::vector<uint8_t>& frame) override {
    wire::Message msg;
    uint64_t seq = 0;
    EXPECT_TRUE(wire::DecodeFrame(frame.data(), frame.size(), &msg, &seq));
    up.push_back(std::move(msg));
    up_seq.push_back(seq);
  }
  bool PumpDown() override {
    ++pumps;
    EXPECT_EQ(up.back().type, wire::MsgType::kCoarseReport);
    decide(up_seq.back(), up.back());
    return true;
  }
  void Send(wire::Message msg) { core->Receive(++down_seq, std::move(msg)); }
};

std::unique_ptr<SiteCore> CountSite(TestLink* link) {
  count::RandomizedCountOptions opt;
  opt.num_sites = 2;
  opt.epsilon = 0.1;
  auto core = std::make_unique<SiteCore>(
      0, std::make_unique<HostedSite<count::CountSite>>(opt, 0), link);
  link->core = core.get();
  return core;
}

// A parked report is resolved by its decision: kNoBroadcast just releases
// it, a kBroadcast naming it runs the ritual reentrantly and stages the
// kRitualAck before the arrival that reported returns.
TEST(SiteCoreTest, ParkedReportResolvesOnItsDecision) {
  TestLink link;
  std::unique_ptr<SiteCore> site = CountSite(&link);
  // The coordinator of the test: another site has already reported 100.
  count::CoarseMirror mirror;
  ASSERT_TRUE(mirror.ApplyReport(100));
  link.Send(Frame(wire::MsgType::kBroadcast, mirror.round, mirror.n_bar));
  ASSERT_EQ(link.up.size(), 1u);  // idle: the ritual ran at once
  EXPECT_EQ(link.up[0].type, wire::MsgType::kRitualAck);
  EXPECT_EQ(link.up[0].a, 1u);  // downlink seq of the broadcast
  EXPECT_EQ(link.up[0].epoch, 1u);

  uint64_t quiet = 0;
  uint64_t report_seq = 0;
  uint64_t broadcast_seq = 0;
  link.decide = [&](uint64_t seq, const wire::Message& report) {
    if (!mirror.ApplyReport(report.a)) {
      ++quiet;
      link.Send(Frame(wire::MsgType::kNoBroadcast, seq));
      return;
    }
    report_seq = seq;
    link.Send(Frame(wire::MsgType::kBroadcast, mirror.round, mirror.n_bar,
                    seq));
    broadcast_seq = link.down_seq;
  };
  // Reports at local counts 1, 2, 4, ..., 64 keep n' below 2n̄ = 200; the
  // one at 128 (delta 64) lifts it to 228 and broadcasts.
  link.Send(Frame(wire::MsgType::kGrant, 128));
  ASSERT_TRUE(site->granted());
  site->RunGrant([](uint64_t) { return 0; });
  ASSERT_TRUE(site->live()) << site->error();
  EXPECT_EQ(link.pumps, 8);
  EXPECT_EQ(quiet, 7u);
  ASSERT_NE(broadcast_seq, 0u);
  EXPECT_EQ(site->position(), 128u);

  // The ritual ran inside the parked arrival: everything after the
  // broadcasting report carries the new round, and the ritual ack names
  // the broadcast and the position mid-arrival.
  size_t report = 0;
  while (report < link.up.size() && link.up_seq[report] != report_seq) {
    ++report;
  }
  ASSERT_LT(report, link.up.size());
  EXPECT_EQ(link.up[report].epoch, 1u);
  size_t ack = report;
  while (ack < link.up.size() &&
         link.up[ack].type != wire::MsgType::kRitualAck) {
    ++ack;
  }
  ASSERT_LT(ack, link.up.size());
  EXPECT_EQ(link.up[ack].a, broadcast_seq);
  EXPECT_EQ(link.up[ack].b, 127u);
  for (size_t i = report + 1; i < link.up.size(); ++i) {
    EXPECT_EQ(link.up[i].epoch, 2u) << "frame " << i;
  }
  EXPECT_EQ(link.up.back().type, wire::MsgType::kGrantDone);
  EXPECT_EQ(link.up.back().a, 128u);
  EXPECT_TRUE(site->SnapshotReady());
}

// A snapshot keeps the round of the last broadcast the site applied: the
// broadcasts up to its watermark are not re-sent, and a restored site
// must stamp its frames with that round (the rank coordinator files each
// rank frame under its epoch).
TEST(SiteCoreTest, RestoredSiteStampsItsRound) {
  TestLink link;
  std::unique_ptr<SiteCore> live = CountSite(&link);
  link.Send(Frame(wire::MsgType::kBroadcast, 3, 100));
  ASSERT_TRUE(live->SnapshotReady());
  const SiteCore::Snapshot snap = live->TakeSnapshot();
  EXPECT_EQ(snap.round, 3u);

  TestLink restored_link;
  std::unique_ptr<SiteCore> restored = CountSite(&restored_link);
  ASSERT_TRUE(restored->Restore(snap));
  restored_link.down_seq = snap.down_watermark;
  restored_link.decide = [&](uint64_t seq, const wire::Message&) {
    restored_link.Send(Frame(wire::MsgType::kNoBroadcast, seq));
  };
  restored_link.Send(Frame(wire::MsgType::kGrant, 1));
  restored->RunGrant([](uint64_t) { return 0; });
  ASSERT_TRUE(restored->live()) << restored->error();
  ASSERT_FALSE(restored_link.up.empty());
  EXPECT_EQ(restored_link.up[0].type, wire::MsgType::kCoarseReport);
  for (const wire::Message& msg : restored_link.up) {
    EXPECT_EQ(msg.epoch, 3u) << "frame type " << static_cast<int>(msg.type);
  }
}

TEST(SiteCoreTest, UnexpectedNoBroadcastFailsTheSite) {
  TestLink link;
  std::unique_ptr<SiteCore> site = CountSite(&link);
  link.Send(Frame(wire::MsgType::kNoBroadcast, 1));
  EXPECT_TRUE(site->failed());
  EXPECT_NE(site->error().find("unexpected kNoBroadcast"), std::string::npos);
}

// --- The differential catches a wrong downlink -----------------------------
//
// Site 0 of a two-site fleet, fed the downlink the coordinator would send
// it: the broadcasts site 1's runs trigger between site 0's grants, and a
// decision for each of site 0's coarse reports. The oracle (a serial
// tracker) records that downlink and site 0's frames. A live core runs
// the first half; a core restored from its snapshot runs the rest, with
// `tamper` applied to the broadcasts it is handed. The result says whether
// the restored core's frames and final state are the oracle's — the
// checks the fault harness makes of every site.

struct Downlink {
  uint64_t grant = 0;  ///< arrivals granted, or 0 for a broadcast
  uint64_t round = 0;
  uint64_t n_bar = 0;
};

struct OracleTap : wire::WireTap {
  std::vector<wire::Message> frames;  // site 0's
  std::vector<Downlink> downlink;     // broadcasts between site 0's runs
  std::vector<Downlink> decisions;    // per site-0 report; round 0: quiet
  bool reported = false;              // the last frame was site 0's report

  void OnMessage(wire::Message&& msg) override {
    bool report = msg.site == 0 && msg.type == wire::MsgType::kCoarseReport;
    if (msg.site < 0) {
      Downlink broadcast{0, msg.a, msg.b};
      if (reported) {
        decisions.back() = broadcast;
      } else {
        downlink.push_back(broadcast);
      }
    } else if (msg.site == 0) {
      if (report) decisions.emplace_back();
      frames.push_back(std::move(msg));
    }
    reported = report;
  }
};

struct Verdict {
  bool frames_match = false;
  bool state_match = false;
};

template <typename Tracker, typename Options>
Verdict ReplayRestoredSite(
    const Options& options,
    const std::function<void(std::vector<Downlink>*)>& tamper,
    uint64_t grant) {
  auto key = [](uint64_t i) { return (i * 2654435761u) % 4096; };
  Tracker oracle(options);
  OracleTap tap;
  oracle.set_wire_tap(&tap);
  auto arrive = [&](int site, uint64_t value) {
    if constexpr (std::is_same_v<Tracker, count::RandomizedCountTracker>) {
      oracle.Arrive(site);
    } else {
      oracle.Arrive(site, value);
    }
  };
  // Site 0 takes at least 16 arrivals a phase, in grants of `grant`.
  const uint64_t grants_per_phase = grant < 16 ? 16 / grant : 1;
  uint64_t site0 = 0;
  for (int phase = 0; phase < 6; ++phase) {
    for (uint64_t i = 0; i < (uint64_t{200} << phase); ++i) arrive(1, key(i));
    for (uint64_t g = 0; g < grants_per_phase; ++g) {
      tap.downlink.push_back(Downlink{grant, 0, 0});
      for (uint64_t i = 0; i < grant; ++i) arrive(0, key(site0++));
    }
  }

  auto run = [&](SiteCore* core, TestLink* link, size_t* decision,
                 const std::vector<Downlink>& events, size_t from,
                 size_t to) {
    link->decide = [&, link, decision](uint64_t seq, const wire::Message&) {
      const Downlink& d = tap.decisions[(*decision)++];
      if (d.round == 0) {
        link->Send(Frame(wire::MsgType::kNoBroadcast, seq));
      } else {
        link->Send(Frame(wire::MsgType::kBroadcast, d.round, d.n_bar, seq));
      }
    };
    for (size_t e = from; e < to && core->live(); ++e) {
      if (events[e].grant) {
        link->Send(Frame(wire::MsgType::kGrant, events[e].grant));
        core->RunGrant(key);
      } else {
        link->Send(Frame(wire::MsgType::kBroadcast, events[e].round,
                         events[e].n_bar));
      }
    }
  };
  auto make = [&](TestLink* link) {
    auto core = std::make_unique<SiteCore>(
        0, std::make_unique<HostedSite<typename Tracker::Site>>(options, 0),
        link);
    link->core = core.get();
    return core;
  };

  // The live core runs the first half and snapshots where it can.
  const size_t half = tap.downlink.size() / 2;
  TestLink live_link;
  std::unique_ptr<SiteCore> live = make(&live_link);
  SiteCore::Snapshot snap = live->TakeSnapshot();
  size_t snap_event = 0, snap_decision = 0, snap_frames = 0;
  size_t decision = 0;
  for (size_t e = 0; e < half; ++e) {
    run(live.get(), &live_link, &decision, tap.downlink, e, e + 1);
    if (live->SnapshotReady()) {
      snap = live->TakeSnapshot();
      snap_event = e + 1;
      snap_decision = decision;
      snap_frames = 0;
      for (const wire::Message& m : live_link.up) {
        if (m.type != wire::MsgType::kRitualAck &&
            m.type != wire::MsgType::kGrantDone) {
          ++snap_frames;
        }
      }
    }
  }

  // A fresh core restored from the snapshot runs the rest.
  std::vector<Downlink> events = tap.downlink;
  tamper(&events);
  TestLink link;
  link.down_seq = snap.down_watermark;
  std::unique_ptr<SiteCore> restored = make(&link);
  EXPECT_TRUE(restored->Restore(snap));
  decision = snap_decision;
  run(restored.get(), &link, &decision, events, snap_event, events.size());

  Verdict verdict;
  std::vector<wire::Message> sent;
  for (const wire::Message& m : link.up) {
    if (m.type != wire::MsgType::kRitualAck &&
        m.type != wire::MsgType::kGrantDone) {
      sent.push_back(m);
    }
  }
  verdict.frames_match =
      restored->live() && sent.size() + snap_frames == tap.frames.size();
  for (size_t i = 0; verdict.frames_match && i < sent.size(); ++i) {
    const wire::Message& a = sent[i];
    const wire::Message& b = tap.frames[snap_frames + i];
    verdict.frames_match = a.type == b.type && a.a == b.a && a.b == b.b &&
                           a.c == b.c && a.values == b.values &&
                           a.segments == b.segments;
  }
  if (restored->SnapshotReady() && oracle.site(0).SnapshotReady()) {
    std::vector<uint64_t> want;
    oracle.site(0).Serialize(&want);
    verdict.state_match = restored->TakeSnapshot().blob == want;
  } else {
    verdict.state_match = restored->SnapshotReady() ==
                          oracle.site(0).SnapshotReady();
  }
  return verdict;
}

// The broadcasts handed to the restored core, from its first on.
void DropFirstTailBroadcast(std::vector<Downlink>* events) {
  for (size_t e = events->size() / 2; e < events->size(); ++e) {
    if ((*events)[e].grant == 0) {
      events->erase(events->begin() + static_cast<std::ptrdiff_t>(e));
      return;
    }
  }
  ADD_FAILURE() << "no broadcast to drop";
}

void SkewFirstTailBroadcast(std::vector<Downlink>* events) {
  for (size_t e = events->size() / 2; e < events->size(); ++e) {
    if ((*events)[e].grant == 0) {
      (*events)[e].n_bar *= 4;
      return;
    }
  }
  ADD_FAILURE() << "no broadcast to skew";
}

template <typename Tracker, typename Options>
void ExpectDifferentialCatchesBadDownlinks(const Options& options) {
  Verdict clean = ReplayRestoredSite<Tracker>(
      options, [](std::vector<Downlink>*) {}, 16);
  EXPECT_TRUE(clean.frames_match) << "the untouched downlink diverged";
  EXPECT_TRUE(clean.state_match) << "the untouched downlink diverged";
  Verdict dropped =
      ReplayRestoredSite<Tracker>(options, DropFirstTailBroadcast, 16);
  EXPECT_FALSE(dropped.frames_match && dropped.state_match)
      << "a missing kBroadcast went unnoticed";
  Verdict skewed =
      ReplayRestoredSite<Tracker>(options, SkewFirstTailBroadcast, 16);
  EXPECT_FALSE(skewed.frames_match && skewed.state_match)
      << "a wrong n̄ went unnoticed";
  // Grants of 1, 37 and 2048 arrivals straddle broadcasts and rank's
  // leaf and chunk ends; fed each grant in blocks, the hosted site must
  // still be the oracle's site.
  for (uint64_t grant : {1, 37, 2048}) {
    Verdict run = ReplayRestoredSite<Tracker>(
        options, [](std::vector<Downlink>*) {}, grant);
    EXPECT_TRUE(run.frames_match) << "grants of " << grant << " diverged";
    EXPECT_TRUE(run.state_match) << "grants of " << grant << " diverged";
  }
}

TEST(SiteCoreTest, CountDifferentialCatchesMissingOrWrongBroadcast) {
  count::RandomizedCountOptions opt;
  opt.num_sites = 2;
  opt.epsilon = 0.05;
  ExpectDifferentialCatchesBadDownlinks<count::RandomizedCountTracker>(opt);
}

TEST(SiteCoreTest, FrequencyDifferentialCatchesMissingOrWrongBroadcast) {
  frequency::RandomizedFrequencyOptions opt;
  opt.num_sites = 2;
  opt.epsilon = 0.05;
  ExpectDifferentialCatchesBadDownlinks<frequency::RandomizedFrequencyTracker>(
      opt);
}

TEST(SiteCoreTest, RankDifferentialCatchesMissingOrWrongBroadcast) {
  // At eps = 0.5 the rounds from n̄ = 272 on build trees, so the tampered
  // broadcast of the run's second half opens a tree round. A site in a
  // forward round reads nothing of a broadcast but the next round's
  // parameters, so a broadcast dropped or skewed between two forward
  // rounds leaves its frames and state as they were (at eps = 0.05 every
  // round of this stream but its last forwards).
  rank::RandomizedRankOptions opt;
  opt.num_sites = 2;
  opt.epsilon = 0.5;
  ExpectDifferentialCatchesBadDownlinks<rank::RandomizedRankTracker>(opt);
}

}  // namespace
}  // namespace sim
}  // namespace disttrack
