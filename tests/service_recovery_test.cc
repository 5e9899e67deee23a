// Site kill + reconnect mid-run, test-pinned: a site hard-crashes
// (_exit(7), no flush, no goodbye) partway through its shard, a
// replacement process resumes — from its snapshot when one exists, from
// position zero otherwise — and the run must end indistinguishable from
// an uninterrupted one: estimates bit-identical to the serial replay of
// the grant journal, and the §1.1 paper ledger equal to the serial
// CommMeter to the message. That equality IS the no-double-counting
// proof: replayed frames re-arrive with their original sequence numbers
// and the coordinator's dedup watermark drops every one (the stats must
// show them as duplicates, not as paper traffic).
//
// Fork-based like service_session_test.cc; skipped under TSan.

#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/coordinator.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_half.h"
#include "disttrack/service/site_runtime.h"
#include "disttrack/sim/site_core.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace service {
namespace {

using sim::wire::Message;
using sim::wire::MsgType;

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DISTTRACK_TSAN 1
#endif
#endif

#ifndef DISTTRACK_TSAN
#define DISTTRACK_TSAN 0
#endif

uint64_t Bits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

class RecoveryFleet {
 public:
  explicit RecoveryFleet(const ServiceOptions& options)
      : options_(options), coordinator_(options) {
    char tmpl[] = "/tmp/disttrack_recovery_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    snapshot_dir_ = dir == nullptr ? "." : dir;
  }

  ~RecoveryFleet() {
    for (pid_t pid : pids_) {
      if (pid > 0) kill(pid, SIGKILL);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) waitpid(pid, nullptr, 0);
    }
    if (snapshot_dir_ == ".") return;  // mkdtemp failed: nothing of ours
    for (int site = 0; site < options_.num_sites; ++site) {
      std::string path = SnapshotPath(snapshot_dir_, site);
      remove(path.c_str());
      remove((path + ".tmp").c_str());
    }
    rmdir(snapshot_dir_.c_str());
  }

  void StartSite(int site, uint64_t crash_after = 0) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(fds[0]);
      for (int fd : parent_fds_) close(fd);
      SiteRuntime::Config config;
      config.options = options_;
      config.site = site;
      config.snapshot_dir = snapshot_dir_;
      config.crash_after = crash_after;
      config.connected_fd = fds[1];
      SiteRuntime runtime(config);
      _exit(runtime.Run());
    }
    close(fds[1]);
    parent_fds_.push_back(fds[0]);
    coordinator_.AdoptConnection(fds[0]);
    if (static_cast<size_t>(site) >= pids_.size()) {
      pids_.resize(static_cast<size_t>(site) + 1, -1);
    }
    pids_[static_cast<size_t>(site)] = pid;
  }

  /// Pumps until the crash-armed site dies; expects the deterministic
  /// crash code.
  void AwaitCrash(int site) {
    pid_t pid = pids_[static_cast<size_t>(site)];
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 20000 && !exited; ++i) {
      exited = waitpid(pid, &status, WNOHANG) == pid;
      if (!exited) coordinator_.PollOnce(5);
    }
    ASSERT_TRUE(exited) << "armed site never crashed";
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 7);
    pids_[static_cast<size_t>(site)] = -1;
    // Drain the dead connection's EOF so the session is marked down
    // before the replacement joins.
    for (int i = 0; i < 50; ++i) coordinator_.PollOnce(5);
  }

  template <typename Predicate>
  bool PumpUntil(Predicate done, int max_rounds = 20000) {
    for (int i = 0; i < max_rounds; ++i) {
      if (done()) return true;
      EXPECT_GE(coordinator_.PollOnce(5), 0);
    }
    return done();
  }

  Coordinator& coordinator() { return coordinator_; }
  const std::string& snapshot_dir() const { return snapshot_dir_; }

 private:
  ServiceOptions options_;
  Coordinator coordinator_;
  std::string snapshot_dir_;
  std::vector<int> parent_fds_;
  std::vector<pid_t> pids_;
};

Message Ask(const Coordinator& coordinator, uint64_t kind, uint64_t b = 0) {
  Message query;
  query.type = MsgType::kQuery;
  query.a = kind;
  query.b = b;
  return coordinator.Query(query);
}

/// Runs a 4-site count fleet with site 2 crashing after `crash_after`
/// arrivals, recovers it, and pins bit-identity + paper-ledger equality.
void RunCountCrash(uint64_t crash_after, uint64_t snapshot_every) {
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  options.snapshot_every = snapshot_every;
  RecoveryFleet fleet(options);
  for (int site = 0; site < 4; ++site) {
    fleet.StartSite(site, site == 2 ? crash_after : 0);
  }
  fleet.AwaitCrash(2);
  fleet.StartSite(2);  // replacement: resumes from snapshot if present
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));

  const Coordinator::Stats& stats = fleet.coordinator().stats();
  EXPECT_EQ(stats.rejoins, 1u);
  std::vector<uint64_t> s = Ask(fleet.coordinator(), kQueryStats).values;
  EXPECT_GE(s[11], 1u) << "recovery replay produced no duplicate frames";
  EXPECT_EQ(s[17], 1u) << "wire-byte ledger broken after recovery";

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  count::RandomizedCountTracker serial(options.CountOptions());
  uint64_t replayed = 0;
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(static_cast<int>(journal.values[i]));
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, options.total_arrivals)
      << "grant journal lost or double-granted arrivals across the crash";

  // No double counting, to the message and to the word: replayed frames
  // were deduplicated, never re-charged.
  EXPECT_EQ(stats.paper_messages, serial.meter().TotalMessages());
  EXPECT_EQ(stats.paper_words, serial.meter().TotalWords());
  EXPECT_EQ(stats.broadcasts, serial.meter().broadcast_count());
  Message estimate = Ask(fleet.coordinator(), kQueryCount);
  EXPECT_EQ(estimate.values[0], Bits(serial.EstimateCount()))
      << "estimate diverged from the serial replay after recovery";
  EXPECT_GT(estimate.values[1], 0u);  // n' advanced past the crash
}

TEST(ServiceRecovery, CrashBeforeFirstSnapshotReplaysFromZero) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Crash at 300 arrivals, snapshots every 512 (none taken yet): the
  // replacement replays the whole shard; dedup swallows the prefix.
  RunCountCrash(/*crash_after=*/300, /*snapshot_every=*/512);
}

TEST(ServiceRecovery, CrashAfterSnapshotResumesFromIt) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  // Crash at 700 arrivals with a snapshot at the 512-boundary: the
  // replacement restores it and replays only the tail.
  RunCountCrash(/*crash_after=*/700, /*snapshot_every=*/256);
}

TEST(ServiceRecovery, RankSiteRecoversMidRun) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kRank;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  options.snapshot_every = 256;
  RecoveryFleet fleet(options);
  for (int site = 0; site < 4; ++site) {
    fleet.StartSite(site, site == 1 ? 900 : 0);
  }
  fleet.AwaitCrash(1);
  fleet.StartSite(1);
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  rank::RandomizedRankTracker serial(options.RankOptions());
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  for (int i = 1; i <= 4; ++i) {
    uint64_t value = options.universe / 5 * static_cast<uint64_t>(i);
    Message rank = Ask(fleet.coordinator(), kQueryRank, value);
    EXPECT_EQ(rank.values[0], Bits(serial.EstimateRank(value)))
        << "rank estimate at " << value << " diverged after recovery";
  }
  EXPECT_EQ(fleet.coordinator().stats().paper_messages,
            serial.meter().TotalMessages());
  EXPECT_EQ(fleet.coordinator().stats().paper_words,
            serial.meter().TotalWords());
}

// --- Snapshot blobs the site refuses -----------------------------------------
//
// A snapshot file whose checksum matches but whose blob disagrees with
// its own header words (a blob cut short, one with a word too many, a
// frequency blob whose counter count overruns it) reads back fine: the
// file layer cannot tell. The site class refuses it without reading past
// the blob's end, and the site starts fresh, as after a torn file. A
// snapshot whose site_arrivals disagrees with the count in its blob is
// refused the same way.

ServiceOptions RecoveryOptions(TrackerKind tracker) {
  ServiceOptions options;
  options.tracker = tracker;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  options.snapshot_every = 256;
  return options;
}

// Site `site`'s snapshot after a ritual and at least 256 arrivals of its
// stream, taken at the first point the site allows.
SiteSnapshot LiveSnapshot(const ServiceOptions& options, int site) {
  std::unique_ptr<SiteHalf> half = SiteHalf::Create(options, site);
  half->ApplyRitual(uint64_t{1} << 12);
  SiteSnapshot snap;
  while (snap.site_arrivals < 256 || !half->SnapshotReady()) {
    half->Arrive(WorkloadKey(options, site, snap.site_arrivals++));
  }
  half->Serialize(&snap.blob);
  snap.round = 1;  // the broadcast of the ritual above
  snap.options_hash = options.Hash();
  snap.site = site;
  return snap;
}

// The ways a checksummed blob can disagree with its header words, and a
// round parameter out of range: log2(1/p) (count's and frequency's first
// word) or the tree height (rank's fifth) of 64, past any shift.
std::vector<std::vector<uint64_t>> RefusedBlobs(
    TrackerKind tracker, const std::vector<uint64_t>& blob) {
  std::vector<std::vector<uint64_t>> bad;
  bad.emplace_back(blob.begin(), blob.end() - 1);  // cut short
  bad.push_back(blob);
  bad.back().push_back(0);  // a word too many
  if (tracker == TrackerKind::kFrequency) {
    // The header counts one more counter than the blob holds.
    bad.emplace_back(blob.begin(), blob.end() - 2);
  }
  bad.push_back(blob);
  bad.back()[tracker == TrackerKind::kRank ? 4 : 0] = 64;
  return bad;
}

struct NullLink : sim::SiteLink {
  void SendUp(const std::vector<uint8_t>&) override {}
  bool PumpDown() override { return false; }
};

TEST(ServiceRecovery, RefusedSnapshotBlobLeavesTheSiteFresh) {
  for (TrackerKind tracker :
       {TrackerKind::kCount, TrackerKind::kFrequency, TrackerKind::kRank}) {
    SCOPED_TRACE(static_cast<int>(tracker));
    ServiceOptions options = RecoveryOptions(tracker);
    SiteSnapshot live = LiveSnapshot(options, 1);
    if (tracker == TrackerKind::kFrequency) {
      ASSERT_GT(live.blob.size(), 20u) << "no counters to overrun";
    }
    NullLink link;
    sim::SiteCore fresh(1, SiteHalf::Create(options, 1), &link);
    const std::vector<uint64_t> fresh_blob = fresh.TakeSnapshot().blob;
    ASSERT_NE(fresh_blob, live.blob);

    char tmpl[] = "/tmp/disttrack_refused_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string path = SnapshotPath(dir, 1);
    std::vector<SiteSnapshot> refused;
    for (const std::vector<uint64_t>& blob : RefusedBlobs(tracker, live.blob)) {
      refused.push_back(live);
      refused.back().blob = blob;
    }
    // The live blob under an arrival count its coarse count disagrees
    // with.
    refused.push_back(live);
    refused.back().site_arrivals += 1;
    for (const SiteSnapshot& bad : refused) {
      std::string error;
      ASSERT_TRUE(WriteSnapshotFile(path, bad, &error)) << error;
      SiteSnapshot read;
      ASSERT_TRUE(ReadSnapshotFile(path, options.Hash(), &read));
      ASSERT_EQ(read.blob, bad.blob);
      ASSERT_EQ(read.round, bad.round);

      sim::SiteCore core(1, SiteHalf::Create(options, 1), &link);
      EXPECT_FALSE(core.Restore(read))
          << "blob of " << bad.blob.size() << " words at "
          << bad.site_arrivals << " arrivals restored";
      sim::SiteCore::Snapshot after = core.TakeSnapshot();
      EXPECT_EQ(after.blob, fresh_blob);
      EXPECT_EQ(after.site_arrivals, 0u);
      EXPECT_EQ(after.up_next_seq, 1u);
      EXPECT_EQ(after.down_watermark, 0u);
      EXPECT_EQ(after.round, 0u);
    }
    // The live blob itself restores.
    sim::SiteCore core(1, SiteHalf::Create(options, 1), &link);
    EXPECT_TRUE(core.Restore(live));
    EXPECT_EQ(core.TakeSnapshot().blob, live.blob);
    EXPECT_EQ(core.TakeSnapshot().round, live.round);
    remove(path.c_str());
    rmdir(dir);
  }
}

// The site process end to end: site 1 finds a checksummed snapshot file
// it refuses, starts fresh (it joins without the resume flag), and the
// fleet ends exactly as the serial replay of the grant journal does.
template <typename Tracker, typename Options>
void ExpectSerialLedger(RecoveryFleet& fleet, const ServiceOptions& options,
                        const Options& tracker_options) {
  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  Tracker serial(tracker_options);
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      uint64_t key =
          WorkloadKey(options, site, position[static_cast<size_t>(site)]++);
      if constexpr (std::is_same_v<Tracker, count::RandomizedCountTracker>) {
        serial.Arrive(site);
      } else {
        serial.Arrive(site, key);
      }
    }
  }
  const Coordinator::Stats& stats = fleet.coordinator().stats();
  EXPECT_EQ(stats.paper_messages, serial.meter().TotalMessages());
  EXPECT_EQ(stats.paper_words, serial.meter().TotalWords());
  if constexpr (std::is_same_v<Tracker, count::RandomizedCountTracker>) {
    EXPECT_EQ(Ask(fleet.coordinator(), kQueryCount).values[0],
              Bits(serial.EstimateCount()));
  } else if constexpr (std::is_same_v<Tracker,
                                      frequency::RandomizedFrequencyTracker>) {
    EXPECT_EQ(Ask(fleet.coordinator(), kQueryPoint, 3).values[0],
              Bits(serial.EstimateFrequency(3)));
  } else {
    uint64_t value = options.universe / 2;
    EXPECT_EQ(Ask(fleet.coordinator(), kQueryRank, value).values[0],
              Bits(serial.EstimateRank(value)));
  }
}

TEST(ServiceRecovery, SiteRefusingItsSnapshotStartsFresh) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  for (TrackerKind tracker :
       {TrackerKind::kCount, TrackerKind::kFrequency, TrackerKind::kRank}) {
    ServiceOptions options = RecoveryOptions(tracker);
    SiteSnapshot live = LiveSnapshot(options, 1);
    for (const std::vector<uint64_t>& blob : RefusedBlobs(tracker, live.blob)) {
      SCOPED_TRACE(testing::Message() << "tracker " << static_cast<int>(tracker)
                                      << ", blob of " << blob.size()
                                      << " words");
      RecoveryFleet fleet(options);
      SiteSnapshot bad = live;
      bad.blob = blob;
      std::string error;
      ASSERT_TRUE(WriteSnapshotFile(SnapshotPath(fleet.snapshot_dir(), 1), bad,
                                    &error))
          << error;
      for (int site = 0; site < 4; ++site) fleet.StartSite(site);
      ASSERT_TRUE(
          fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));
      EXPECT_EQ(fleet.coordinator().stats().rejoins, 0u);
      switch (tracker) {
        case TrackerKind::kCount:
          ExpectSerialLedger<count::RandomizedCountTracker>(
              fleet, options, options.CountOptions());
          break;
        case TrackerKind::kFrequency:
          ExpectSerialLedger<frequency::RandomizedFrequencyTracker>(
              fleet, options, options.FrequencyOptions());
          break;
        case TrackerKind::kRank:
          ExpectSerialLedger<rank::RandomizedRankTracker>(
              fleet, options, options.RankOptions());
          break;
      }
    }
  }
}

}  // namespace
}  // namespace service
}  // namespace disttrack
