// Coordinator + site processes end to end, in miniature: the parent runs
// a steppable Coordinator (AdoptConnection + PollOnce — no listener, no
// daemon loop) and each site is a real fork()ed SiteRuntime on one end of
// a socketpair. Pins the service protocol proper: join handshake, grant
// admission, blocking broadcast decisions, queries over the wire, the
// §1.1 paper ledger reconciling with a serial CommMeter to the message,
// and the wire-byte ledger (socket bytes == encoded frame bytes).
//
// Fork-without-exec is deliberate (no binary paths to plumb); the forking
// tests are skipped under TSan, which cannot follow multiprocess tests.
// The hostile-peer test at the end needs no fork and runs everywhere.

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/service/coordinator.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_runtime.h"
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

/// A fleet of fork()ed sites wired to an in-process coordinator.
class Fleet {
 public:
  explicit Fleet(const ServiceOptions& options)
      : options_(options), coordinator_(options) {}

  ~Fleet() {
    for (pid_t pid : pids_) {
      if (pid > 0) kill(pid, SIGKILL);
    }
    for (pid_t pid : pids_) {
      if (pid > 0) waitpid(pid, nullptr, 0);
    }
  }

  /// Forks one site; the child never returns. `snapshot_dir` and
  /// `crash_after` plumb straight into SiteRuntime::Config.
  void StartSite(int site, const std::string& snapshot_dir = "",
                 uint64_t crash_after = 0) {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // The child owns fds[1] only: close the parent end plus every fd
      // inherited from earlier sites, or their EOFs would never fire.
      close(fds[0]);
      for (int fd : parent_fds_) close(fd);
      SiteRuntime::Config config;
      config.options = options_;
      config.site = site;
      config.snapshot_dir = snapshot_dir;
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

  /// Pumps the event loop until `done()` or the deadline trips.
  template <typename Predicate>
  bool PumpUntil(Predicate done, int max_rounds = 20000) {
    for (int i = 0; i < max_rounds; ++i) {
      if (done()) return true;
      EXPECT_GE(coordinator_.PollOnce(5), 0);
    }
    return done();
  }

  /// Waits for `site`'s process to exit; returns its exit code (pumping
  /// the coordinator so the fleet keeps making progress meanwhile).
  int AwaitExit(int site) {
    pid_t pid = pids_[static_cast<size_t>(site)];
    int status = 0;
    for (int i = 0; i < 20000; ++i) {
      pid_t r = waitpid(pid, &status, WNOHANG);
      if (r == pid) {
        pids_[static_cast<size_t>(site)] = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      coordinator_.PollOnce(5);
    }
    return -2;  // never exited
  }

  void ShutdownAndReap() {
    // A client connection delivers kShutdown, like the real daemon.
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    coordinator_.AdoptConnection(fds[0]);
    parent_fds_.push_back(fds[0]);
    Message bye;
    bye.type = MsgType::kShutdown;
    std::vector<uint8_t> frame;
    sim::wire::EncodeFrame(bye, 0, &frame);
    ASSERT_TRUE(WriteAll(fds[1], frame.data(), frame.size()));
    close(fds[1]);
    ASSERT_TRUE(PumpUntil([&] { return coordinator_.ShutdownComplete(); }));
    for (size_t site = 0; site < pids_.size(); ++site) {
      if (pids_[site] < 0) continue;
      EXPECT_EQ(AwaitExit(static_cast<int>(site)), 0) << "site " << site;
    }
  }

  Coordinator& coordinator() { return coordinator_; }

 private:
  ServiceOptions options_;
  Coordinator coordinator_;
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

std::vector<uint64_t> StatsVector(const Coordinator& coordinator) {
  return Ask(coordinator, kQueryStats).values;
}

TEST(ServiceSession, LockstepCountFleetMatchesSerialBitForBit) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  Fleet fleet(options);
  for (int site = 0; site < options.num_sites; ++site) fleet.StartSite(site);
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));

  // Serial replay of the coordinator's grant journal: same arrival order,
  // same per-site streams, so everything must agree exactly.
  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  count::RandomizedCountTracker serial(options.CountOptions());
  std::vector<uint64_t> position(4, 0);
  uint64_t replayed = 0;
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site);
      ++position[static_cast<size_t>(site)];
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, options.total_arrivals);

  Message estimate = Ask(fleet.coordinator(), kQueryCount);
  EXPECT_EQ(estimate.values[0], Bits(serial.EstimateCount()));
  EXPECT_GT(estimate.values[1], 0u);  // n' has advanced

  const Coordinator::Stats& stats = fleet.coordinator().stats();
  EXPECT_EQ(stats.paper_messages, serial.meter().TotalMessages());
  EXPECT_EQ(stats.paper_words, serial.meter().TotalWords());
  EXPECT_EQ(stats.broadcasts, serial.meter().broadcast_count());

  // Wire-byte ledger: every socket byte is a frame byte, both ways.
  std::vector<uint64_t> s = StatsVector(fleet.coordinator());
  EXPECT_EQ(s[17], 1u) << "bytes_in=" << s[4] << " encoded_in=" << s[6]
                       << " bytes_out=" << s[5] << " encoded_out=" << s[7]
                       << " pending=" << s[8];

  fleet.ShutdownAndReap();
}

TEST(ServiceSession, FrequencyQueriesOverTheFleet) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kFrequency;
  options.num_sites = 4;
  options.total_arrivals = 8000;
  options.grant_max = 512;
  Fleet fleet(options);
  for (int site = 0; site < options.num_sites; ++site) fleet.StartSite(site);
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));

  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  frequency::RandomizedFrequencyTracker serial(options.FrequencyOptions());
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  for (uint64_t item = 0; item < 16; ++item) {
    Message point = Ask(fleet.coordinator(), kQueryPoint, item);
    EXPECT_EQ(point.values[0], Bits(serial.EstimateFrequency(item)))
        << "hot item " << item;
  }
  // The skewed synthetic stream concentrates 3/4 of arrivals on 16 items:
  // all of them must surface as phi = 0.01 heavy hitters.
  Message hh = Ask(fleet.coordinator(), kQueryHeavyHitters, Bits(0.01));
  EXPECT_GE(hh.values.size() / 2, 8u);
  fleet.ShutdownAndReap();
}

TEST(ServiceSession, FreerunFleetCompletesWithinEpsilon) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.mode = RunMode::kFreerun;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  Fleet fleet(options);
  for (int site = 0; site < options.num_sites; ++site) fleet.StartSite(site);
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));
  Message estimate = Ask(fleet.coordinator(), kQueryCount);
  double est = 0;
  uint64_t bits = estimate.values[0];
  memcpy(&est, &bits, sizeof(est));
  double n = static_cast<double>(options.total_arrivals);
  EXPECT_NEAR(est, n, 0.10 * n) << "freerun far outside the ε guarantee";
  fleet.ShutdownAndReap();
}

TEST(ServiceSession, MismatchedOptionsHashIsRejected) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.num_sites = 2;
  options.total_arrivals = 100;
  Fleet fleet(options);
  // Site 0 joins with a different epsilon: kJoin carries the fleet hash
  // and the coordinator must turn it away (exit code 2).
  ServiceOptions wrong = options;
  wrong.epsilon = 0.2;
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    SiteRuntime::Config config;
    config.options = wrong;
    config.site = 0;
    config.connected_fd = fds[1];
    SiteRuntime runtime(config);
    _exit(runtime.Run());
  }
  close(fds[1]);
  fleet.coordinator().AdoptConnection(fds[0]);
  int status = 0;
  for (int i = 0; i < 20000; ++i) {
    if (waitpid(pid, &status, WNOHANG) == pid) break;
    fleet.coordinator().PollOnce(5);
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
}

TEST(ServiceSession, FrameForAnotherSiteClosesTheConnection) {
  // No fork: this test speaks the wire protocol itself. It joins as site
  // 0, then sends a valid-CRC coin report claiming site 4096 — an index
  // far past the replicas' per-site state. The coordinator must drop the
  // connection before any replica applies the frame, and keep serving.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 100;
  Coordinator coordinator(options);
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  coordinator.AdoptConnection(fds[0]);

  std::vector<uint8_t> frames;
  Message join;
  join.type = MsgType::kJoin;
  join.site = 0;
  join.b = options.Hash();
  sim::wire::EncodeFrame(join, 0, &frames);
  Message hello;
  hello.type = MsgType::kHello;
  hello.site = 0;
  hello.a = 1;
  sim::wire::EncodeFrame(hello, 0, &frames);
  Message report;
  report.type = MsgType::kCoinReport;
  report.site = 4096;
  report.a = 7;
  report.paper_words = 1;
  sim::wire::EncodeFrame(report, 1, &frames);
  ASSERT_TRUE(WriteAll(fds[1], frames.data(), frames.size()));
  ASSERT_TRUE(SetNonBlocking(fds[1], true));

  bool eof = false;
  for (int i = 0; i < 2000 && !eof; ++i) {
    ASSERT_GE(coordinator.PollOnce(5), 0);
    uint8_t buf[4096];
    for (;;) {
      long n = ReadSome(fds[1], buf, sizeof(buf));
      if (n == -2) break;  // drained, connection still open
      if (n <= 0) {
        eof = true;
        break;
      }
    }
  }
  EXPECT_TRUE(eof) << "coordinator kept a connection that spoke for "
                      "another site";
  close(fds[1]);
  std::vector<uint64_t> stats = StatsVector(coordinator);
  EXPECT_FALSE(stats.empty());
  EXPECT_EQ(Ask(coordinator, kQueryCount).values.size(), 3u);
}

}  // namespace
}  // namespace service
}  // namespace disttrack
