// Coordinator + site processes end to end, in miniature: the parent runs
// a steppable Coordinator (AdoptConnection + PollOnce — no listener, no
// daemon loop) and each site is a real fork()ed SiteRuntime on one end of
// a socketpair. Pins the service protocol proper: join handshake, grant
// admission, blocking broadcast decisions, queries over the wire, the
// §1.1 paper ledger reconciling with a serial CommMeter to the message,
// the wire-byte ledger (socket bytes == encoded frame bytes), and when a
// site counts as done.
//
// Fork-without-exec is deliberate (no binary paths to plumb); the forking
// tests are skipped under TSan, which cannot follow multiprocess tests.
// The hostile-peer and raw-frame tests at the end need no fork and run
// everywhere.

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/coordinator.h"
#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/site_runtime.h"
#include "disttrack/sim/replica.h"
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
  // The serial replay's frames feed a replica, whose item totals are the
  // reference for the heavy-hitters answers below.
  struct ReplicaTap : sim::wire::WireTap {
    explicit ReplicaTap(const ServiceOptions& o)
        : replica(o.FrequencyOptions()) {}
    void OnMessage(Message&& msg) override { replica.Apply(msg); }
    sim::FrequencyReplica replica;
  } tap(options);
  serial.set_wire_tap(&tap);
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
  // Each answer is every item whose estimate is >= phi * n', by item,
  // including estimates of 0 (phi <= 0) and none but those at n' or above
  // (phi = 1).
  ASSERT_EQ(tap.replica.n_prime(),
            Ask(fleet.coordinator(), kQueryCount).values[1]);
  for (double phi : {0.01, 0.0, -0.5, 1.0}) {
    SCOPED_TRACE(phi);
    double threshold = phi * static_cast<double>(tap.replica.n_prime());
    std::vector<uint64_t> want;
    for (const auto& [item, est] : tap.replica.ItemEstimates()) {
      if (est >= threshold) {
        want.push_back(item);
        want.push_back(Bits(est));
      }
    }
    EXPECT_EQ(Ask(fleet.coordinator(), kQueryHeavyHitters, Bits(phi)).values,
              want);
  }
  fleet.ShutdownAndReap();
}

TEST(ServiceSession, QuantileQueriesOverTheFleet) {
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kRank;
  options.num_sites = 4;
  options.total_arrivals = 6000;
  options.grant_max = 256;
  options.universe = 1024;
  Fleet fleet(options);
  for (int site = 0; site < options.num_sites; ++site) fleet.StartSite(site);
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));

  // The serial replay's frames feed a replica, whose ranks are the
  // reference for the quantile answers below.
  Message journal = Ask(fleet.coordinator(), kQueryJournal);
  rank::RandomizedRankTracker serial(options.RankOptions());
  struct ReplicaTap : sim::wire::WireTap {
    explicit ReplicaTap(const ServiceOptions& o) : replica(o.RankOptions()) {}
    void OnMessage(Message&& msg) override { replica.Apply(msg); }
    sim::RankReplica replica;
  } tap(options);
  serial.set_wire_tap(&tap);
  std::vector<uint64_t> position(4, 0);
  for (size_t i = 0; i + 1 < journal.values.size(); i += 2) {
    int site = static_cast<int>(journal.values[i]);
    for (uint64_t j = 0; j < journal.values[i + 1]; ++j) {
      serial.Arrive(site, WorkloadKey(options, site,
                                      position[static_cast<size_t>(site)]++));
    }
  }
  ASSERT_EQ(tap.replica.n_prime(),
            Ask(fleet.coordinator(), kQueryCount).values[1]);
  // Each answer is the smallest x in [0, universe] whose estimated rank
  // reaches phi * n' (universe when none does), with that rank; phi is
  // not clamped.
  for (double phi : {-0.5, 0.0, 0.25, 0.5, 0.99, 1.0, 1.5}) {
    SCOPED_TRACE(phi);
    double target = phi * static_cast<double>(tap.replica.n_prime());
    uint64_t want = 0;
    while (want < options.universe && tap.replica.Estimate(want) < target) {
      ++want;
    }
    EXPECT_EQ(Ask(fleet.coordinator(), kQueryQuantile, Bits(phi)).values,
              (std::vector<uint64_t>{want,
                                     Bits(tap.replica.Estimate(want))}));
  }
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

TEST(ServiceSession, FreerunRankFleetCrossesIntoTreeRounds) {
  // Freerun sites stream concurrently: a site applies a broadcast only
  // between grants, so it sends frames of its old round after another
  // site's report opened the next one, here across the switch from
  // forward rounds to tree rounds. The coordinator must keep every
  // connection (a refused frame closes one, and its site never finishes)
  // and answer within the ε guarantee.
  if (DISTTRACK_TSAN) GTEST_SKIP() << "fork-based test, skipped under TSan";
  ServiceOptions options;
  options.tracker = TrackerKind::kRank;
  options.mode = RunMode::kFreerun;
  options.num_sites = 4;
  options.total_arrivals = 40000;
  options.grant_max = 256;
  options.universe = 1 << 16;
  ASSERT_TRUE(options.RankOptions().RoundParamsFor(4096).forward);
  ASSERT_FALSE(options.RankOptions().RoundParamsFor(8192).forward);
  Fleet fleet(options);
  for (int site = 0; site < options.num_sites; ++site) fleet.StartSite(site);
  ASSERT_TRUE(
      fleet.PumpUntil([&] { return fleet.coordinator().AllSitesDone(); }));
  const Message count = Ask(fleet.coordinator(), kQueryCount);
  ASSERT_EQ(count.values.size(), 3u);
  EXPECT_FALSE(options.RankOptions().RoundParamsFor(count.values[1] / 2)
                   .forward)
      << "the fleet never reached a tree round";
  std::vector<uint64_t> values;
  for (int site = 0; site < options.num_sites; ++site) {
    for (uint64_t i = 0; i < ShardSize(options, site); ++i) {
      values.push_back(WorkloadKey(options, site, i));
    }
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (uint64_t x : {uint64_t{1} << 12, uint64_t{1} << 14, uint64_t{3} << 14}) {
    SCOPED_TRACE(x);
    const double want = static_cast<double>(
        std::lower_bound(values.begin(), values.end(), x) - values.begin());
    Message rank = Ask(fleet.coordinator(), kQueryRank, x);
    ASSERT_EQ(rank.values.size(), 1u);
    double est = 0;
    memcpy(&est, &rank.values[0], sizeof(est));
    EXPECT_NEAR(est, want, 2 * options.epsilon * n)
        << "freerun far outside the ε guarantee";
  }
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

// Joins `coordinator` as site 0 over a socketpair, sends `frames` as
// uplink sequence numbers 1, 2, ..., and polls until the coordinator
// closes the connection or 2000 polls pass. True iff it closed. No fork:
// the caller speaks the wire protocol itself.
bool ClosesAfter(Coordinator* coordinator, const ServiceOptions& options,
                 const std::vector<Message>& frames) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return false;
  coordinator->AdoptConnection(fds[0]);

  std::vector<uint8_t> bytes;
  Message join;
  join.type = MsgType::kJoin;
  join.site = 0;
  join.b = options.Hash();
  sim::wire::EncodeFrame(join, 0, &bytes);
  Message hello;
  hello.type = MsgType::kHello;
  hello.site = 0;
  hello.a = 1;
  sim::wire::EncodeFrame(hello, 0, &bytes);
  for (size_t i = 0; i < frames.size(); ++i) {
    sim::wire::EncodeFrame(frames[i], i + 1, &bytes);
  }
  bool eof = false;
  if (WriteAll(fds[1], bytes.data(), bytes.size()) &&
      SetNonBlocking(fds[1], true)) {
    for (int i = 0; i < 2000 && !eof; ++i) {
      if (coordinator->PollOnce(5) < 0) break;
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
  }
  close(fds[1]);
  return eof;
}

TEST(ServiceSession, FrameForAnotherSiteClosesTheConnection) {
  // A valid-CRC coin report claiming site 4096, an index far past the
  // replicas' per-site state. The coordinator must drop the connection
  // before any replica applies the frame, and keep serving.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 4;
  options.total_arrivals = 100;
  Coordinator coordinator(options);
  Message report;
  report.type = MsgType::kCoinReport;
  report.site = 4096;
  report.a = 7;
  report.paper_words = 1;
  EXPECT_TRUE(ClosesAfter(&coordinator, options, {report}))
      << "coordinator kept a connection that spoke for another site";
  std::vector<uint64_t> stats = StatsVector(coordinator);
  EXPECT_FALSE(stats.empty());
  EXPECT_EQ(Ask(coordinator, kQueryCount).values.size(), 3u);
}

Message CounterReport(uint64_t item, uint64_t instance, uint64_t value) {
  Message msg;
  msg.type = MsgType::kCounterReport;
  msg.site = 0;
  msg.a = item;
  msg.b = instance;
  msg.c = value;
  msg.paper_words = 1;
  return msg;
}

TEST(ServiceSession, FrameBeyondExactDoublesClosesTheConnection) {
  // The frequency replica keeps each item's estimate as an integer below
  // 2^53 (frequency_aggregate.h). A frame that would break that bound is
  // refused: the connection closes, the frame changes no estimate, and
  // the coordinator keeps serving queries.
  ServiceOptions options;
  options.tracker = TrackerKind::kFrequency;
  options.num_sites = 4;
  options.total_arrivals = 100;
  const uint64_t two53 = uint64_t{1} << 53;
  const uint64_t item = 5;
  Message coarse;
  coarse.type = MsgType::kCoarseReport;
  coarse.site = 0;
  coarse.a = uint64_t{1} << 62;  // n̄ whose 1/p exceeds 2^52
  coarse.paper_words = 1;
  struct Case {
    const char* what;
    std::vector<Message> frames;
    double estimate;  // of `item` after the refusal
  };
  const std::vector<Case> cases = {
      {"counter value 2^53", {CounterReport(item, 1, two53)}, 0.0},
      {"item total reaching 2^53",
       {CounterReport(item, 1, two53 / 2), CounterReport(item, 2, two53 / 2)},
       static_cast<double>(two53 / 2)},
      {"1/p beyond 2^52", {coarse}, 0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Coordinator coordinator(options);
    EXPECT_TRUE(ClosesAfter(&coordinator, options, c.frames))
        << "coordinator kept a connection whose frame breaks the bound";
    EXPECT_FALSE(StatsVector(coordinator).empty());
    Message point = Ask(coordinator, kQueryPoint, item);
    ASSERT_EQ(point.values.size(), 1u);
    EXPECT_EQ(point.values[0], Bits(c.estimate));
    Message count = Ask(coordinator, kQueryCount);
    ASSERT_EQ(count.values.size(), 3u);
    EXPECT_EQ(count.values[2], 0u) << "a refused coarse report opened a round";
  }
}

// The round of the frames below unless they name another: round 1, which
// builds trees (TreeRoundReport).
constexpr uint64_t kTreeRound = 1;

Message RankSummary(uint64_t first_leaf, uint64_t end_leaf,
                    std::vector<uint64_t> values,
                    std::vector<std::pair<uint64_t, uint32_t>> segments,
                    uint64_t epoch = kTreeRound) {
  Message msg;
  msg.type = MsgType::kRankSummary;
  msg.site = 0;
  msg.epoch = epoch;
  msg.a = first_leaf;
  msg.b = end_leaf;
  msg.values = std::move(values);
  msg.segments = std::move(segments);
  msg.paper_words = 2 + msg.values.size();
  return msg;
}

Message RankFrame(MsgType type, uint64_t a, uint64_t b, uint64_t words,
                  uint64_t epoch = kTreeRound) {
  Message msg;
  msg.type = type;
  msg.site = 0;
  msg.epoch = epoch;
  msg.a = a;
  msg.b = b;
  msg.paper_words = words;
  return msg;
}

// A coarse report of round 0 opening round 1 at n̄ = 8192, which builds
// trees (the k = 4, eps = 0.05 rounds forward up to n̄ = 4096): b = 51,
// 41 leaves per chunk.
Message TreeRoundReport() {
  return RankFrame(MsgType::kCoarseReport, 8192, 0, 1, 0);
}

// Sends `frames` as site 0 and expects the coordinator to close the
// connection at the last one: the refused frame changes no estimate (the
// `reference` replica holds the accepted ones), and the coordinator keeps
// serving queries.
void ExpectRankRefusal(const ServiceOptions& options,
                       const sim::RankReplica& reference,
                       const std::vector<Message>& frames) {
  EXPECT_FALSE(sim::RankReplica(reference).Apply(frames.back()));
  Coordinator coordinator(options);
  EXPECT_TRUE(ClosesAfter(&coordinator, options, frames))
      << "coordinator kept a connection that sent a refused rank frame";
  EXPECT_FALSE(StatsVector(coordinator).empty());
  for (uint64_t x : {0, 4, 9}) {
    Message rank = Ask(coordinator, kQueryRank, x);
    ASSERT_EQ(rank.values.size(), 1u);
    EXPECT_EQ(rank.values[0], Bits(reference.Estimate(x))) << "x " << x;
  }
  EXPECT_EQ(Ask(coordinator, kQueryCount).values[2], reference.round())
      << "the coordinator's round differs from the accepted frames'";
}

ServiceOptions RankSessionOptions() {
  ServiceOptions options;
  options.tracker = TrackerKind::kRank;
  options.num_sites = 4;
  options.total_arrivals = 100000;
  return options;
}

TEST(ServiceSession, MalformedRankSummaryClosesTheConnection) {
  // In a tree round, a rank summary the replica cannot search (segments
  // past or out of order with the values, unsorted values, an empty or
  // out-of-range leaf range) or whose weight reaches 2^53 is refused
  // after a valid one.
  const ServiceOptions options = RankSessionOptions();
  const uint64_t two53 = uint64_t{1} << 53;
  const rank::RoundParams round = options.RankOptions().RoundParamsFor(8192);
  ASSERT_FALSE(round.forward);
  const uint64_t leaves = round.num_leaves;
  const Message valid = RankSummary(0, 1, {3, 8}, {{2, 2}});
  const std::vector<std::pair<const char*, Message>> cases = {
      {"segment end past the values", RankSummary(0, 1, {1, 2}, {{1, 3}})},
      {"decreasing segment ends",
       RankSummary(0, 1, {1, 2, 3}, {{1, 2}, {1, 1}})},
      {"unsorted values", RankSummary(0, 1, {5, 4}, {{1, 2}})},
      {"first_leaf >= end_leaf", RankSummary(1, 1, {5}, {{1, 1}})},
      {"end_leaf past the leaves",
       RankSummary(leaves - 1, leaves + 1, {5}, {{1, 1}})},
      {"weight reaching 2^53", RankSummary(0, 1, {5}, {{two53, 1}})},
  };
  sim::RankReplica reference(options.RankOptions());
  ASSERT_TRUE(reference.Apply(TreeRoundReport()));
  ASSERT_TRUE(reference.Apply(valid));
  for (const auto& [what, frame] : cases) {
    SCOPED_TRACE(what);
    ExpectRankRefusal(options, reference, {TreeRoundReport(), valid, frame});
  }
}

TEST(ServiceSession, RankForwardInATreeRoundClosesTheConnection) {
  // No site forwards an arrival in a round that builds trees. A forward
  // of round 0, which a freerun site may still send after round 1
  // opened, is accepted.
  const ServiceOptions options = RankSessionOptions();
  const Message leaf = RankSummary(0, 1, {3, 8}, {{1, 2}});
  const Message late_forward = RankFrame(MsgType::kRankForward, 2, 0, 1, 0);
  sim::RankReplica reference(options.RankOptions());
  ASSERT_TRUE(reference.Apply(TreeRoundReport()));
  ASSERT_TRUE(reference.Apply(leaf));
  ASSERT_TRUE(reference.Apply(late_forward));
  ExpectRankRefusal(options, reference,
                    {TreeRoundReport(), leaf, late_forward,
                     RankFrame(MsgType::kRankForward, 5, 0, 1)});
}

TEST(ServiceSession, RankTreeFrameInAForwardRoundClosesTheConnection) {
  // Round 0 forwards: no site sends a node summary or a tail sample in
  // it, before round 1 opened or after.
  const ServiceOptions options = RankSessionOptions();
  ASSERT_TRUE(options.RankOptions().RoundParamsFor(0).forward);
  const Message forward = RankFrame(MsgType::kRankForward, 5, 0, 1, 0);
  const std::vector<std::pair<const char*, Message>> cases = {
      {"summary", RankSummary(0, 1, {3, 8}, {{1, 2}}, 0)},
      {"tail sample", RankFrame(MsgType::kRankResidual, 0, 3, 2, 0)},
  };
  for (bool tree_round_open : {false, true}) {
    sim::RankReplica reference(options.RankOptions());
    std::vector<Message> frames = {forward};
    if (tree_round_open) frames.push_back(TreeRoundReport());
    for (const Message& frame : frames) ASSERT_TRUE(reference.Apply(frame));
    for (const auto& [what, frame] : cases) {
      SCOPED_TRACE(::testing::Message()
                   << what << " tree_round_open=" << tree_round_open);
      frames.push_back(frame);
      ExpectRankRefusal(options, reference, frames);
      frames.pop_back();
    }
  }
}

TEST(ServiceSession, RankFrameOfARoundNotYetOpenClosesTheConnection) {
  // A site's round comes from the coordinator's broadcasts, so no site
  // names a round past the coordinator's.
  const ServiceOptions options = RankSessionOptions();
  sim::RankReplica reference(options.RankOptions());
  ASSERT_TRUE(reference.Apply(TreeRoundReport()));
  const std::vector<std::pair<const char*, Message>> cases = {
      {"summary", RankSummary(0, 1, {3, 8}, {{1, 2}}, 2)},
      {"tail sample", RankFrame(MsgType::kRankResidual, 0, 3, 2, 2)},
      {"forward", RankFrame(MsgType::kRankForward, 5, 0, 1, 2)},
  };
  for (const auto& [what, frame] : cases) {
    SCOPED_TRACE(what);
    ExpectRankRefusal(options, reference, {TreeRoundReport(), frame});
  }
}

/// A site the test speaks for itself over a socketpair (no fork): joins
/// as `site`, sends sequenced uplink frames, and reads what the
/// coordinator sends back.
class RawSite {
 public:
  RawSite(Coordinator* coordinator, const ServiceOptions& options, int site)
      : site_(site) {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    coordinator->AdoptConnection(fds[0]);
    fd_ = fds[1];
    EXPECT_TRUE(SetNonBlocking(fd_, true));
    std::vector<uint8_t> bytes;
    Message join;
    join.type = MsgType::kJoin;
    join.site = site;
    join.b = options.Hash();
    sim::wire::EncodeFrame(join, 0, &bytes);
    Message hello;
    hello.type = MsgType::kHello;
    hello.site = site;
    hello.a = 1;
    sim::wire::EncodeFrame(hello, 0, &bytes);
    EXPECT_TRUE(WriteAll(fd_, bytes.data(), bytes.size()));
  }
  ~RawSite() { close(fd_); }

  void Send(MsgType type, uint64_t a) {
    Message msg;
    msg.type = type;
    msg.site = site_;
    msg.a = a;
    msg.paper_words = type == MsgType::kCoarseReport ? 1 : 0;
    std::vector<uint8_t> bytes;
    sim::wire::EncodeFrame(msg, ++up_seq_, &bytes);
    EXPECT_TRUE(WriteAll(fd_, bytes.data(), bytes.size()));
  }

  /// Downlink seq of the first kBroadcast received so far (0: none yet).
  uint64_t BroadcastSeq() {
    uint8_t buf[4096];
    for (;;) {
      long n = ReadSome(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      reader_.Append(buf, static_cast<size_t>(n));
    }
    Message msg;
    uint64_t seq = 0;
    while (broadcast_seq_ == 0 &&
           reader_.Next(&msg, &seq) == FrameReader::Result::kFrame) {
      if (msg.type == MsgType::kBroadcast) broadcast_seq_ = seq;
    }
    return broadcast_seq_;
  }

 private:
  int site_;
  int fd_ = -1;
  uint64_t up_seq_ = 0;
  uint64_t broadcast_seq_ = 0;
  FrameReader reader_;
};

TEST(ServiceSession, SiteIsDoneOnlyAfterAckingTheLastBroadcast) {
  // A site that has sent its end-of-stream request still applies the
  // rituals of broadcasts other sites trigger, and its corrections and
  // ritual ack may still be in flight. Until that ack arrives the site is
  // not done, or a caller reading the ledger at AllSitesDone() could miss
  // the corrections.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 2;
  options.total_arrivals = 100;
  Coordinator coordinator(options);
  RawSite site0(&coordinator, options, 0);
  RawSite site1(&coordinator, options, 1);
  auto pump = [&coordinator](int rounds) {
    for (int i = 0; i < rounds; ++i) coordinator.PollOnce(1);
  };
  auto sites_done = [&coordinator] { return StatsVector(coordinator)[0]; };

  site0.Send(MsgType::kGrantRequest, 0);  // end of stream
  site1.Send(MsgType::kCoarseReport, 1);  // the first report broadcasts
  for (int i = 0; i < 200 && site1.BroadcastSeq() == 0; ++i) pump(1);
  ASSERT_NE(site1.BroadcastSeq(), 0u);
  site1.Send(MsgType::kRitualAck, site1.BroadcastSeq());
  site1.Send(MsgType::kGrantRequest, 0);
  for (int i = 0; i < 200 && sites_done() < 1; ++i) pump(1);
  ASSERT_EQ(sites_done(), 1u);
  pump(20);
  EXPECT_FALSE(coordinator.AllSitesDone())
      << "site 0 counted as done before acking the broadcast";
  EXPECT_EQ(sites_done(), 1u);

  ASSERT_NE(site0.BroadcastSeq(), 0u);
  site0.Send(MsgType::kRitualAck, site0.BroadcastSeq());
  for (int i = 0; i < 200 && !coordinator.AllSitesDone(); ++i) pump(1);
  EXPECT_TRUE(coordinator.AllSitesDone());
  EXPECT_EQ(sites_done(), 2u);
  EXPECT_EQ(coordinator.stats().rituals_acked, 2u);
}

TEST(ServiceSession, PeerClosedWithOutputPendingIsDiscardedNotFatal) {
  // A site joins and closes its end before the coordinator answers. The
  // kJoinAck write then hits a dead peer: it must fail with EPIPE (not
  // kill the process with SIGPIPE), and the unsent bytes must land in
  // discarded_out, so the wire-byte ledger still reconciles.
  ServiceOptions options;
  options.tracker = TrackerKind::kCount;
  options.num_sites = 2;
  options.total_arrivals = 100;
  Coordinator coordinator(options);
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  coordinator.AdoptConnection(fds[0]);
  std::vector<uint8_t> bytes;
  Message join;
  join.type = MsgType::kJoin;
  join.site = 0;
  join.b = options.Hash();
  sim::wire::EncodeFrame(join, 0, &bytes);
  Message hello;
  hello.type = MsgType::kHello;
  hello.site = 0;
  hello.a = 1;
  sim::wire::EncodeFrame(hello, 0, &bytes);
  ASSERT_TRUE(WriteAll(fds[1], bytes.data(), bytes.size()));
  close(fds[1]);
  for (int i = 0; i < 20; ++i) coordinator.PollOnce(1);

  std::vector<uint64_t> stats = StatsVector(coordinator);
  ASSERT_EQ(stats.size(), 19u);
  EXPECT_GT(stats[18], 0u) << "the kJoinAck was not counted as discarded";
  EXPECT_EQ(stats[8], 0u) << "a closed connection still holds output";
  EXPECT_EQ(stats[17], 1u) << "wire-byte ledger does not reconcile";
}

}  // namespace
}  // namespace service
}  // namespace disttrack
