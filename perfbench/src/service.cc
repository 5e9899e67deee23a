// The service fleet of the traced run: the coordinator plus k=3 forked
// SiteRuntime processes over unix socketpairs, in lockstep mode
// (determinism tier A), one short fleet per tracker.
//
// The benchmark process hosts the service::Coordinator and steps its
// event loop (PollOnce); each site is a fork()ed SiteRuntime on one end
// of a socketpair and derives its keys from service::WorkloadKey, seeded
// by --seed. One query client (a thread on its own connection) sends
// queries open-loop at a fixed rate, cycling the tracker's query kinds
// with seven cheap queries per heavy one, and times each query from when
// it was due. 3 site connections + 1 client = 4 cores; lockstep keeps at
// most one site computing at a time.
//
// Why: the in-process driver never runs the coordinator's event loop,
// the grant scheduler, the sockets or the query path; this fleet gives
// their per-layer figures. It is not gated: every grant and every query
// is a cross-process wake-up, and on a shared host its speed moves far
// more than the in-process path's (see README.md).
//
// Checks, outside the timed phase: estimates bit-identical to a serial
// replay of the grant journal; paper messages, words and broadcasts equal
// to that replay's CommMeter; the wire-byte ledger flag (kQueryStats
// index 17) equal to 1; every site exiting 0; every query answered.

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "bench.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/coordinator.h"
#include "disttrack/service/framing.h"
#include "disttrack/service/site_runtime.h"
#include "disttrack/service/socket.h"

namespace perfbench {
namespace {

namespace wire = disttrack::sim::wire;
namespace service = disttrack::service;
using service::ServiceOptions;

constexpr double kFleetDeadlineS = 120;

// kQueryStats vector layout (service/coordinator.cc).
enum StatsIndex {
  kStatBytesIn = 4,
  kStatBytesOut = 5,
  kStatPaperMessages = 12,
  kStatPaperWords = 13,
  kStatBroadcasts = 14,
  kStatLedgerOk = 17,
};

ServiceOptions OptionsFor(Tracker tracker, const RunConfig& config) {
  // About a second of fleet time per tracker on a 4-core host.
  const uint64_t n[3] = {1u << 23, 1u << 22, 1u << 20};
  const int ti = static_cast<int>(tracker);
  ServiceOptions options;
  options.tracker = static_cast<service::TrackerKind>(tracker);
  options.mode = service::RunMode::kLockstep;
  options.num_sites = 3;
  options.epsilon = 0.01;
  options.seed = config.seed;
  options.total_arrivals = config.tiny ? n[ti] >> 8 : n[ti];
  return options;
}

/// CPU time of each of `pids`, summed, seconds (NaN if one is gone).
double ProcessesCpuSeconds(const std::vector<pid_t>& pids) {
  double total = 0;
  for (pid_t pid : pids) {
    clockid_t clock;
    timespec ts{};
    if (clock_getcpuclockid(pid, &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      return NAN;
    }
    total += static_cast<double>(ts.tv_sec) +
             1e-9 * static_cast<double>(ts.tv_nsec);
  }
  return total;
}

uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

wire::Message Query(uint64_t kind, uint64_t b = 0) {
  wire::Message query;
  query.type = wire::MsgType::kQuery;
  query.a = kind;
  query.b = b;
  return query;
}

/// The tracker's query kinds, seven cheap ones per heavy one: the median
/// sits in the cheap mode and p99 well inside the heavy one.
std::vector<wire::Message> QueryMix(Tracker tracker, uint64_t universe) {
  switch (tracker) {
    case Tracker::kCount:
      return {Query(service::kQueryCount)};
    case Tracker::kFrequency: {
      std::vector<wire::Message> mix;
      for (uint64_t item = 0; item < 7; ++item) {
        mix.push_back(Query(service::kQueryPoint, item));
      }
      mix.push_back(Query(service::kQueryHeavyHitters, Bits(0.01)));
      return mix;
    }
    case Tracker::kRank: {
      std::vector<wire::Message> mix;
      for (uint64_t i = 1; i <= 7; ++i) {
        mix.push_back(Query(service::kQueryRank, universe / 8 * i));
      }
      mix.push_back(Query(service::kQueryQuantile, Bits(0.5)));
      return mix;
    }
  }
  return {};
}

/// The estimates compared bit for bit against the serial replay.
std::vector<wire::Message> FinalProbes(Tracker tracker, uint64_t universe) {
  std::vector<wire::Message> probes;
  switch (tracker) {
    case Tracker::kCount:
      probes.push_back(Query(service::kQueryCount));
      break;
    case Tracker::kFrequency:
      for (uint64_t item = 0; item < 16; ++item) {
        probes.push_back(Query(service::kQueryPoint, item));
      }
      break;
    case Tracker::kRank:
      for (uint64_t i = 1; i <= 8; ++i) {
        probes.push_back(Query(service::kQueryRank, universe / 9 * i));
      }
      break;
  }
  return probes;
}

/// Open-loop query client on its own connection: sends on a fixed
/// schedule whatever the replies do, and times each reply from the
/// query's due time.
class QueryClient {
 public:
  QueryClient(int fd, std::vector<wire::Message> mix, double queries_per_s)
      : fd_(fd),
        mix_(std::move(mix)),
        period_(std::chrono::nanoseconds(
            static_cast<int64_t>(1e9 / queries_per_s))) {}
  ~QueryClient() {
    abort_.store(true);
    Join();
  }
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  void Start(Clock::time_point first_due) {
    thread_ = std::thread([this, first_due] { Loop(first_due); });
  }
  /// Stop sending; the loop ends once every sent query is answered.
  void RequestStop() { stop_.store(true); }
  void Abort() { abort_.store(true); }
  bool drained() const { return drained_.load(); }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Join().
  std::vector<double> latency_us;
  uint64_t sent = 0;
  uint64_t unanswered = 0;
  uint64_t mismatched = 0;
  double lag_ns = 0;
  bool io_failed = false;

 private:
  void Loop(Clock::time_point next_due) {
    // Wake at the due time, not up to the default 50 us slack after it.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    service::FrameReader reader;
    std::deque<std::pair<Clock::time_point, uint64_t>> pending;
    std::vector<uint8_t> frame;
    std::vector<uint8_t> buf(1 << 16);
    size_t next = 0;
    while (!abort_.load() && !io_failed) {
      const bool stopping = stop_.load();
      if (stopping && pending.empty()) break;
      Clock::time_point now = Clock::now();
      while (!stopping && next_due <= now) {
        const wire::Message& query = mix_[next++ % mix_.size()];
        frame.clear();
        wire::EncodeFrame(query, 0, &frame);
        lag_ns += std::chrono::duration<double, std::nano>(Clock::now() -
                                                           next_due)
                      .count();
        if (!service::WriteAll(fd_, frame.data(), frame.size())) {
          io_failed = true;
          break;
        }
        ++sent;
        pending.emplace_back(next_due, query.a);
        next_due += period_;
      }
      // Wait for replies until the next query falls due.
      int64_t wait_ns = stopping ? 1000000
                                 : std::max<int64_t>(
                                       0, std::chrono::duration_cast<
                                              std::chrono::nanoseconds>(
                                              next_due - Clock::now())
                                              .count());
      timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                       static_cast<long>(wait_ns % 1000000000)};
      pollfd pfd{fd_, POLLIN, 0};
      int ready = ppoll(&pfd, 1, &timeout, nullptr);
      if (ready < 0 && errno != EINTR) io_failed = true;
      if (ready <= 0) continue;
      ssize_t got = read(fd_, buf.data(), buf.size());
      if (got <= 0) {
        io_failed = true;
        break;
      }
      reader.Append(buf.data(), static_cast<size_t>(got));
      wire::Message reply;
      uint64_t seq = 0;
      for (;;) {
        service::FrameReader::Result r = reader.Next(&reply, &seq);
        if (r == service::FrameReader::Result::kNeed) break;
        if (r == service::FrameReader::Result::kError) {
          io_failed = true;
          break;
        }
        Clock::time_point at = Clock::now();
        if (pending.empty()) {
          ++mismatched;
          continue;
        }
        auto [due, kind] = pending.front();
        pending.pop_front();
        if (reply.type != wire::MsgType::kQueryResult || reply.a != kind) {
          ++mismatched;
          continue;
        }
        latency_us.push_back(
            std::chrono::duration<double, std::micro>(at - due).count());
      }
    }
    unanswered = pending.size();
    drained_.store(true);
  }

  int fd_;
  std::vector<wire::Message> mix_;
  std::chrono::nanoseconds period_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> abort_{false};
  std::atomic<bool> drained_{false};
  std::thread thread_;
};

/// Everything one fleet run leaves for the figures and the checks.
struct FleetRun {
  bool ok = true;
  std::string failure;
  double wall_s = 0;
  uint64_t timed_arrivals = 0;  // n minus the arrivals granted in set-up
  uint64_t timed_grants = 0;
  // CPU time over the timed phase, first grant to all sites done.
  double coordinator_cpu_s = 0;
  double sites_cpu_s = 0;
  std::vector<uint64_t> stats;
  std::vector<uint64_t> journal;
  std::vector<uint64_t> finals;  // estimate bits at FinalProbes
  std::vector<double> latency_us;
  uint64_t queries_sent = 0;
  uint64_t queries_failed = 0;
  double lag_ns = 0;
};

FleetRun RunFleet(Tracker tracker, const ServiceOptions& options,
                  double queries_per_s) {
  FleetRun run;
  auto fail = [&run](const std::string& why) {
    if (run.ok) run.failure = why;
    run.ok = false;
  };
  const Clock::time_point setup_start = Clock::now();
  service::Coordinator coordinator(options);
  std::vector<pid_t> pids;
  std::vector<int> parent_fds;
  for (int site = 0; site < options.num_sites && run.ok; ++site) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      fail("socketpair failed");
      break;
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      fail("fork failed");
      break;
    }
    if (pid == 0) {
      // The child owns fds[1] only: close every parent end, or their
      // EOFs would never fire.
      close(fds[0]);
      for (int fd : parent_fds) close(fd);
      service::SiteRuntime::Config config;
      config.options = options;
      config.site = site;
      config.connected_fd = fds[1];
      service::SiteRuntime runtime(config);
      _exit(runtime.Run());
    }
    close(fds[1]);
    parent_fds.push_back(fds[0]);
    coordinator.AdoptConnection(fds[0]);
    pids.push_back(pid);
  }
  int client_fds[2] = {-1, -1};
  if (run.ok && socketpair(AF_UNIX, SOCK_STREAM, 0, client_fds) != 0) {
    fail("socketpair failed");
  }
  if (run.ok) coordinator.AdoptConnection(client_fds[0]);

  auto expired = [](Clock::time_point since, double limit_s) {
    return SecondsBetween(since, Clock::now()) > limit_s;
  };
  // Set-up ends once every site has joined and been granted work: the
  // journal's k-th entry. Arrivals granted before it are not timed.
  const size_t setup_entries = static_cast<size_t>(options.num_sites);
  std::vector<uint64_t> journal;
  while (run.ok && journal.size() < 2 * setup_entries) {
    if (coordinator.PollOnce(1) < 0) fail("poll failed");
    if (expired(setup_start, kFleetDeadlineS)) fail("no grant before deadline");
    journal = coordinator.Query(Query(service::kQueryJournal)).values;
  }
  const Clock::time_point first_grant = Clock::now();
  run.timed_arrivals = options.total_arrivals;
  // Every entry but the last (the grant in flight) is already done.
  for (size_t i = 1; i + 2 < journal.size(); i += 2) {
    run.timed_arrivals -= journal[i];
  }
  const size_t setup_grants = journal.size() / 2 - 1;

  QueryClient client(client_fds[1], QueryMix(tracker, options.universe),
                     queries_per_s);
  if (run.ok) {
    client.Start(first_grant);
    const double cpu0 = ThreadCpuSeconds();
    const double sites_cpu0 = ProcessesCpuSeconds(pids);
    while (run.ok && !coordinator.AllSitesDone()) {
      if (coordinator.PollOnce(5) < 0) fail("poll failed");
      if (expired(first_grant, kFleetDeadlineS)) fail("fleet did not finish");
    }
    run.wall_s = SecondsBetween(first_grant, Clock::now());
    run.coordinator_cpu_s = ThreadCpuSeconds() - cpu0;
    // Done sites wait for the shutdown, so they can still be read.
    run.sites_cpu_s = ProcessesCpuSeconds(pids) - sites_cpu0;
    client.RequestStop();
    const Clock::time_point stop = Clock::now();
    while (!client.drained()) {
      coordinator.PollOnce(1);
      if (expired(stop, 10)) {
        client.Abort();
        break;
      }
    }
  }
  client.Join();
  run.latency_us = std::move(client.latency_us);
  run.queries_sent = client.sent;
  run.queries_failed = client.unanswered + client.mismatched;
  run.lag_ns = client.lag_ns;
  if (client.io_failed) fail("query client connection failed");

  if (run.ok) {
    run.stats = coordinator.Query(Query(service::kQueryStats)).values;
    run.journal = coordinator.Query(Query(service::kQueryJournal)).values;
    run.timed_grants = run.journal.size() / 2 - setup_grants;
    for (const wire::Message& probe : FinalProbes(tracker, options.universe)) {
      wire::Message result = coordinator.Query(probe);
      run.finals.push_back(result.values.empty() ? 0 : result.values[0]);
    }
    // Orderly shutdown through the client connection, as a daemon gets.
    wire::Message bye;
    bye.type = wire::MsgType::kShutdown;
    std::vector<uint8_t> frame;
    wire::EncodeFrame(bye, 0, &frame);
    if (!service::WriteAll(client_fds[1], frame.data(), frame.size())) {
      fail("shutdown write failed");
    }
    const Clock::time_point bye_at = Clock::now();
    while (run.ok && !coordinator.ShutdownComplete()) {
      coordinator.PollOnce(5);
      if (expired(bye_at, 30)) fail("fleet did not shut down");
    }
  }
  for (size_t site = 0; site < pids.size(); ++site) {
    if (!run.ok) kill(pids[site], SIGKILL);
    int status = 0;
    if (waitpid(pids[site], &status, 0) != pids[site]) {
      fail("waitpid failed");
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail("site " + std::to_string(site) + " exited abnormally");
    }
  }
  if (client_fds[1] >= 0) close(client_fds[1]);
  return run;
}

/// Replays the grant journal through a serial tracker and compares the
/// fleet's estimates, meter and ledger; returns "" on a match.
std::string CheckAgainstJournal(Tracker tracker, const ServiceOptions& options,
                                const FleetRun& run, bool perturb) {
  if (!run.ok) return run.failure;
  std::unique_ptr<disttrack::count::RandomizedCountTracker> count;
  std::unique_ptr<disttrack::frequency::RandomizedFrequencyTracker> frequency;
  std::unique_ptr<disttrack::rank::RandomizedRankTracker> rank;
  const disttrack::sim::CommMeter* meter = nullptr;
  switch (tracker) {
    case Tracker::kCount:
      count = std::make_unique<disttrack::count::RandomizedCountTracker>(
          options.CountOptions());
      meter = &count->meter();
      break;
    case Tracker::kFrequency:
      frequency =
          std::make_unique<disttrack::frequency::RandomizedFrequencyTracker>(
              options.FrequencyOptions());
      meter = &frequency->meter();
      break;
    case Tracker::kRank:
      rank = std::make_unique<disttrack::rank::RandomizedRankTracker>(
          options.RankOptions());
      meter = &rank->meter();
      break;
  }
  std::vector<uint64_t> position(static_cast<size_t>(options.num_sites), 0);
  uint64_t replayed = 0;
  for (size_t i = 0; i + 1 < run.journal.size(); i += 2) {
    int site = static_cast<int>(run.journal[i]);
    if (site < 0 || site >= options.num_sites) return "journal site out of range";
    for (uint64_t j = 0; j < run.journal[i + 1]; ++j) {
      uint64_t key = service::WorkloadKey(
          options, site, position[static_cast<size_t>(site)]++);
      if (count) count->Arrive(site);
      if (frequency) frequency->Arrive(site, key);
      if (rank) rank->Arrive(site, key);
      ++replayed;
    }
  }
  if (replayed != options.total_arrivals) return "journal does not cover n";

  std::vector<wire::Message> probes = FinalProbes(tracker, options.universe);
  for (size_t i = 0; i < probes.size(); ++i) {
    double serial = 0;
    if (count) serial = count->EstimateCount();
    if (frequency) serial = frequency->EstimateFrequency(probes[i].b);
    if (rank) serial = rank->EstimateRank(probes[i].b);
    uint64_t fleet = run.finals[i] ^ (perturb && i == 0 ? 1 : 0);
    if (fleet != Bits(serial)) {
      return "estimate " + std::to_string(i) +
             " is not bit-identical to the serial replay";
    }
  }
  if (run.stats.size() <= kStatLedgerOk) return "short stats vector";
  if (run.stats[kStatPaperMessages] != meter->TotalMessages()) {
    return "paper messages differ from the serial replay";
  }
  if (run.stats[kStatPaperWords] != meter->TotalWords()) {
    return "paper words differ from the serial replay";
  }
  if (run.stats[kStatBroadcasts] != meter->broadcast_count()) {
    return "broadcasts differ from the serial replay";
  }
  if (run.stats[kStatLedgerOk] != 1) return "wire-byte ledger does not reconcile";
  return "";
}

}  // namespace

ServiceFigures RunServiceFleet(Tracker tracker, const RunConfig& config,
                               bool perturb, Report* report) {
  const ServiceOptions options = OptionsFor(tracker, config);
  // A fixed query rate the fleet serves without backlog: at one heavy
  // query (heavy hitters ~1.4 ms, quantile ~0.8 ms) per eight, the
  // coordinator spends under a fifth of its time on queries.
  const FleetRun run = RunFleet(tracker, options, config.tiny ? 200 : 1000);
  const std::string name =
      std::string("service fleet/") + TrackerName(tracker);
  const std::string failure =
      CheckAgainstJournal(tracker, options, run, perturb);
  report->Attempt(failure.empty(), name + ": " + failure);
  report->AttemptMany(run.queries_sent, run.queries_failed,
                      name + " queries answered");

  ServiceFigures f;
  if (!run.ok || run.stats.size() <= kStatLedgerOk) return f;
  const double n = static_cast<double>(options.total_arrivals);
  const double timed = static_cast<double>(run.timed_arrivals);
  const double grants = static_cast<double>(run.timed_grants);
  // The hand-off is the timed wall time that neither the sites' CPU nor
  // the coordinator thread's CPU accounts for: wake-ups and socket waits.
  const double handoff_s =
      run.wall_s - run.sites_cpu_s - run.coordinator_cpu_s;
  f.ns_per_arrival = run.wall_s * 1e9 / timed;
  f.site_cpu_ns_per_arrival = run.sites_cpu_s * 1e9 / timed;
  f.coordinator_cpu_ns_per_arrival = run.coordinator_cpu_s * 1e9 / timed;
  f.grants_per_karrival = 1000.0 * grants / timed;
  f.handoff_us_per_grant = handoff_s * 1e6 / grants;
  f.socket_bytes_per_arrival =
      static_cast<double>(run.stats[kStatBytesIn] + run.stats[kStatBytesOut]) /
      n;
  f.query_p99_us = Quantile(run.latency_us, 0.99);
  f.generator_lag_ms =
      run.lag_ns / std::max<double>(1, static_cast<double>(run.queries_sent)) /
      1e6;
  Log("service fleet / %s: %.3f s for %llu timed arrivals (%.1f M/s), %.0f "
      "grants, %llu queries; split per arrival: sites %.1f ns CPU, "
      "coordinator %.1f ns CPU, hand-off %.1f ns",
      TrackerName(tracker), run.wall_s,
      static_cast<unsigned long long>(run.timed_arrivals),
      timed / run.wall_s / 1e6, grants,
      static_cast<unsigned long long>(run.queries_sent),
      f.site_cpu_ns_per_arrival, f.coordinator_cpu_ns_per_arrival,
      handoff_s * 1e9 / timed);
  return f;
}

}  // namespace perfbench
