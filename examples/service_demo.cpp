// End-to-end demo of the multi-process service: spawns the real
// disttrack_coordinator daemon plus k real disttrack_site processes over
// a unix-domain socket, waits for the fleet to stream the synthetic
// workload, then audits the run from a query client:
//
//   * rebuilds the effective serial order from the coordinator's grant
//     journal, replays it through an in-process serial tracker, and
//     demands the estimates match bit for bit (lockstep mode — tier A;
//     freerun settles for the paper's ε guarantee),
//   * reconciles the coordinator's §1.1 paper ledger against the serial
//     tracker's CommMeter to the message and to the word,
//   * checks the coordinator's internal wire-byte ledger: socket bytes
//     in/out must equal the sum of encoded frame sizes exactly.
//
//   $ ./examples/service_demo                          # count, k=64
//   $ ./examples/service_demo --tracker=frequency --sites=16
//   $ ./examples/service_demo --kill=3:777             # crash + recover
//
// --kill=SITE:AFTER hard-kills that site (exit 7) after AFTER arrivals
// in-process (at most one 256-arrival key block early: a site draws a
// block's keys before running it) and relaunches it; recovery must go
// through the snapshot + journal catch-up path with no double counting
// (the audits above still have to pass, and the stats must show
// duplicates and a rejoin).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/service/coordinator.h"
#include "disttrack/service/framing.h"
#include "disttrack/service/options.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/wire.h"

using disttrack::service::Endpoint;
using disttrack::service::FrameReader;
using disttrack::service::ServiceOptions;
using disttrack::service::TrackerKind;
using disttrack::sim::wire::Message;
using disttrack::sim::wire::MsgType;

namespace {

// kQueryStats vector layout (coordinator.cc, documented in
// docs/WIRE_PROTOCOL.md).
enum StatsIndex {
  kStatSitesDone = 0,
  kStatBytesIn = 4,
  kStatBytesOut = 5,
  kStatEncodedIn = 6,
  kStatEncodedOut = 7,
  kStatDupFrames = 11,
  kStatPaperMessages = 12,
  kStatPaperWords = 13,
  kStatBroadcasts = 14,
  kStatRejoins = 15,
  kStatLedgerOk = 17,
};

uint64_t Bits(double d) {
  uint64_t bits = 0;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double d = 0;
  memcpy(&d, &bits, sizeof(d));
  return d;
}

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "service_demo: FAIL: %s\n", what.c_str());
  exit(1);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Die(what);
}

std::vector<std::string> FleetArgs(const ServiceOptions& options) {
  char eps[64];
  snprintf(eps, sizeof(eps), "--epsilon=%.17g", options.epsilon);
  return {
      std::string("--tracker=") + TrackerKindName(options.tracker),
      std::string("--mode=") + RunModeName(options.mode),
      "--sites=" + std::to_string(options.num_sites),
      eps,
      "--seed=" + std::to_string(options.seed),
      "--n=" + std::to_string(options.total_arrivals),
      "--universe=" + std::to_string(options.universe),
      "--grant=" + std::to_string(options.grant_max),
      "--snapshot-every=" + std::to_string(options.snapshot_every),
  };
}

pid_t Spawn(const std::string& binary, const std::vector<std::string>& args) {
  pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    fprintf(stderr, "service_demo: exec %s: %s\n", binary.c_str(),
            strerror(errno));
    _exit(127);
  }
  return pid;
}

/// Blocking query client on one connection to the coordinator.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() { close(fd_); }

  Message Ask(uint64_t kind, uint64_t b = 0) {
    Message query;
    query.type = MsgType::kQuery;
    query.a = kind;
    query.b = b;
    Send(query);
    for (;;) {
      Message msg;
      if (!Read(&msg)) Die("coordinator connection died mid-query");
      if (msg.type == MsgType::kQueryResult && msg.a == kind) return msg;
    }
  }

  void Send(const Message& msg) {
    std::vector<uint8_t> frame;
    disttrack::sim::wire::EncodeFrame(msg, 0, &frame);
    if (!disttrack::service::WriteAll(fd_, frame.data(), frame.size())) {
      Die("write to coordinator failed");
    }
  }

 private:
  bool Read(Message* msg) {
    uint8_t buf[65536];
    uint64_t seq = 0;
    for (;;) {
      switch (reader_.Next(msg, &seq)) {
        case FrameReader::Result::kFrame:
          return true;
        case FrameReader::Result::kError:
          return false;
        case FrameReader::Result::kNeed:
          break;
      }
      long n = disttrack::service::ReadSome(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      reader_.Append(buf, static_cast<size_t>(n));
    }
  }

  int fd_;
  FrameReader reader_;
};

struct SerialRun {
  std::unique_ptr<disttrack::count::RandomizedCountTracker> count;
  std::unique_ptr<disttrack::frequency::RandomizedFrequencyTracker> frequency;
  std::unique_ptr<disttrack::rank::RandomizedRankTracker> rank;

  const disttrack::sim::CommMeter& meter() const {
    if (count) return count->meter();
    if (frequency) return frequency->meter();
    return rank->meter();
  }
};

/// Replays the coordinator's grant journal through a serial tracker: the
/// journal IS the effective global arrival order in lockstep mode.
SerialRun ReplayJournal(const ServiceOptions& options,
                        const std::vector<uint64_t>& journal_pairs) {
  SerialRun run;
  switch (options.tracker) {
    case TrackerKind::kCount:
      run.count = std::make_unique<disttrack::count::RandomizedCountTracker>(
          options.CountOptions());
      break;
    case TrackerKind::kFrequency:
      run.frequency =
          std::make_unique<disttrack::frequency::RandomizedFrequencyTracker>(
              options.FrequencyOptions());
      break;
    case TrackerKind::kRank:
      run.rank = std::make_unique<disttrack::rank::RandomizedRankTracker>(
          options.RankOptions());
      break;
  }
  std::vector<uint64_t> position(static_cast<size_t>(options.num_sites), 0);
  for (size_t i = 0; i + 1 < journal_pairs.size(); i += 2) {
    int site = static_cast<int>(journal_pairs[i]);
    uint64_t length = journal_pairs[i + 1];
    for (uint64_t j = 0; j < length; ++j) {
      uint64_t key = WorkloadKey(options, site, position[site]++);
      if (run.count) run.count->Arrive(site);
      if (run.frequency) run.frequency->Arrive(site, key);
      if (run.rank) run.rank->Arrive(site, key);
    }
  }
  uint64_t replayed = 0;
  for (uint64_t p : position) replayed += p;
  Check(replayed == options.total_arrivals,
        "grant journal covers " + std::to_string(replayed) + " arrivals, want " +
            std::to_string(options.total_arrivals));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceOptions options;
  options.num_sites = 64;
  options.total_arrivals = 200000;
  int kill_site = -1;
  uint64_t kill_after = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string error;
    if (arg.rfind("--kill=", 0) == 0) {
      if (sscanf(arg.c_str() + 7, "%d:%llu", &kill_site,
                 reinterpret_cast<unsigned long long*>(&kill_after)) != 2) {
        Die("--kill wants SITE:AFTER");
      }
      continue;
    }
    if (options.ParseFlag(arg, &error)) continue;
    Die(error.empty() ? "unknown flag: " + arg : error);
  }
  if (kill_site >= 0 && options.snapshot_every == 0) {
    options.snapshot_every = 512;  // recovery needs a snapshot to resume
  }

  // The daemon binaries live next to this one.
  std::string self = argv[0];
  size_t slash = self.rfind('/');
  std::string bindir = slash == std::string::npos ? "." : self.substr(0, slash);
  std::string coordinator_bin = bindir + "/disttrack_coordinator";
  std::string site_bin = bindir + "/disttrack_site";

  char tmpl[] = "/tmp/disttrack_demo_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) Die("mkdtemp failed");
  std::string sock = std::string(dir) + "/coordinator.sock";
  std::string endpoint = "unix:" + sock;

  std::vector<std::string> fleet = FleetArgs(options);
  std::vector<std::string> coord_args = fleet;
  coord_args.push_back("--listen=" + endpoint);
  pid_t coordinator_pid = Spawn(coordinator_bin, coord_args);

  auto site_args = [&](int site, bool with_crash) {
    std::vector<std::string> args = fleet;
    args.push_back("--connect=" + endpoint);
    args.push_back("--site=" + std::to_string(site));
    args.push_back("--snapshot-dir=" + std::string(dir));
    if (with_crash) {
      args.push_back("--crash-after=" + std::to_string(kill_after));
    }
    return args;
  };
  std::vector<pid_t> site_pids;
  for (int site = 0; site < options.num_sites; ++site) {
    site_pids.push_back(
        Spawn(site_bin, site_args(site, site == kill_site)));
  }

  Endpoint ep;
  std::string error;
  if (!Endpoint::Parse(endpoint, &ep, &error)) Die(error);
  int client_fd = disttrack::service::Dial(ep, 15000, &error);
  if (client_fd < 0) Die(error);
  Client client(client_fd);

  // Stream phase: poll progress, relaunching the killed site when it
  // goes down (exit code 7 is the deterministic --crash-after crash).
  bool crashed_once = false;
  uint64_t sites_done = 0;
  for (int tick = 0; tick < 3000; ++tick) {
    if (kill_site >= 0 && !crashed_once) {
      int status = 0;
      pid_t r = waitpid(site_pids[kill_site], &status, WNOHANG);
      if (r == site_pids[kill_site]) {
        Check(WIFEXITED(status) && WEXITSTATUS(status) == 7,
              "killed site exited abnormally");
        crashed_once = true;
        fprintf(stderr, "service_demo: site %d crashed, relaunching\n",
                kill_site);
        site_pids[kill_site] = Spawn(site_bin, site_args(kill_site, false));
      }
    }
    Message stats = client.Ask(disttrack::service::kQueryStats);
    sites_done = stats.values[kStatSitesDone];
    if (sites_done == static_cast<uint64_t>(options.num_sites)) break;
    usleep(100 * 1000);
  }
  Check(sites_done == static_cast<uint64_t>(options.num_sites),
        "fleet did not finish within the deadline");
  Check(kill_site < 0 || crashed_once, "--kill site never crashed");

  // Audit phase.
  Message stats = client.Ask(disttrack::service::kQueryStats);
  Message journal = client.Ask(disttrack::service::kQueryJournal);
  SerialRun serial = ReplayJournal(options, journal.values);
  const disttrack::sim::CommMeter& meter = serial.meter();

  Check(stats.values[kStatLedgerOk] == 1,
        "socket-byte ledger does not reconcile with encoded frame sizes");
  bool lockstep = options.mode == disttrack::service::RunMode::kLockstep;
  if (lockstep) {
    Check(stats.values[kStatPaperMessages] == meter.TotalMessages(),
          "paper messages: coordinator " +
              std::to_string(stats.values[kStatPaperMessages]) + " vs serial " +
              std::to_string(meter.TotalMessages()));
    Check(stats.values[kStatPaperWords] == meter.TotalWords(),
          "paper words: coordinator " +
              std::to_string(stats.values[kStatPaperWords]) + " vs serial " +
              std::to_string(meter.TotalWords()));
    Check(stats.values[kStatBroadcasts] == meter.broadcast_count(),
          "broadcast count mismatch");
  }
  if (kill_site >= 0) {
    Check(stats.values[kStatRejoins] >= 1, "no rejoin recorded after crash");
    Check(stats.values[kStatDupFrames] >= 1,
          "recovery replay produced no deduplicated frames");
  }

  // Estimates: bit-identical to the journal-order serial run (tier A).
  switch (options.tracker) {
    case TrackerKind::kCount: {
      Message result = client.Ask(disttrack::service::kQueryCount);
      double serial_est = serial.count->EstimateCount();
      if (lockstep) {
        Check(result.values[0] == Bits(serial_est),
              "count estimate is not bit-identical to the serial replay");
      }
      printf("count estimate %.1f (serial %.1f), n' = %llu\n",
             FromBits(result.values[0]), serial_est,
             static_cast<unsigned long long>(result.values[1]));
      break;
    }
    case TrackerKind::kFrequency: {
      for (uint64_t item = 0; item < 16; ++item) {
        Message result = client.Ask(disttrack::service::kQueryPoint, item);
        if (lockstep) {
          Check(result.values[0] ==
                    Bits(serial.frequency->EstimateFrequency(item)),
                "frequency estimate of hot item " + std::to_string(item) +
                    " is not bit-identical to the serial replay");
        }
      }
      Message hh =
          client.Ask(disttrack::service::kQueryHeavyHitters, Bits(0.01));
      printf("%llu heavy hitters above phi = 0.01\n",
             static_cast<unsigned long long>(hh.values.size() / 2));
      Check(hh.values.size() >= 2, "skewed stream produced no heavy hitters");
      break;
    }
    case TrackerKind::kRank: {
      for (int i = 1; i <= 8; ++i) {
        uint64_t value = options.universe / 9 * static_cast<uint64_t>(i);
        Message result = client.Ask(disttrack::service::kQueryRank, value);
        if (lockstep) {
          Check(result.values[0] == Bits(serial.rank->EstimateRank(value)),
                "rank estimate at " + std::to_string(value) +
                    " is not bit-identical to the serial replay");
        }
      }
      Message median =
          client.Ask(disttrack::service::kQueryQuantile, Bits(0.5));
      printf("median ~ %llu\n",
             static_cast<unsigned long long>(median.values[0]));
      break;
    }
  }

  // Orderly shutdown: coordinator fans kShutdown to the sites, everyone
  // exits 0.
  Message bye;
  bye.type = MsgType::kShutdown;
  client.Send(bye);
  for (int site = 0; site < options.num_sites; ++site) {
    int status = 0;
    waitpid(site_pids[site], &status, 0);
    Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
          "site " + std::to_string(site) + " exited abnormally");
  }
  int status = 0;
  waitpid(coordinator_pid, &status, 0);
  Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
        "coordinator exited abnormally");

  printf(
      "service_demo OK: %s %s, k=%d, n=%llu | paper %llu msgs / %llu words%s "
      "| wire %llu B in, %llu B out, %llu dup frames, %llu rejoins\n",
      TrackerKindName(options.tracker), RunModeName(options.mode),
      options.num_sites,
      static_cast<unsigned long long>(options.total_arrivals),
      static_cast<unsigned long long>(stats.values[kStatPaperMessages]),
      static_cast<unsigned long long>(stats.values[kStatPaperWords]),
      lockstep ? " (serial meter matches)" : "",
      static_cast<unsigned long long>(stats.values[kStatBytesIn]),
      static_cast<unsigned long long>(stats.values[kStatBytesOut]),
      static_cast<unsigned long long>(stats.values[kStatDupFrames]),
      static_cast<unsigned long long>(stats.values[kStatRejoins]));
  return 0;
}
