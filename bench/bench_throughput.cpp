// Throughput baseline for the three randomized trackers: elements/sec over
// uniform and skewed workloads at k in {8, 64}, plus an in-binary A/B of
// the production batch path against the paper-literal per-arrival
// Bernoulli path on the count tracker (n = 1e7, eps = 0.01).
//
// Writes BENCH_throughput.json (machine-readable trajectory for later PRs)
// and prints a human table.
//
// --check=PATH turns the run into a regression gate: every (problem,
// path, workload, k, n) configuration measured by this run is compared
// against the matching entry of the baseline JSON at PATH, and the
// process exits nonzero if any tracker lost more than 20% throughput.
// CI runs this against the committed BENCH_throughput.json; run it at the
// default sizes, since entries are matched on n as well.
//
// The count A/B replays the identical site stream through both engines:
//  * per_arrival — a faithful copy of the pre-fast-path ReplayImpl loop
//    (one virtual Arrive() per element, per-element checkpoint
//    arithmetic) driving the tracker's reference oracle,
//    use_skip_sampling=false, i.e. one Bernoulli RNG draw per arrival;
//  * grouped_batched — the library's ReplayCountSites (batch delivery
//    between checkpoints into the production engine: skip sampling,
//    site-grouped chunks cut at each broadcast).
// Both produce the same checkpoint schedule and ±eps-accurate estimates,
// so the ratio isolates the delivery + sampling engine.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "disttrack/core/tracking.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/workload.h"

namespace {

using namespace disttrack;

struct BenchEntry {
  std::string problem;   // count | frequency | rank
  std::string path;      // grouped_batched | skip_batched | per_arrival | ...
  std::string workload;  // uniform | zipf | skewed_sites
  int k = 0;
  uint64_t n = 0;
  double eps = 0;
  double seconds = 0;
  double elements_per_sec = 0;
  double final_rel_error = 0;  // |estimate - truth| / n at the end
};

// Hardware parallelism of this machine, stamped into every run row so a
// baseline records the machine shape it was measured on.
int Cores() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

double Now() { return bench::NowSeconds(); }

// The pre-fast-path replay loop, kept verbatim as the A/B baseline: one
// virtual Arrive() per element, per-element geometric-checkpoint test.
std::vector<sim::Checkpoint> OldReplayCountSites(
    sim::CountTrackerInterface* tracker, const sim::SiteStream& sites,
    double checkpoint_factor) {
  std::vector<sim::Checkpoint> out;
  uint64_t n = 0;
  double next = 1.0;
  for (uint16_t site : sites) {
    tracker->Arrive(site);
    ++n;
    if (static_cast<double>(n) >= next) {
      out.push_back(sim::Checkpoint{n, tracker->EstimateCount(),
                                    static_cast<double>(n)});
      next = static_cast<double>(n) * checkpoint_factor;
    }
  }
  if (out.empty() || out.back().n != n) {
    out.push_back(sim::Checkpoint{n, tracker->EstimateCount(),
                                  static_cast<double>(n)});
  }
  return out;
}

// Delivers the whole workload. The fast path batches in large chunks (one
// virtual dispatch per chunk); the per-arrival path replays history: one
// virtual Arrive() per element.
template <typename Tracker, typename ArriveFn>
double DeliverTimed(Tracker* tracker, const sim::Workload& workload,
                    bool batched, ArriveFn arrive_one) {
  constexpr size_t kChunk = 1 << 16;
  double t0 = Now();
  if (batched) {
    for (size_t i = 0; i < workload.size(); i += kChunk) {
      size_t len = std::min(kChunk, workload.size() - i);
      tracker->ArriveBatch(workload.data() + i, len);
    }
  } else {
    for (const sim::Arrival& a : workload) arrive_one(tracker, a);
  }
  return Now() - t0;
}

// Best-of-`reps` timing of one configuration; returns the filled entry.
// `make` builds a fresh tracker, `run` returns (seconds, final_rel_error).
template <typename MakeFn, typename RunFn>
BenchEntry TimeConfig(const std::string& problem, const std::string& path,
                      const std::string& workload_name, int k, uint64_t n,
                      double eps, int reps, MakeFn make, RunFn run) {
  BenchEntry e;
  e.problem = problem;
  e.path = path;
  e.workload = workload_name;
  e.k = k;
  e.n = n;
  e.eps = eps;
  e.seconds = 0;
  for (int r = 0; r < reps; ++r) {
    auto tracker = make();
    auto [secs, rel_err] = run(tracker.get());
    if (r == 0 || secs < e.seconds) e.seconds = secs;
    e.final_rel_error = rel_err;  // same-seed runs agree; keep the last
  }
  e.elements_per_sec =
      e.seconds > 0 ? static_cast<double>(n) / e.seconds : 0;
  return e;
}

constexpr uint64_t kSeed = 20260728;

// The production path of every tracker.
core::TrackerOptions Options(int k, double eps) {
  core::TrackerOptions opt;
  opt.num_sites = k;
  opt.epsilon = eps;
  opt.seed = kSeed;
  return opt;
}

// The per_arrival rows run each tracker's paper-literal per-arrival coin
// oracle, which only the per-tracker options expose.
template <typename Tracker, typename TrackerOptions>
std::unique_ptr<Tracker> MakePerArrival(int k, double eps) {
  TrackerOptions o;
  o.num_sites = k;
  o.epsilon = eps;
  o.seed = kSeed;
  o.use_skip_sampling = false;
  return std::make_unique<Tracker>(o);
}

std::unique_ptr<sim::CountTrackerInterface> MakeCount(
    const core::TrackerOptions& opt) {
  std::unique_ptr<sim::CountTrackerInterface> t;
  Status s = core::MakeCountTracker(core::Algorithm::kRandomized, opt, &t);
  if (!s.ok()) {
    std::fprintf(stderr, "MakeCountTracker: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return t;
}

std::unique_ptr<sim::FrequencyTrackerInterface> MakeFrequency(
    const core::TrackerOptions& opt) {
  std::unique_ptr<sim::FrequencyTrackerInterface> t;
  Status s = core::MakeFrequencyTracker(core::Algorithm::kRandomized, opt, &t);
  if (!s.ok()) {
    std::fprintf(stderr, "MakeFrequencyTracker: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return t;
}

std::unique_ptr<sim::RankTrackerInterface> MakeRank(
    const core::TrackerOptions& opt) {
  std::unique_ptr<sim::RankTrackerInterface> t;
  Status s = core::MakeRankTracker(core::Algorithm::kRandomized, opt, &t);
  if (!s.ok()) {
    std::fprintf(stderr, "MakeRankTracker: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return t;
}

void PrintEntry(const BenchEntry& e) {
  std::printf("%-10s %-12s %-13s k=%-3d n=%-9llu %9.3fs %12.0f elem/s"
              "  rel_err=%.5f\n",
              e.problem.c_str(), e.path.c_str(), e.workload.c_str(), e.k,
              static_cast<unsigned long long>(e.n), e.seconds,
              e.elements_per_sec, e.final_rel_error);
}

void WriteJson(const std::vector<BenchEntry>& entries,
               const std::vector<std::pair<int, double>>& count_speedups,
               double eps, uint64_t n_count, const char* json_path) {
  std::FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n  \"cores\": %d,\n"
               "  \"runs\": [\n", Cores());
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    std::fprintf(
        f,
        "    {\"problem\": \"%s\", \"path\": \"%s\", \"workload\": \"%s\", "
        "\"k\": %d, \"n\": %llu, \"eps\": %g, \"seconds\": %.6f, "
        "\"elements_per_sec\": %.1f, \"final_rel_error\": %.8f, "
        "\"cores\": %d}%s\n",
        e.problem.c_str(), e.path.c_str(), e.workload.c_str(), e.k,
        static_cast<unsigned long long>(e.n), e.eps, e.seconds,
        e.elements_per_sec, e.final_rel_error, Cores(),
        i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"count_ab\": [\n");
  for (size_t i = 0; i < count_speedups.size(); ++i) {
    std::fprintf(f,
                 "    {\"k\": %d, \"n\": %llu, \"eps\": %g, "
                 "\"speedup_grouped_batched_vs_per_arrival\": %.2f}%s\n",
                 count_speedups[i].first,
                 static_cast<unsigned long long>(n_count), eps,
                 count_speedups[i].second,
                 i + 1 < count_speedups.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

uint64_t FlagOr(int argc, char** argv, const char* name, uint64_t fallback) {
  size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::strtoull(argv[i] + len + 1, nullptr, 10);
    }
  }
  return fallback;
}

const char* StringFlagOr(int argc, char** argv, const char* name,
                         const char* fallback) {
  size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return fallback;
}

// ------------------------------------------------- --check regression gate

constexpr double kCheckTolerance = 0.20;  // fail below 80% of baseline

struct BaselineEntry {
  char problem[16];
  char path[16];
  char workload[16];
  int k = 0;
  unsigned long long n = 0;
  double elements_per_sec = 0;
};

// Parses the `runs` lines of a BENCH_throughput.json produced by
// WriteJson (one object per line; sscanf on our own fixed format).
std::vector<BaselineEntry> ReadBaseline(const char* json_path) {
  std::vector<BaselineEntry> out;
  std::FILE* f = std::fopen(json_path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "--check: cannot open baseline %s\n", json_path);
    std::exit(1);
  }
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    BaselineEntry e;
    double eps = 0, seconds = 0;
    int got = std::sscanf(
        line,
        " {\"problem\": \"%15[^\"]\", \"path\": \"%15[^\"]\", "
        "\"workload\": \"%15[^\"]\", \"k\": %d, \"n\": %llu, "
        "\"eps\": %lf, \"seconds\": %lf, "
        "\"elements_per_sec\": %lf",
        e.problem, e.path, e.workload, &e.k, &e.n, &eps, &seconds,
        &e.elements_per_sec);
    if (got == 8) out.push_back(e);
  }
  std::fclose(f);
  return out;
}

// Returns nonzero when the gate fails: a configuration regressed >20%,
// nothing was comparable (a vacuous gate), or a baseline row disappeared
// from the run entirely (a silently-dropped path would otherwise shrink
// the gate one row at a time). `summary_path`, when set, receives a
// markdown per-problem ratio table (CI pipes $GITHUB_STEP_SUMMARY here).
int CheckAgainstBaseline(const std::vector<BenchEntry>& entries,
                         const char* baseline_path,
                         const char* summary_path) {
  std::vector<BaselineEntry> baseline = ReadBaseline(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "--check: no entries parsed from %s\n",
                 baseline_path);
    return 1;
  }
  int failures = 0;
  int compared = 0;
  // Per-problem rollup of old/new ratios, printed as a summary table on
  // success as well, so CI logs double as the throughput trajectory
  // record per commit.
  struct ProblemRoll {
    const char* name;
    double min_ratio = 1e300;
    double max_ratio = 0;
    std::string min_config;
    int rows = 0;
  };
  ProblemRoll rolls[3] = {{"count"}, {"frequency"}, {"rank"}};
  for (const BenchEntry& e : entries) {
    const BaselineEntry* match = nullptr;
    for (const BaselineEntry& b : baseline) {
      if (e.problem == b.problem && e.path == b.path &&
          e.workload == b.workload && e.k == b.k &&
          e.n == static_cast<uint64_t>(b.n)) {
        match = &b;
        break;
      }
    }
    if (match == nullptr) continue;
    ++compared;
    double ratio = match->elements_per_sec > 0
                       ? e.elements_per_sec / match->elements_per_sec
                       : 0.0;
    bool regressed = ratio < 1.0 - kCheckTolerance;
    std::printf("check  %-10s %-14s %-13s k=%-3d %12.0f vs %12.0f elem/s "
                "(x%.2f)%s\n",
                e.problem.c_str(), e.path.c_str(), e.workload.c_str(), e.k,
                e.elements_per_sec, match->elements_per_sec, ratio,
                regressed ? "  REGRESSION" : "");
    if (regressed) ++failures;
    for (ProblemRoll& roll : rolls) {
      if (e.problem != roll.name) continue;
      ++roll.rows;
      roll.max_ratio = std::max(roll.max_ratio, ratio);
      if (ratio < roll.min_ratio) {
        roll.min_ratio = ratio;
        roll.min_config = e.path + "/" + e.workload + "/k=" +
                          std::to_string(e.k);
      }
    }
  }
  if (compared == 0) {
    std::fprintf(stderr,
                 "--check: no configuration of this run matches %s "
                 "(run at the baseline's sizes)\n",
                 baseline_path);
    return 1;
  }
  // Every baseline row must still be measured by this run: a path that
  // silently vanishes from the bench would otherwise drop out of the
  // gate without anyone noticing.
  int missing = 0;
  for (const BaselineEntry& b : baseline) {
    bool found = false;
    for (const BenchEntry& e : entries) {
      if (e.problem == b.problem && e.path == b.path &&
          e.workload == b.workload && e.k == b.k &&
          e.n == static_cast<uint64_t>(b.n)) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "--check: baseline row %s/%s/%s/k=%d/n=%llu was not "
                   "measured by this run — a path disappeared\n",
                   b.problem, b.path, b.workload, b.k, b.n);
      ++missing;
    }
  }
  std::printf("\n--- throughput vs baseline (%s) ---\n", baseline_path);
  std::printf("%-10s %5s %10s %10s  %s\n", "problem", "rows", "min", "max",
              "slowest row");
  for (const ProblemRoll& roll : rolls) {
    if (roll.rows == 0) continue;
    std::printf("%-10s %5d %9.2fx %9.2fx  %s\n", roll.name, roll.rows,
                roll.min_ratio, roll.max_ratio, roll.min_config.c_str());
  }
  if (summary_path != nullptr) {
    std::FILE* f = std::fopen(summary_path, "a");
    if (f != nullptr) {
      std::fprintf(f, "### Throughput vs committed baseline\n\n");
      std::fprintf(f, "| problem | rows | min | max | slowest row |\n");
      std::fprintf(f, "|---|---|---|---|---|\n");
      for (const ProblemRoll& roll : rolls) {
        if (roll.rows == 0) continue;
        std::fprintf(f, "| %s | %d | %.2fx | %.2fx | `%s` |\n", roll.name,
                     roll.rows, roll.min_ratio, roll.max_ratio,
                     roll.min_config.c_str());
      }
      std::fprintf(f, "\n%d row(s) compared, %d regression(s), %d missing "
                   "baseline row(s).\n",
                   compared, failures, missing);
      std::fclose(f);
    }
  }
  if (failures > 0 || missing > 0) {
    std::fprintf(stderr,
                 "--check: %d configuration(s) regressed more than %.0f%%, "
                 "%d baseline row(s) missing, vs %s\n",
                 failures, kCheckTolerance * 100, missing, baseline_path);
    return 1;
  }
  std::printf("check PASSED: %d row(s) compared, none regressed more than "
              "%.0f%%, no baseline rows missing\n",
              compared, kCheckTolerance * 100);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double eps = 0.01;
  const uint64_t n_count = FlagOr(argc, argv, "--n_count", 10000000);
  const uint64_t n_freq = FlagOr(argc, argv, "--n_freq", 2000000);
  const uint64_t n_rank = FlagOr(argc, argv, "--n_rank", 500000);
  const int reps = static_cast<int>(FlagOr(argc, argv, "--reps", 3));
  const char* json_path = "BENCH_throughput.json";
  const uint64_t universe = 100000;

  std::vector<BenchEntry> entries;
  std::vector<std::pair<int, double>> count_speedups;

  for (int k : {8, 64}) {
    // ---- count: uniform-random and skewed site schedules, full A/B.
    // Both engines replay the identical compact site stream with the same
    // checkpoint schedule; only the delivery + sampling path differs.
    for (auto [sched, sched_name] :
         {std::pair(stream::SiteSchedule::kUniformRandom, "uniform"),
          std::pair(stream::SiteSchedule::kSkewedGeometric, "skewed_sites")}) {
      sim::SiteStream sites = stream::MakeCountSites(k, n_count, sched, 7);
      double per_arrival_secs = 0;
      for (bool skip : {false, true}) {
        BenchEntry e = TimeConfig(
            "count", skip ? "grouped_batched" : "per_arrival", sched_name, k,
            n_count, eps, reps,
            [&]() -> std::unique_ptr<sim::CountTrackerInterface> {
              if (skip) return MakeCount(Options(k, eps));
              return MakePerArrival<count::RandomizedCountTracker,
                                    count::RandomizedCountOptions>(k, eps);
            },
            [&](sim::CountTrackerInterface* t) {
              double t0 = Now();
              auto checkpoints =
                  skip ? sim::ReplayCountSites(t, sites, 1.5)
                       : OldReplayCountSites(t, sites, 1.5);
              double secs = Now() - t0;
              const sim::Checkpoint& last = checkpoints.back();
              double rel = last.n == 0
                               ? 0.0
                               : std::abs(last.estimate - last.truth) /
                                     static_cast<double>(last.n);
              return std::pair<double, double>(secs, rel);
            });
        PrintEntry(e);
        if (!skip) {
          per_arrival_secs = e.seconds;
        } else if (std::strcmp(sched_name, "uniform") == 0) {
          count_speedups.emplace_back(k, per_arrival_secs / e.seconds);
        }
        entries.push_back(e);
      }
    }

    // ---- frequency: uniform and Zipf(1.1) items, A/B.
    for (auto [alpha, dist_name] :
         {std::pair(0.0, "uniform"), std::pair(1.1, "zipf")}) {
      sim::Workload w = stream::MakeFrequencyWorkload(
          k, n_freq, stream::SiteSchedule::kUniformRandom, universe, alpha,
          11);
      uint64_t truth = stream::ExactFrequency(w, 0);
      struct FreqPath {
        const char* name;
        bool skip;
      };
      // skip_batched is the production path: skip sampling and the
      // grouped batch engine, with the counter tables cache-resident at
      // this eps.
      for (const FreqPath& path : {FreqPath{"per_arrival", false},
                                   FreqPath{"skip_batched", true}}) {
        bool skip = path.skip;
        BenchEntry e = TimeConfig(
            "frequency", path.name, dist_name, k, n_freq, eps, reps,
            [&]() -> std::unique_ptr<sim::FrequencyTrackerInterface> {
              if (skip) return MakeFrequency(Options(k, eps));
              return MakePerArrival<frequency::RandomizedFrequencyTracker,
                                    frequency::RandomizedFrequencyOptions>(
                  k, eps);
            },
            [&](sim::FrequencyTrackerInterface* t) {
              double secs = DeliverTimed(
                  t, w, skip,
                  [](sim::FrequencyTrackerInterface* ft,
                     const sim::Arrival& a) { ft->Arrive(a.site, a.key); });
              double rel = n_freq == 0
                               ? 0.0
                               : std::abs(t->EstimateFrequency(0) -
                                          static_cast<double>(truth)) /
                                     static_cast<double>(n_freq);
              return std::pair<double, double>(secs, rel);
            });
        PrintEntry(e);
        entries.push_back(e);
      }
    }

    // ---- rank: uniform values and Zipf(1.1)-skewed values. per_arrival
    // runs the per-arrival tail-coin oracle, grouped_batched the
    // production path.
    for (auto [use_zipf, dist_name] :
         {std::pair(false, "uniform"), std::pair(true, "zipf")}) {
      sim::Workload w =
          use_zipf ? stream::MakeFrequencyWorkload(
                         k, n_rank, stream::SiteSchedule::kUniformRandom,
                         universe, 1.1, 13)
                   : stream::MakeRankWorkload(
                         k, n_rank, stream::SiteSchedule::kUniformRandom,
                         stream::ValueOrder::kUniformRandom, 17, 13);
      uint64_t query = use_zipf ? universe / 2 : (1ull << 16);
      uint64_t truth = stream::ExactRank(w, query);
      struct RankPath {
        const char* name;
        bool skip;
      };
      for (const RankPath& path : {RankPath{"per_arrival", false},
                                   RankPath{"grouped_batched", true}}) {
        BenchEntry e = TimeConfig(
            "rank", path.name, dist_name, k, n_rank, eps, reps,
            [&]() -> std::unique_ptr<sim::RankTrackerInterface> {
              if (path.skip) return MakeRank(Options(k, eps));
              return MakePerArrival<rank::RandomizedRankTracker,
                                    rank::RandomizedRankOptions>(k, eps);
            },
            [&](sim::RankTrackerInterface* t) {
              double secs = DeliverTimed(
                  t, w, path.skip,
                  [](sim::RankTrackerInterface* rt, const sim::Arrival& a) {
                    rt->Arrive(a.site, a.key);
                  });
              double rel = n_rank == 0
                               ? 0.0
                               : std::abs(t->EstimateRank(query) -
                                          static_cast<double>(truth)) /
                                     static_cast<double>(n_rank);
              return std::pair<double, double>(secs, rel);
            });
        PrintEntry(e);
        entries.push_back(e);
      }
    }
  }

  // ---- frequency, table-bound regime: at eps = 5e-4, k = 32 the
  // sticky-counter working set (~ c/(eps sqrt(k)) entries per site, 32
  // bytes each across k sites ~ 1.4 MB) outgrows the cache — the regime
  // where site-contiguous spans pay most for the permutation.
  {
    const int k_tb = 32;
    const double eps_tb = 5e-4;
    sim::Workload w = stream::MakeFrequencyWorkload(
        k_tb, n_freq, stream::SiteSchedule::kUniformRandom, 1 << 20, 0.0,
        17);
    uint64_t truth = stream::ExactFrequency(w, 0);
    BenchEntry e = TimeConfig(
        "frequency", "grouped_batched", "table_bound", k_tb, n_freq, eps_tb,
        reps,
        [&] {
          frequency::RandomizedFrequencyOptions o;
          o.num_sites = k_tb;
          o.epsilon = eps_tb;
          o.seed = kSeed;
          return std::make_unique<frequency::RandomizedFrequencyTracker>(o);
        },
        [&](sim::FrequencyTrackerInterface* t) {
          double secs = DeliverTimed(
              t, w, true,
              [](sim::FrequencyTrackerInterface* ft, const sim::Arrival& a) {
                ft->Arrive(a.site, a.key);
              });
          double rel = n_freq == 0
                           ? 0.0
                           : std::abs(t->EstimateFrequency(0) -
                                      static_cast<double>(truth)) /
                                 static_cast<double>(n_freq);
          return std::pair<double, double>(secs, rel);
        });
    PrintEntry(e);
    entries.push_back(e);
  }

  WriteJson(entries, count_speedups, eps, n_count, json_path);
  for (auto [k, speedup] : count_speedups) {
    std::printf("count A/B (uniform, k=%d, n=%llu): grouped_batched is "
                "%.2fx per_arrival %s\n",
                k, static_cast<unsigned long long>(n_count), speedup,
                speedup >= 5.0 ? "[>=5x OK]" : "[below 5x target]");
  }
  std::printf("wrote %s\n", json_path);
  if (const char* baseline = StringFlagOr(argc, argv, "--check", nullptr)) {
    const char* summary = StringFlagOr(argc, argv, "--summary", nullptr);
    return CheckAgainstBaseline(entries, baseline, summary);
  }
  return 0;
}
