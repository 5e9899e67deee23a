// Throughput baseline for the three randomized trackers: elements/sec over
// uniform and skewed workloads at k in {8, 64}, plus an in-binary A/B of
// the geometric-skip fast path against the historical per-arrival
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
//    arithmetic) driving the tracker with use_skip_sampling=false, i.e.
//    one Bernoulli RNG draw per arrival;
//  * skip_batched — the library's ReplayCountSites (batch delivery between
//    checkpoints into the skip-sampling event-countdown engine).
// Both produce the same checkpoint schedule and ±eps-accurate estimates,
// so the ratio isolates the delivery + sampling engine.
//
// SIMD dispatch policy: the legacy rows run under
// simd::SetDispatchMode(kForceScalar) so their numbers stay comparable
// across machines and across the pre-SIMD baselines; the simd_batched
// rows re-run the frequency skip_batched and rank grouped_batched
// configurations under kAuto, so the scalar/SIMD ratio is an in-binary
// A/B on identical streams. Every row records which dispatch actually
// ran (`simd`: 0 scalar, 1 AVX2) and --check skips rows whose recorded
// dispatch differs from this machine's, the same way thread-scaling
// rows are skipped across core counts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "disttrack/common/simd.h"
#include "disttrack/core/tracking.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/online.h"
#include "disttrack/sim/parallel_cluster.h"
#include "disttrack/stream/workload.h"

namespace {

using namespace disttrack;

struct BenchEntry {
  std::string problem;   // count | frequency | rank
  std::string path;      // skip_batched | per_arrival
  std::string workload;  // uniform | zipf | skewed_sites
  int k = 0;
  uint64_t n = 0;
  double eps = 0;
  double seconds = 0;
  double elements_per_sec = 0;
  double final_rel_error = 0;  // |estimate - truth| / n at the end
  // Worker-thread count of the engine under test; 0 for the serial
  // paths. Rows with threads > 1 measure thread scaling, which is only
  // comparable between machines with the same core count — --check
  // skips them when the recorded core count differs (see Cores()).
  int threads = 0;
  // Dispatch the row actually ran under: 0 scalar, 1 AVX2. Legacy rows
  // are pinned to 0 (kForceScalar); simd_batched rows report what kAuto
  // resolved to, so --check can refuse to compare a row recorded with
  // AVX2 against a run on a machine without it.
  int simd = 0;
};

// Physical parallelism of this machine, stamped into every run row so a
// later --check knows whether the thread-scaling rows are comparable.
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

core::TrackerOptions Options(int k, double eps, bool skip,
                             bool shared_ladder = true,
                             bool site_grouping = true) {
  core::TrackerOptions opt;
  opt.num_sites = k;
  opt.epsilon = eps;
  opt.seed = 20260728;
  opt.use_skip_sampling = skip;
  opt.use_shared_ladder = shared_ladder;
  opt.use_site_grouping = site_grouping;
  return opt;
}

// The frequency tracker's grouped engine is opt-in through its own
// options (core::TrackerOptions leaves it off; see tracking.h), so the
// grouped_batched frequency row constructs the tracker directly.
std::unique_ptr<sim::FrequencyTrackerInterface> MakeFrequencyGrouped(
    int k, double eps) {
  frequency::RandomizedFrequencyOptions o;
  o.num_sites = k;
  o.epsilon = eps;
  o.seed = 20260728;
  o.use_site_grouping = true;
  return std::make_unique<frequency::RandomizedFrequencyTracker>(o);
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
               const std::vector<std::pair<int, double>>& rank_speedups,
               double eps, uint64_t n_count, uint64_t n_rank,
               const char* json_path) {
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
        "\"threads\": %d, \"cores\": %d, \"simd\": %d}%s\n",
        e.problem.c_str(), e.path.c_str(), e.workload.c_str(), e.k,
        static_cast<unsigned long long>(e.n), e.eps, e.seconds,
        e.elements_per_sec, e.final_rel_error, e.threads, Cores(), e.simd,
        i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"count_ab\": [\n");
  for (size_t i = 0; i < count_speedups.size(); ++i) {
    std::fprintf(f,
                 "    {\"k\": %d, \"n\": %llu, \"eps\": %g, "
                 "\"speedup_skip_batched_vs_per_arrival\": %.2f}%s\n",
                 count_speedups[i].first,
                 static_cast<unsigned long long>(n_count), eps,
                 count_speedups[i].second,
                 i + 1 < count_speedups.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rank_ab\": [\n");
  for (size_t i = 0; i < rank_speedups.size(); ++i) {
    std::fprintf(f,
                 "    {\"k\": %d, \"n\": %llu, \"eps\": %g, "
                 "\"speedup_shared_ladder_vs_staged\": %.2f}%s\n",
                 rank_speedups[i].first,
                 static_cast<unsigned long long>(n_rank), eps,
                 rank_speedups[i].second,
                 i + 1 < rank_speedups.size() ? "," : "");
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
  int threads = 0;  // 0 on serial rows and pre-threads baselines
  int cores = 0;    // machine the baseline was recorded on; 0 = unknown
  int simd = -1;    // dispatch the row ran under; -1 = pre-SIMD baseline
};

// Parses the `runs` lines of a BENCH_throughput.json produced by
// WriteJson (one object per line; sscanf on our own fixed format).
// Rows recorded before the threads/cores fields parse with both at 0;
// rows recorded before the simd field parse with simd = -1 (unknown,
// compared unconditionally — those baselines predate every SIMD path).
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
    double eps = 0, seconds = 0, rel = 0;
    int got = std::sscanf(
        line,
        " {\"problem\": \"%15[^\"]\", \"path\": \"%15[^\"]\", "
        "\"workload\": \"%15[^\"]\", \"k\": %d, \"n\": %llu, "
        "\"eps\": %lf, \"seconds\": %lf, "
        "\"elements_per_sec\": %lf, \"final_rel_error\": %lf, "
        "\"threads\": %d, \"cores\": %d, \"simd\": %d",
        e.problem, e.path, e.workload, &e.k, &e.n, &eps, &seconds,
        &e.elements_per_sec, &rel, &e.threads, &e.cores, &e.simd);
    if (got >= 8) {
      if (got < 11) {
        e.threads = 0;
        e.cores = 0;
      }
      if (got < 12) e.simd = -1;
      out.push_back(e);
    }
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
    // Thread-scaling rows only mean something on the machine shape they
    // were recorded on: comparing a 4-thread row from an 8-core recorder
    // against a 1-core runner gates on the hardware, not the code.
    if (match->threads > 1 && match->cores != 0 && match->cores != Cores()) {
      std::printf("check  %-10s %-14s %-13s k=%-3d skipped (baseline on "
                  "%d cores, this machine has %d)\n",
                  e.problem.c_str(), e.path.c_str(), e.workload.c_str(), e.k,
                  match->cores, Cores());
      continue;
    }
    // Same idea for vector capability: a simd_batched row recorded with
    // AVX2 dispatch would gate a non-AVX2 runner (or a scalar-forced CI
    // leg) on the hardware, not the code. Pre-SIMD baselines (simd = -1)
    // are compared unconditionally — their rows were scalar by
    // construction and the legacy rows still run force-scalar.
    if (match->simd >= 0 && match->simd != e.simd) {
      std::printf("check  %-10s %-14s %-13s k=%-3d skipped (baseline "
                  "dispatch simd=%d, this run has simd=%d)\n",
                  e.problem.c_str(), e.path.c_str(), e.workload.c_str(), e.k,
                  match->simd, e.simd);
      continue;
    }
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
      // Grouped-vs-countdown A/B of this very run, per configuration.
      std::fprintf(f,
                   "\n### grouped_batched vs skip_batched (this run)\n\n"
                   "| problem | workload | k | grouped | skip | ratio |\n"
                   "|---|---|---|---|---|---|\n");
      for (const BenchEntry& g : entries) {
        if (g.path != "grouped_batched") continue;
        for (const BenchEntry& b : entries) {
          if (b.path == "skip_batched" && b.problem == g.problem &&
              b.workload == g.workload && b.k == g.k && b.n == g.n) {
            std::fprintf(f, "| %s | %s | %d | %.0f | %.0f | %.2fx |\n",
                         g.problem.c_str(), g.workload.c_str(), g.k,
                         g.elements_per_sec, b.elements_per_sec,
                         b.elements_per_sec > 0
                             ? g.elements_per_sec / b.elements_per_sec
                             : 0.0);
          }
        }
      }
      // Scalar-vs-SIMD A/B of this very run: each simd_batched row
      // against the force-scalar row of the same configuration
      // (frequency pairs with skip_batched, rank with grouped_batched —
      // see the path tables in main()).
      std::fprintf(f,
                   "\n### simd_batched vs force-scalar twin (this run)\n\n"
                   "| problem | workload | k | simd | scalar | ratio |\n"
                   "|---|---|---|---|---|---|\n");
      for (const BenchEntry& g : entries) {
        if (g.path != "simd_batched") continue;
        const char* twin =
            g.problem == "frequency" ? "skip_batched" : "grouped_batched";
        for (const BenchEntry& b : entries) {
          if (b.path == twin && b.problem == g.problem &&
              b.workload == g.workload && b.k == g.k && b.n == g.n) {
            std::fprintf(f, "| %s | %s | %d | %.0f | %.0f | %.2fx |\n",
                         g.problem.c_str(), g.workload.c_str(), g.k,
                         g.elements_per_sec, b.elements_per_sec,
                         b.elements_per_sec > 0
                             ? g.elements_per_sec / b.elements_per_sec
                             : 0.0);
          }
        }
      }
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

  // Legacy rows are measured with every kernel pinned to its scalar
  // mirror (see the dispatch-policy note in the header comment); only
  // the simd_batched rows below flip to kAuto, and they restore this
  // pin before the next configuration runs.
  simd::SetDispatchMode(simd::DispatchMode::kForceScalar);

  std::vector<BenchEntry> entries;
  std::vector<std::pair<int, double>> count_speedups;
  std::vector<std::pair<int, double>> rank_speedups;

  for (int k : {8, 64}) {
    // ---- count: uniform-random and skewed site schedules, full A/B.
    // Both engines replay the identical compact site stream with the same
    // checkpoint schedule; only the delivery + sampling path differs.
    for (auto [sched, sched_name] :
         {std::pair(stream::SiteSchedule::kUniformRandom, "uniform"),
          std::pair(stream::SiteSchedule::kSkewedGeometric, "skewed_sites")}) {
      sim::SiteStream sites = stream::MakeCountSites(k, n_count, sched, 7);
      double per_arrival_secs = 0;
      struct CountPath {
        const char* name;
        bool skip;
        bool grouped;
      };
      for (const CountPath& path :
           {CountPath{"per_arrival", false, false},
            CountPath{"skip_batched", true, false},
            CountPath{"grouped_batched", true, true}}) {
        bool skip = path.skip;
        BenchEntry e = TimeConfig(
            "count", path.name, sched_name, k, n_count, eps, reps,
            [&] { return MakeCount(Options(k, eps, skip, true, path.grouped)); },
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
        } else if (std::strcmp(path.name, "skip_batched") == 0 &&
                   std::strcmp(sched_name, "uniform") == 0) {
          count_speedups.emplace_back(k, per_arrival_secs / e.seconds);
        }
        entries.push_back(e);
      }
      // Parallel replay rows: same site stream, same checkpoint schedule
      // as skip_batched, through sim::ParallelCluster — an online session
      // fed the stream in 64Ki pushes cut at every checkpoint.
      for (int threads : {1, 4}) {
        sim::ParallelCluster cluster(threads);
        BenchEntry e = TimeConfig(
            "count", "cluster_t" + std::to_string(threads), sched_name, k,
            n_count, eps, reps,
            [&] { return MakeCount(Options(k, eps, true)); },
            [&](sim::CountTrackerInterface* t) {
              double t0 = Now();
              auto checkpoints = cluster.ReplayCountSites(t, sites, 1.5);
              double secs = Now() - t0;
              const sim::Checkpoint& last = checkpoints.back();
              double rel = last.n == 0
                               ? 0.0
                               : std::abs(last.estimate - last.truth) /
                                     static_cast<double>(last.n);
              return std::pair<double, double>(secs, rel);
            });
        e.threads = threads;
        PrintEntry(e);
        entries.push_back(e);
      }
      // Online ingest rows: the SAME stream pushed live through
      // sim::OnlineCountSession — broadcast schedule discovered by
      // speculation + rollback — one push per checkpoint segment,
      // sampled at the same checkpoint boundaries as the replay rows.
      for (int threads : {1, 4}) {
        sim::ParallelCluster cluster(threads);
        std::vector<uint64_t> bounds = sim::CheckpointCounts(n_count, 1.5);
        BenchEntry e = TimeConfig(
            "count", "online_t" + std::to_string(threads), sched_name, k,
            n_count, eps, reps,
            [&] { return MakeCount(Options(k, eps, true)); },
            [&](sim::CountTrackerInterface* t) {
              double t0 = Now();
              sim::OnlineCountSession session(&cluster, t);
              uint64_t pos = 0;
              double est = 0;
              for (uint64_t b : bounds) {
                session.PushSites(sites.data() + pos, b - pos);
                pos = b;
                est = t->EstimateCount();
              }
              double secs = Now() - t0;
              double rel = std::abs(est - static_cast<double>(n_count)) /
                           static_cast<double>(n_count);
              return std::pair<double, double>(secs, rel);
            });
        e.threads = threads;
        PrintEntry(e);
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
        bool grouped;
        bool simd;
      };
      // simd_batched is the skip_batched configuration re-run under
      // kAuto dispatch (AVX2 ctrl-group probes in the counter table):
      // identical stream, identical estimates, only the kernels differ.
      for (const FreqPath& path :
           {FreqPath{"per_arrival", false, false, false},
            FreqPath{"skip_batched", true, false, false},
            FreqPath{"grouped_batched", true, true, false},
            FreqPath{"simd_batched", true, false, true}}) {
        bool skip = path.skip;
        simd::SetDispatchMode(path.simd ? simd::DispatchMode::kAuto
                                        : simd::DispatchMode::kForceScalar);
        BenchEntry e = TimeConfig(
            "frequency", path.name, dist_name, k, n_freq, eps, reps,
            [&]() -> std::unique_ptr<sim::FrequencyTrackerInterface> {
              if (path.grouped) return MakeFrequencyGrouped(k, eps);
              return MakeFrequency(Options(k, eps, skip));
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
        e.simd = path.simd && simd::Avx2Active() ? 1 : 0;
        PrintEntry(e);
        entries.push_back(e);
      }
      simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
      // Parallel replay rows. The serial frequency rows above deliver in
      // 64K chunks without checkpoint sampling, so the cluster rows use a
      // huge checkpoint factor (start + end samples only) to compare
      // delivery engines rather than estimate-query cost.
      for (int threads : {1, 4}) {
        sim::ParallelCluster cluster(threads);
        BenchEntry e = TimeConfig(
            "frequency", "cluster_t" + std::to_string(threads), dist_name, k,
            n_freq, eps, reps,
            [&] { return MakeFrequency(Options(k, eps, true)); },
            [&](sim::FrequencyTrackerInterface* t) {
              double t0 = Now();
              auto checkpoints = cluster.ReplayFrequency(t, w, 0, 1e9);
              double secs = Now() - t0;
              const sim::Checkpoint& last = checkpoints.back();
              double rel = n_freq == 0
                               ? 0.0
                               : std::abs(last.estimate - last.truth) /
                                     static_cast<double>(n_freq);
              return std::pair<double, double>(secs, rel);
            });
        e.threads = threads;
        PrintEntry(e);
        entries.push_back(e);
      }
      // Online ingest rows: 64K live pushes (PushBoundaries, no
      // checkpoint cuts) through the rolling certified epoch, one Sync
      // at the end — the streaming analogue of the cluster rows above.
      for (int threads : {1, 4}) {
        sim::ParallelCluster cluster(threads);
        std::vector<uint64_t> bounds =
            sim::PushBoundaries(n_freq, 1 << 16, {});
        BenchEntry e = TimeConfig(
            "frequency", "online_t" + std::to_string(threads), dist_name, k,
            n_freq, eps, reps,
            [&] { return MakeFrequency(Options(k, eps, true)); },
            [&](sim::FrequencyTrackerInterface* t) {
              double t0 = Now();
              sim::OnlineKeyedSession session(&cluster, t);
              uint64_t pos = 0;
              for (uint64_t b : bounds) {
                session.Push(w.data() + pos, b - pos);
                pos = b;
              }
              session.Sync();
              double secs = Now() - t0;
              double rel = n_freq == 0
                               ? 0.0
                               : std::abs(t->EstimateFrequency(0) -
                                          static_cast<double>(truth)) /
                                     static_cast<double>(n_freq);
              return std::pair<double, double>(secs, rel);
            });
        e.threads = threads;
        PrintEntry(e);
        entries.push_back(e);
      }
    }

    // ---- rank: uniform values and Zipf(1.1)-skewed values. Three paths:
    // per_arrival (historical per-element coins + feed), staged_batched
    // (PR 2's per-level run staging, use_shared_ladder=false), and
    // skip_batched (the default shared run-merge ladder).
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
        bool shared_ladder;
        bool grouped;
        bool simd;
      };
      double staged_secs = 0;
      // simd_batched is the grouped_batched configuration re-run under
      // kAuto dispatch (register sorts, bitonic gap-merges, merge-path
      // wire export, leaf-arena flush): identical stream, bit-identical
      // estimates, only the kernels differ.
      for (const RankPath& path :
           {RankPath{"per_arrival", false, true, false, false},
            RankPath{"staged_batched", true, false, false, false},
            RankPath{"skip_batched", true, true, false, false},
            RankPath{"grouped_batched", true, true, true, false},
            RankPath{"simd_batched", true, true, true, true}}) {
        simd::SetDispatchMode(path.simd ? simd::DispatchMode::kAuto
                                        : simd::DispatchMode::kForceScalar);
        BenchEntry e = TimeConfig(
            "rank", path.name, dist_name, k, n_rank, eps, reps,
            [&] {
              return MakeRank(Options(k, eps, path.skip, path.shared_ladder,
                                      path.grouped));
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
        e.simd = path.simd && simd::Avx2Active() ? 1 : 0;
        PrintEntry(e);
        if (std::strcmp(path.name, "staged_batched") == 0) {
          staged_secs = e.seconds;
        } else if (std::strcmp(path.name, "skip_batched") == 0 &&
                   std::strcmp(dist_name, "uniform") == 0) {
          rank_speedups.emplace_back(k, staged_secs / e.seconds);
        }
        entries.push_back(e);
      }
      simd::SetDispatchMode(simd::DispatchMode::kForceScalar);
      // Parallel replay rows (same sparse-sample rationale as frequency):
      // the rank replay pushes the whole stream after the first arrival
      // as one push, splitting it at every broadcast.
      for (int threads : {1, 4}) {
        sim::ParallelCluster cluster(threads);
        BenchEntry e = TimeConfig(
            "rank", "cluster_t" + std::to_string(threads), dist_name, k,
            n_rank, eps, reps,
            [&] { return MakeRank(Options(k, eps, true)); },
            [&](sim::RankTrackerInterface* t) {
              double t0 = Now();
              auto checkpoints = cluster.ReplayRank(t, w, query, 1e9);
              double secs = Now() - t0;
              const sim::Checkpoint& last = checkpoints.back();
              double rel = n_rank == 0
                               ? 0.0
                               : std::abs(last.estimate - last.truth) /
                                     static_cast<double>(n_rank);
              return std::pair<double, double>(secs, rel);
            });
        e.threads = threads;
        PrintEntry(e);
        entries.push_back(e);
      }
      // Online ingest rows (same 64K live-push shape as frequency).
      for (int threads : {1, 4}) {
        sim::ParallelCluster cluster(threads);
        std::vector<uint64_t> bounds =
            sim::PushBoundaries(n_rank, 1 << 16, {});
        BenchEntry e = TimeConfig(
            "rank", "online_t" + std::to_string(threads), dist_name, k,
            n_rank, eps, reps,
            [&] { return MakeRank(Options(k, eps, true)); },
            [&](sim::RankTrackerInterface* t) {
              double t0 = Now();
              sim::OnlineKeyedSession session(&cluster, t);
              uint64_t pos = 0;
              for (uint64_t b : bounds) {
                session.Push(w.data() + pos, b - pos);
                pos = b;
              }
              session.Sync();
              double secs = Now() - t0;
              double rel = n_rank == 0
                               ? 0.0
                               : std::abs(t->EstimateRank(query) -
                                          static_cast<double>(truth)) /
                                     static_cast<double>(n_rank);
              return std::pair<double, double>(secs, rel);
            });
        e.threads = threads;
        PrintEntry(e);
        entries.push_back(e);
      }
    }
  }

  // ---- frequency, table-bound regime: at eps = 5e-4, k = 32 the
  // sticky-counter working set (~ c/(eps sqrt(k)) entries per site, 32
  // bytes each across k sites ~ 1.4 MB) outgrows the 1 MiB cache bound,
  // so the eps-aware auto gate turns grouped delivery ON — the regime
  // where site-contiguous spans pay for the permutation. The pair of
  // rows records both engines so the gate's decision is auditable.
  {
    const int k_tb = 32;
    const double eps_tb = 5e-4;
    sim::Workload w = stream::MakeFrequencyWorkload(
        k_tb, n_freq, stream::SiteSchedule::kUniformRandom, 1 << 20, 0.0,
        17);
    uint64_t truth = stream::ExactFrequency(w, 0);
    for (bool grouped : {false, true}) {
      BenchEntry e = TimeConfig(
          "frequency", grouped ? "grouped_batched" : "skip_batched",
          "table_bound", k_tb, n_freq, eps_tb, reps,
          [&]() -> std::unique_ptr<sim::FrequencyTrackerInterface> {
            frequency::RandomizedFrequencyOptions o;
            o.num_sites = k_tb;
            o.epsilon = eps_tb;
            o.seed = 20260728;
            o.auto_site_grouping = grouped;
            auto t =
                std::make_unique<frequency::RandomizedFrequencyTracker>(o);
            if (t->grouped_delivery_enabled() != grouped) {
              std::fprintf(stderr,
                           "table_bound: auto gate decided %d, expected %d "
                           "(eps=%g k=%d)\n",
                           t->grouped_delivery_enabled() ? 1 : 0,
                           grouped ? 1 : 0, eps_tb, k_tb);
              std::exit(1);
            }
            return t;
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
  }

  WriteJson(entries, count_speedups, rank_speedups, eps, n_count, n_rank,
            json_path);
  for (auto [k, speedup] : count_speedups) {
    std::printf("count A/B (uniform, k=%d, n=%llu): skip_batched is %.2fx "
                "per_arrival %s\n",
                k, static_cast<unsigned long long>(n_count), speedup,
                speedup >= 5.0 ? "[>=5x OK]" : "[below 5x target]");
  }
  for (auto [k, speedup] : rank_speedups) {
    std::printf("rank A/B (uniform, k=%d, n=%llu): shared ladder is %.2fx "
                "the per-level staged feed\n",
                k, static_cast<unsigned long long>(n_rank), speedup);
  }
  std::printf("wrote %s\n", json_path);
  if (const char* baseline = StringFlagOr(argc, argv, "--check", nullptr)) {
    const char* summary = StringFlagOr(argc, argv, "--summary", nullptr);
    return CheckAgainstBaseline(entries, baseline, summary);
  }
  return 0;
}
