// Shared harness code for the experiment binaries: run a tracker over a
// workload, collect communication/space/accuracy, and print paper-style
// rows. Every bench regenerates one Table-1 row or one figure/theorem of
// the paper (see docs/REPRODUCTION.md for the experiment index).

#ifndef DISTTRACK_BENCH_BENCH_UTIL_H_
#define DISTTRACK_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "disttrack/common/stats.h"
#include "disttrack/core/tracking.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/workload.h"

namespace disttrack {
namespace bench {

/// Monotonic wall-clock seconds. THE bench timer: the only sanctioned
/// clock read in the tree — scripts/check_invariants.py (rule
/// banned-source) bans time/randomness sources everywhere outside
/// common/random.* and this file, because replay must be a pure
/// function of (workload, seed).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything a bench needs to report about one run.
struct RunResult {
  uint64_t messages = 0;
  uint64_t words = 0;
  uint64_t broadcasts = 0;
  uint64_t downloads = 0;
  uint64_t max_site_space = 0;
  double final_abs_error = 0;   // |estimate - truth| at the end
  double worst_rel_error = 0;   // max over checkpoints of |err| / n
  uint64_t n = 0;
};

inline RunResult Collect(const sim::CommMeter& meter,
                         const sim::SpaceGauge& space,
                         const std::vector<sim::Checkpoint>& checkpoints) {
  RunResult r;
  r.messages = meter.TotalMessages();
  r.words = meter.TotalWords();
  r.broadcasts = meter.broadcast_count();
  r.downloads = meter.downloads().messages;
  r.max_site_space = space.MaxPeak();
  if (!checkpoints.empty()) {
    const auto& last = checkpoints.back();
    r.n = last.n;
    r.final_abs_error = std::fabs(last.estimate - last.truth);
    for (const auto& c : checkpoints) {
      if (c.n == 0) continue;
      double rel =
          std::fabs(c.estimate - c.truth) / static_cast<double>(c.n);
      if (rel > r.worst_rel_error) r.worst_rel_error = rel;
    }
  }
  return r;
}

/// Runs one count tracker over `workload`.
inline RunResult RunCount(core::Algorithm algorithm,
                          const core::TrackerOptions& options,
                          const sim::Workload& workload) {
  std::unique_ptr<sim::CountTrackerInterface> tracker;
  Status status = core::MakeCountTracker(algorithm, options, &tracker);
  if (!status.ok()) {
    std::fprintf(stderr, "MakeCountTracker: %s\n", status.ToString().c_str());
    return RunResult{};
  }
  auto checkpoints = sim::ReplayCount(tracker.get(), workload, 1.5);
  return Collect(tracker->meter(), tracker->space(), checkpoints);
}

/// Runs one frequency tracker; accuracy is evaluated on `query_item`.
inline RunResult RunFrequency(core::Algorithm algorithm,
                              const core::TrackerOptions& options,
                              const sim::Workload& workload,
                              uint64_t query_item) {
  std::unique_ptr<sim::FrequencyTrackerInterface> tracker;
  Status status =
      core::MakeFrequencyTracker(algorithm, options, &tracker);
  if (!status.ok()) {
    std::fprintf(stderr, "MakeFrequencyTracker: %s\n",
                 status.ToString().c_str());
    return RunResult{};
  }
  auto checkpoints =
      sim::ReplayFrequency(tracker.get(), workload, query_item, 1.5);
  return Collect(tracker->meter(), tracker->space(), checkpoints);
}

/// Runs one rank tracker; accuracy is evaluated on `query_value`.
inline RunResult RunRank(core::Algorithm algorithm,
                         const core::TrackerOptions& options,
                         const sim::Workload& workload,
                         uint64_t query_value) {
  std::unique_ptr<sim::RankTrackerInterface> tracker;
  Status status = core::MakeRankTracker(algorithm, options, &tracker);
  if (!status.ok()) {
    std::fprintf(stderr, "MakeRankTracker: %s\n", status.ToString().c_str());
    return RunResult{};
  }
  auto checkpoints =
      sim::ReplayRank(tracker.get(), workload, query_value, 1.5);
  return Collect(tracker->meter(), tracker->space(), checkpoints);
}

/// Prints a rule line, e.g. "-----".
inline void Rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Prints the standard per-run row.
inline void PrintRow(const std::string& label, const RunResult& r,
                     double eps) {
  double msgs_per_n =
      r.n == 0 ? 0 : static_cast<double>(r.messages) / static_cast<double>(r.n);
  std::printf("%-34s %12llu %12llu %9llu %11.4f %10.4f %8.4f\n",
              label.c_str(),
              static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.words),
              static_cast<unsigned long long>(r.max_site_space),
              msgs_per_n, r.worst_rel_error, eps);
}

/// Prints the standard table header matching PrintRow.
inline void PrintHeader() {
  std::printf("%-34s %12s %12s %9s %11s %10s %8s\n", "algorithm", "messages",
              "words", "space/site", "msgs/elem", "worst-rel", "eps");
  Rule();
}

}  // namespace bench
}  // namespace disttrack

#endif  // DISTTRACK_BENCH_BENCH_UTIL_H_
