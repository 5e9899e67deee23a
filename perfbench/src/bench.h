// Shared plumbing of the repo benchmark: run configuration, the result
// report (metrics + attempted/failed), order statistics, span tracing,
// and process resource probes.
//
// Every layer is timed from outside, around the benchmark's own calls
// into the library's public API; nothing here reaches into the library.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Tracker { kCount = 0, kFrequency = 1, kRank = 2 };
constexpr Tracker kAllTrackers[] = {Tracker::kCount, Tracker::kFrequency,
                                    Tracker::kRank};
const char* TrackerName(Tracker tracker);

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;     ///< smoke-test sizes
  bool perturb = false;  ///< corrupt one estimate before its check
};

/// Everything a run prints: named metrics with units, and operations
/// attempted / failed. Failures are logged to stderr as they happen.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit);

  /// One operation (a tracker run, a fleet run, a query) and its verdict.
  void Attempt(bool ok, const std::string& what);

  /// A batch of operations of which `failed` failed.
  void AttemptMany(uint64_t attempted, uint64_t failed,
                   const std::string& what);

  /// The run's last stdout line: {"correct", "attempted", "failed",
  /// "metrics"}.
  void PrintJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Linear-interpolated quantile q in [0, 1] (sorts a copy).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Quantile q of every `window` consecutive samples (a short last window
/// joins its predecessor), then the median of those per-window values.
/// A host stall inflates the tail of one window, not the median; with
/// fewer than two windows' worth of samples this is the plain quantile.
double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window);

/// Span recorder (trace mode). Spans are kept in memory and aggregated
/// at the end: a span's self time is its duration minus its children's.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  /// Opens a span as a child of the innermost open one; returns its id
  /// (-1 when tracing is off).
  int Begin(const char* name);
  void End(int id);

  struct Totals {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  /// Aggregate of every closed span named `name`.
  Totals Sum(const char* name) const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start, end;
    int64_t child_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Runs activities interleaved so each one's samples span the whole
/// measuring window, not one slice of it (the host's speed drifts over
/// seconds): repeatedly runs the activity furthest behind its share of
/// the time, until `seconds` have passed and every activity has
/// `min_runs` runs. run(i) performs one run of activity i.
void Interleave(const std::vector<double>& shares, double seconds,
                int min_runs, int max_runs,
                const std::function<void(size_t)>& run);

/// Host-speed reference: a fixed kernel of benchmark code no library
/// change touches (std::sort of 2^18 words, 2^23 random increments into
/// a 4 MB table, 2^26 xorshift steps), built from a fixed seed. Returns
/// its wall time in seconds. Interleaved with the tracker runs, the ratio
/// of its nominal time to its median time scales the gated time figures
/// to a host of nominal speed: the shared host's speed drifts by 10-30%
/// over minutes, and the ratio cancels what the drift does to both.
double RunReferenceKernel();

/// The reference kernel's nominal wall time, seconds: roughly its median
/// on the 4-vCPU Xeon (2.1 GHz) the bounds were set on.
constexpr double kReferenceNominalS = 0.28;

/// Keeps a computed value observable, so a timed loop is not elided.
void KeepAlive(double value);

/// Resident set size of this process, MB (/proc/self/statm).
double CurrentRssMb();

/// Resets this process's resident-memory high-water mark to its current
/// RSS (writes 5 to /proc/self/clear_refs); false if the kernel refused.
bool ResetPeakRss();

/// Resident-memory high-water mark since the last reset, MB (VmHWM).
double PeakRssMb();

/// Returns freed heap pages to the kernel so RSS deltas measure live
/// memory rather than allocator history.
void TrimHeap();

/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();

/// Prints to stderr with a "perfbench: " prefix.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// One row of a traced run's layer split: a layer's self time per
/// arrival, from a span total or a layer-alone replay.
struct LayerShare {
  std::string layer;
  double ns_per_arrival;
};

/// Prints the layer table of one (workload, tracker) to stderr and
/// returns the residual share (traced - layer sum) / traced.
double PrintLayerSplit(const std::string& workload, Tracker tracker,
                       const std::vector<LayerShare>& layers,
                       double traced_ns_per_arrival,
                       double untraced_ns_per_arrival);

/// Workload entry point (fills `report`).
void RunInprocWorkload(const RunConfig& config, Report* report);

/// Per-layer figures of one short lockstep service fleet (service.cc):
/// the coordinator event loop, grant scheduler, sockets and query path,
/// which the in-process driver never runs. NaN when the fleet failed.
struct ServiceFigures {
  double ns_per_arrival = NAN;  ///< fleet wall time, first grant to done
  double site_cpu_ns_per_arrival = NAN;
  double coordinator_cpu_ns_per_arrival = NAN;
  double grants_per_karrival = NAN;
  double handoff_us_per_grant = NAN;  ///< wall - site CPU - coordinator CPU
  double socket_bytes_per_arrival = NAN;
  double query_p99_us = NAN;  ///< open-loop client, from each due time
  double generator_lag_ms = NAN;  ///< client send time past the due time
};

/// Runs one fleet of `tracker` and checks it against a serial replay of
/// its grant journal, counting the checks in `report`. `perturb` flips
/// one estimate bit before its check.
ServiceFigures RunServiceFleet(Tracker tracker, const RunConfig& config,
                               bool perturb, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
