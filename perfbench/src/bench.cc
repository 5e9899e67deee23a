#include "bench.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>

namespace perfbench {

const char* TrackerName(Tracker tracker) {
  switch (tracker) {
    case Tracker::kCount:
      return "count";
    case Tracker::kFrequency:
      return "frequency";
    case Tracker::kRank:
      return "rank";
  }
  return "?";
}

void Report::Add(const std::string& name, double value, const char* unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Attempt(bool ok, const std::string& what) {
  AttemptMany(1, ok ? 0 : 1, what);
}

void Report::AttemptMany(uint64_t attempted, uint64_t failed,
                         const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    Log("FAIL %s (%llu of %llu)", what.c_str(),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(attempted));
  }
}

void Report::PrintJson() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    // JSON has no NaN/inf; a metric that could not be measured is null.
    double v = metrics_[i].value;
    char value[64];
    if (std::isfinite(v)) {
      std::snprintf(value, sizeof(value), "%.17g", v);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WindowedQuantile(const std::vector<double>& samples, double q,
                        size_t window) {
  window = std::max<size_t>(window, 1);
  std::vector<double> per_window;
  for (size_t begin = 0; begin < samples.size();) {
    size_t end = begin + window;
    if (end + window > samples.size()) end = samples.size();
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + static_cast<ptrdiff_t>(begin),
                            samples.begin() + static_cast<ptrdiff_t>(end)),
        q));
    begin = end;
  }
  return Median(per_window);
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  int id = static_cast<int>(spans_.size());
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, parent, Clock::now(), {}, 0});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Clock::now();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(span.end -
                                                             span.start)
            .count();
  }
}

Tracer::Totals Tracer::Sum(const char* name) const {
  Totals totals;
  for (const Span& span : spans_) {
    if (span.name != name) continue;  // names are string literals
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(span.end -
                                                             span.start)
            .count());
    totals.count += 1;
    totals.total_ns += ns;
    totals.self_ns += ns - static_cast<double>(span.child_ns);
  }
  return totals;
}

void Interleave(const std::vector<double>& shares, double seconds,
                int min_runs, int max_runs,
                const std::function<void(size_t)>& run) {
  std::vector<double> spent(shares.size(), 0);
  std::vector<int> runs(shares.size(), 0);
  Clock::time_point start = Clock::now();
  for (;;) {
    bool done = SecondsBetween(start, Clock::now()) >= seconds;
    size_t next = shares.size();
    for (size_t i = 0; i < shares.size(); ++i) {
      if (runs[i] >= max_runs || (done && runs[i] >= min_runs)) continue;
      if (next == shares.size() ||
          spent[i] / shares[i] < spent[next] / shares[next]) {
        next = i;
      }
    }
    if (next == shares.size()) return;
    Clock::time_point t0 = Clock::now();
    run(next);
    spent[next] += SecondsBetween(t0, Clock::now());
    ++runs[next];
  }
}

namespace {
volatile double g_kept = 0;

inline uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}
}  // namespace

double RunReferenceKernel() {
  static const std::vector<uint64_t> base = [] {
    std::vector<uint64_t> words(size_t{1} << 18);
    uint64_t x = 0x2545F4914F6CDD1Dull;
    for (uint64_t& w : words) w = x = XorShift(x);
    return words;
  }();
  static std::vector<uint32_t> table(size_t{1} << 20);
  static std::vector<uint64_t> work;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 4; ++rep) {
    work = base;
    std::sort(work.begin(), work.end());
  }
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < (1 << 23); ++i) {
    x = XorShift(x);
    ++table[x & (table.size() - 1)];
  }
  uint64_t acc = 0;
  for (int i = 0; i < (1 << 26); ++i) {
    x = XorShift(x);
    acc += x >> 60;
  }
  const double seconds = SecondsBetween(start, Clock::now());
  KeepAlive(static_cast<double>(acc + work[7] + table[5]));
  return seconds;
}

void KeepAlive(double value) { g_kept = g_kept + value; }

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return NAN;
  unsigned long long pages_total = 0, pages_resident = 0;
  int got = std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return NAN;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return NAN;
  char line[256];
  double mb = NAN;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

void TrimHeap() { malloc_trim(0); }

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Log(const char* fmt, ...) {
  std::fprintf(stderr, "perfbench: ");
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
}

double PrintLayerSplit(const std::string& workload, Tracker tracker,
                       const std::vector<LayerShare>& layers,
                       double traced_ns_per_arrival,
                       double untraced_ns_per_arrival) {
  std::fprintf(stderr, "\nlayer split: %s / %s (ns per arrival)\n",
               workload.c_str(), TrackerName(tracker));
  double sum = 0;
  for (const LayerShare& layer : layers) {
    std::fprintf(stderr, "  %-40s %12.3f\n", layer.layer.c_str(),
                 layer.ns_per_arrival);
    sum += layer.ns_per_arrival;
  }
  double residual = traced_ns_per_arrival - sum;
  double share = residual / traced_ns_per_arrival;
  double overhead =
      (traced_ns_per_arrival - untraced_ns_per_arrival) /
      untraced_ns_per_arrival;
  std::fprintf(stderr, "  %-40s %12.3f\n", "= layer sum", sum);
  std::fprintf(stderr, "  %-40s %12.3f\n", "traced end-to-end",
               traced_ns_per_arrival);
  std::fprintf(stderr, "  %-40s %12.3f  (%+.1f%% of traced; target +-15%%)\n",
               "residual (traced - sum)", residual, 100.0 * share);
  std::fprintf(stderr, "  %-40s %12.3f  (tracing overhead %+.1f%%)\n",
               "untraced end-to-end", untraced_ns_per_arrival,
               100.0 * overhead);
  return share;
}

}  // namespace perfbench
