// In-process workloads: the library path, one process, one thread.
//
//   inproc_zipf         k=64, eps=0.01, keys Zipf(1.1) over 2^20. Per-site
//                       state stays in cache; the sampling engine (count),
//                       the counter-table probes (frequency) and the
//                       compactor plus run ladder (rank) do the work. No
//                       wire, socket or scheduler code runs.
//   inproc_table_bound  k=32, eps=5e-4, keys uniform over 2^20. The working
//                       set outgrows cache: frequency's auto gate turns on
//                       grouped delivery, count sends ~11x more paper words
//                       per arrival, and rank's memory grows.
//
// Count, frequency and rank run with default options and SIMD auto
// dispatch. Arrivals go through ArriveBatch in 64Ki chunks and the
// estimate is read after every chunk: the paper's at-all-times query.
// The query metric times those reads alone, from the end of the chunk's
// ArriveBatch to the last answer, per read: a burst of 256 count reads, 64
// frequency probes or 1 rank probe (a rank read walks every site's
// summaries and takes ~0.7 ms by itself). The input is generated from
// the seed before timing and replayed cyclically; each tracker runs a
// fixed number of arrivals per run, runs of the three trackers and of the
// host-speed reference kernel are interleaved until --seconds is spent,
// and every figure is a median over runs. Time figures are scaled to a
// host of nominal speed (bench.h, RunReferenceKernel).
//
// The traced run adds a second, traced pass of each tracker, the
// layer-alone replays (layers.cc) and one short service fleet per
// tracker (service.cc).

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.h"
#include "disttrack/core/tracking.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/stream/workload.h"
#include "layers.h"

namespace perfbench {
namespace {

using disttrack::sim::Arrival;

constexpr size_t kChunk = size_t{1} << 16;
constexpr int kMinRuns = 3;
constexpr int kMaxRuns = 2000;
// Share of --seconds spent in the host-speed reference kernel.
constexpr double kReferenceShare = 0.2;
constexpr uint64_t kSiteSeed = 11;
// Latency percentiles are taken per window of this many queries (p99
// then has ten samples beyond it) and reported as the median window.
constexpr size_t kQueryWindow = 1000;
// Reads per query burst. A count read takes a few ns and a point probe
// ~0.2 us, so a burst of a few must not be timed alone: the clock's own
// cost and one cold miss after the chunk's ingest would dominate it.
constexpr size_t kCountReads = 256;
constexpr uint64_t kPointProbes = 64;

struct Spec {
  int k;
  double eps;
  double zipf_alpha;  // 0 = uniform keys
  uint64_t universe;
  size_t buffer;      // generated arrivals, replayed cyclically
  uint64_t n[3];      // arrivals per run, by tracker
  double share[3];    // share of --seconds, by tracker
  size_t replay[3];   // arrivals fed to the SiteHalf frame recording
};

Spec SpecFor(const RunConfig& config) {
  // Run lengths are 3 * 2^j: mid-way between the coarse tracker's round
  // boundaries, which fall near powers of two. At n = 2^j a seed decides
  // whether the last round has just begun, and words per arrival and
  // speed jump between two modes.
  Spec spec =
      config.workload == "inproc_zipf"
          ? Spec{64, 0.01, 1.1, 1u << 20, 1u << 22,
                 {3u << 23, 3u << 22, 3u << 20}, {0.2, 0.3, 0.5},
                 {1u << 22, 1u << 21, 1u << 19}}
          : Spec{32, 5e-4, 0.0, 1u << 20, 1u << 22,
                 {3u << 23, 3u << 21, 3u << 19}, {0.2, 0.3, 0.5},
                 {1u << 22, 1u << 21, 1u << 19}};
  if (config.tiny) {
    spec.buffer = 1u << 16;
    spec.n[0] = 3u << 16;
    spec.n[1] = 3u << 15;
    spec.n[2] = 3u << 14;
    spec.replay[0] = 1u << 16;
    spec.replay[1] = 1u << 15;
    spec.replay[2] = 1u << 14;
  }
  return spec;
}

/// One tracker of any kind behind the two calls the timed loop makes.
struct AnyTracker {
  std::unique_ptr<disttrack::sim::CountTrackerInterface> count;
  std::unique_ptr<disttrack::sim::FrequencyTrackerInterface> frequency;
  std::unique_ptr<disttrack::sim::RankTrackerInterface> rank;

  void ArriveBatch(const Arrival* arrivals, size_t len) {
    if (count) count->ArriveBatch(arrivals, len);
    if (frequency) frequency->ArriveBatch(arrivals, len);
    if (rank) rank->ArriveBatch(arrivals, len);
  }
  /// The at-all-times read: count, or the estimate at `probe`.
  double Estimate(uint64_t probe) const {
    if (count) return count->EstimateCount();
    if (frequency) return frequency->EstimateFrequency(probe);
    return rank->EstimateRank(probe);
  }
  const disttrack::sim::CommMeter& meter() const {
    if (count) return count->meter();
    if (frequency) return frequency->meter();
    return rank->meter();
  }
};

AnyTracker MakeTracker(Tracker tracker, const Spec& spec, uint64_t seed) {
  namespace core = disttrack::core;
  core::TrackerOptions options;
  options.num_sites = spec.k;
  options.epsilon = spec.eps;
  options.seed = seed;
  AnyTracker t;
  disttrack::Status status;
  switch (tracker) {
    case Tracker::kCount:
      status = core::MakeCountTracker(core::Algorithm::kRandomized, options,
                                      &t.count);
      break;
    case Tracker::kFrequency:
      status = core::MakeFrequencyTracker(core::Algorithm::kRandomized,
                                          options, &t.frequency);
      break;
    case Tracker::kRank:
      status = core::MakeRankTracker(core::Algorithm::kRandomized, options,
                                     &t.rank);
      break;
  }
  if (!status.ok()) {
    Log("tracker construction failed: %s", status.ToString().c_str());
    std::exit(1);
  }
  return t;
}

/// cum[x] = number of keys < x among the first n arrivals of the cyclic
/// stream: exact rank, and exact frequency as cum[x + 1] - cum[x].
std::vector<uint64_t> KeyPrefixCounts(const std::vector<Arrival>& input,
                                      uint64_t n, uint64_t universe) {
  std::vector<uint64_t> cum(universe + 1, 0);
  uint64_t full = n / input.size(), rem = n % input.size();
  for (size_t i = 0; i < input.size(); ++i) {
    cum[input[i].key + 1] += full + (i < rem ? 1 : 0);
  }
  for (size_t x = 1; x <= universe; ++x) cum[x] += cum[x - 1];
  return cum;
}

/// Figures of one tracker over its runs.
struct TrackerRuns {
  std::vector<double> wall_s;
  std::vector<double> construct_s;  // tracker construction, every run
  std::vector<double> latency_us;  // per read, every chunk's query burst
  double words_per_arrival = 0;
  double messages_per_arrival = 0;
  double peak_rss_growth_mb = 0;
  // For the traced run's layer split.
  uint64_t arrivals = 0;
  int rank_height = 0;
  bool frequency_grouped = false;
};

/// One timed run; returns the tracker for its (untimed) check.
AnyTracker TimedRun(Tracker tracker, const Spec& spec,
                    const std::vector<Arrival>& input, uint64_t n,
                    uint64_t seed, const std::vector<uint64_t>& probes,
                    Tracer* tracer, TrackerRuns* out, Report* report) {
  TrimHeap();
  // Peak growth over the run: the high-water mark is reset to the RSS
  // before the tracker exists, so transient buffers the run frees again
  // still count.
  report->Attempt(ResetPeakRss(), "reset the peak-RSS mark");
  const double rss0 = CurrentRssMb();
  const Clock::time_point constructing = Clock::now();
  AnyTracker t = MakeTracker(tracker, spec, seed);
  out->construct_s.push_back(SecondsBetween(constructing, Clock::now()));
  double sink = 0;
  const double reads = static_cast<double>(probes.size());
  Clock::time_point start = Clock::now();
  {
    Scope run_span(tracer, "run");
    for (uint64_t pos = 0; pos < n; pos += kChunk) {
      // The buffer is a whole number of chunks, so a chunk never wraps.
      size_t off = static_cast<size_t>(pos % input.size());
      size_t len = static_cast<size_t>(std::min<uint64_t>(kChunk, n - pos));
      {
        Scope span(tracer, "ArriveBatch");
        t.ArriveBatch(input.data() + off, len);
      }
      Clock::time_point asked = Clock::now();
      {
        Scope span(tracer, "estimate");
        for (uint64_t probe : probes) sink += t.Estimate(probe);
      }
      out->latency_us.push_back(SecondsBetween(asked, Clock::now()) * 1e6 /
                                reads);
    }
  }
  Clock::time_point end = Clock::now();
  out->wall_s.push_back(SecondsBetween(start, end));
  out->arrivals += n;
  out->peak_rss_growth_mb =
      std::max(out->peak_rss_growth_mb, PeakRssMb() - rss0);
  out->words_per_arrival = static_cast<double>(t.meter().TotalWords()) /
                           static_cast<double>(n);
  out->messages_per_arrival = static_cast<double>(t.meter().TotalMessages()) /
                              static_cast<double>(n);
  KeepAlive(sink);
  if (auto* r = dynamic_cast<disttrack::rank::RandomizedRankTracker*>(
          t.rank.get())) {
    out->rank_height = r->height();
  }
  if (auto* f =
          dynamic_cast<disttrack::frequency::RandomizedFrequencyTracker*>(
              t.frequency.get())) {
    out->frequency_grouped = f->grouped_delivery_enabled();
  }
  return t;
}

/// Every estimate within eps * n of the exact truth. `perturb` is added
/// to the first estimate checked (smoke test of the checker itself).
bool CheckEstimates(Tracker tracker, const AnyTracker& t, uint64_t n,
                    double eps, const std::vector<uint64_t>& cum,
                    const std::vector<uint64_t>& probes, double perturb,
                    std::string* detail) {
  const double tolerance = eps * static_cast<double>(n);
  auto within = [&](double estimate, uint64_t truth, uint64_t probe) {
    estimate += perturb;
    perturb = 0;
    double error = std::abs(estimate - static_cast<double>(truth));
    if (error <= tolerance) return true;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "probe %llu: estimate %.1f, truth %llu, |error| %.1f > "
                  "eps*n %.1f",
                  static_cast<unsigned long long>(probe), estimate,
                  static_cast<unsigned long long>(truth), error, tolerance);
    *detail = buf;
    return false;
  };
  switch (tracker) {
    case Tracker::kCount:
      return within(t.count->EstimateCount(), n, 0);
    case Tracker::kFrequency:
      for (uint64_t item : probes) {
        if (!within(t.frequency->EstimateFrequency(item),
                    cum[item + 1] - cum[item], item)) {
          return false;
        }
      }
      return true;
    case Tracker::kRank:
      for (uint64_t value : probes) {
        if (!within(t.rank->EstimateRank(value), cum[value], value)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

}  // namespace

void RunInprocWorkload(const RunConfig& config, Report* report) {
  const Spec spec = SpecFor(config);
  const uint64_t seed = config.seed;
  std::vector<Arrival> input = disttrack::stream::MakeFrequencyWorkload(
      spec.k, spec.buffer, disttrack::stream::SiteSchedule::kUniformRandom,
      spec.universe, spec.zipf_alpha, seed);
  // The site sequence is part of the workload, not of the seed: the
  // coarse tracker's round boundaries lock to one of two phases decided
  // by which sites the first arrivals hit, and the two phases differ 2x
  // in 1/p (measured: 1 to 2 seeds in 16 fall in the minority phase,
  // with 0.0139 vs 0.0245 words per arrival for count). A fixed uniform
  // site sequence keeps every seed in the same phase; keys and coins
  // still come from the seed.
  const disttrack::sim::SiteStream sites = disttrack::stream::MakeCountSites(
      spec.k, spec.buffer, disttrack::stream::SiteSchedule::kUniformRandom,
      kSiteSeed);
  for (size_t i = 0; i < input.size(); ++i) input[i].site = sites[i];

  // Exact truth and probes per tracker, ahead of any timing.
  std::vector<uint64_t> cum[3];
  std::vector<uint64_t> probes[3];
  cum[1] = KeyPrefixCounts(input, spec.n[1], spec.universe);
  probes[1] = {0, 1, 2, 3, 10, 100, 1000, input[seed % input.size()].key};
  cum[2] = KeyPrefixCounts(input, spec.n[2], spec.universe);
  for (uint64_t i = 1; i < 8; ++i) probes[2].push_back(spec.universe * i / 8);
  // The at-all-times query after every chunk (see the file comment).
  // Frequency probes: keys 0, 1, 2, ... (the heaviest under Zipf) and keys
  // spread evenly over the universe. The set is fixed, not drawn from the
  // seed, so seeds differ in the tracker's state and not in what is asked.
  std::vector<uint64_t> point_probes;
  for (uint64_t i = 0; i < kPointProbes / 2; ++i) {
    point_probes.push_back(i);
    point_probes.push_back(spec.universe / (kPointProbes / 2) * i + 7);
  }
  const std::vector<uint64_t> query_probes[3] = {
      std::vector<uint64_t>(kCountReads, 0), point_probes, {spec.universe / 2}};

  // Activities: (tracker, pass), then the host-speed reference kernel
  // when untraced. Trace mode adds a traced pass per tracker beside the
  // untraced one; their difference is the tracing overhead.
  TrackerRuns untraced[3], traced[3];
  std::vector<double> reference_s;
  Tracer tracers[3] = {Tracer(config.trace), Tracer(config.trace),
                       Tracer(config.trace)};
  Tracer off(false);
  const int passes = config.trace ? 2 : 1;
  std::vector<double> shares;
  for (int pass = 0; pass < passes; ++pass) {
    for (int ti = 0; ti < 3; ++ti) shares.push_back(spec.share[ti] / passes);
  }
  const size_t reference_activity = shares.size();
  if (!config.trace) shares.push_back(kReferenceShare);
  bool perturb_pending = config.perturb;
  Interleave(shares, config.seconds, kMinRuns, kMaxRuns, [&](size_t a) {
    if (a == reference_activity) {
      reference_s.push_back(RunReferenceKernel());
      return;
    }
    const int ti = static_cast<int>(a % 3);
    const bool traced_pass = a >= 3;
    const Tracker tracker = kAllTrackers[ti];
    const uint64_t n = spec.n[ti];
    AnyTracker t = TimedRun(tracker, spec, input, n, seed, query_probes[ti],
                            traced_pass ? &tracers[ti] : &off,
                            traced_pass ? &traced[ti] : &untraced[ti], report);
    double perturb = 0;
    if (perturb_pending) {
      perturb = 2 * spec.eps * static_cast<double>(n) + 1;
      perturb_pending = false;
    }
    std::string detail;
    bool ok = CheckEstimates(tracker, t, n, spec.eps, cum[ti], probes[ti],
                             perturb, &detail);
    report->Attempt(ok, config.workload + "/" + TrackerName(tracker) +
                            " estimate within eps*n: " + detail);
  });

  if (!config.trace) {
    // Time figures are scaled to a host of nominal speed (bench.h).
    const double slowdown = Median(reference_s) / kReferenceNominalS;
    Log("host-speed reference: %zu runs, median %.4f s, nominal %.2f s: "
        "time figures scaled by %.4f",
        reference_s.size(), Median(reference_s), kReferenceNominalS,
        1 / slowdown);
    // Set-up is the construction of the three trackers, each timed in
    // every run across the window.
    double setup_s = 0;
    double peak_rss = 0;
    for (Tracker tracker : kAllTrackers) {
      const int ti = static_cast<int>(tracker);
      const std::string t = TrackerName(tracker);
      const TrackerRuns& runs = untraced[ti];
      const double rate = static_cast<double>(spec.n[ti]) / Median(runs.wall_s);
      const double query_us =
          WindowedQuantile(runs.latency_us, 0.5, kQueryWindow);
      report->Add(t + ".arrivals_per_s", rate * slowdown, "arrivals/s");
      report->Add(t + ".words_per_arrival", runs.words_per_arrival,
                  "words/arrival");
      // The reads are not gated: they are bound by memory access and move
      // ~3x as far as the reference kernel with the host's load, so
      // scaling cannot hold them within a bound (README.md). The traced
      // run reports them; here they go to stderr.
      Log("%s: %zu runs, %zu queries; as measured: %.4g arrivals/s, query "
          "p50 %.4g us",
          t.c_str(), runs.wall_s.size(), runs.latency_us.size(), rate,
          query_us);
      peak_rss = std::max(peak_rss, runs.peak_rss_growth_mb);
      setup_s += Median(runs.construct_s);
    }
    report->Add("setup_s", setup_s / slowdown, "s");
    report->Add("peak_rss_mb", peak_rss, "MB");
    return;
  }

  // ---- traced run: layer-alone replays on this workload's input.
  const double count_inv_p = std::max(
      1.0, spec.eps * static_cast<double>(spec.n[0]) /
               (2.0 * std::sqrt(static_cast<double>(spec.k))));
  const KeyLayerCosts keys = ReplayKeyLayers(
      input, std::min<size_t>(input.size(), size_t{1} << 21), spec.k,
      spec.eps, 1.0 / count_inv_p, traced[2].rank_height, seed);
  AddKeyLayerMetrics(report, keys);
  const double pingpong_us = SocketPingPongUs(2000);
  report->Attempt(pingpong_us > 0, "socketpair ping-pong");
  report->Add("socket.pingpong_us", pingpong_us, "us");

  bool perturb_pending_fleet = config.perturb;
  double traced_sum = 0, untraced_sum = 0;
  for (Tracker tracker : kAllTrackers) {
    const int ti = static_cast<int>(tracker);
    const std::string t = TrackerName(tracker);
    const TrackerRuns& runs = traced[ti];
    const Tracer& tracer = tracers[ti];
    disttrack::service::ServiceOptions options;
    options.tracker = static_cast<disttrack::service::TrackerKind>(ti);
    options.num_sites = spec.k;
    options.epsilon = spec.eps;
    options.seed = seed;
    options.universe = spec.universe;
    FrameRecording recording = RecordFrames(options, input, spec.replay[ti]);
    WireCosts wire = ReplayWire(options, recording);
    AddRecordedLayerMetrics(report, tracker, recording, wire);

    const double arrivals = static_cast<double>(runs.arrivals);
    const Tracer::Totals run = tracer.Sum("run");
    const Tracer::Totals ingest = tracer.Sum("ArriveBatch");
    const Tracer::Totals estimate = tracer.Sum("estimate");
    const double frames_per_arrival =
        static_cast<double>(recording.frames.size()) /
        static_cast<double>(recording.arrivals);
    // The recording covers a prefix of the run, whose early rounds send
    // more per arrival; the tracker's own message rate scales per-frame
    // costs to the whole run.
    const double messages = untraced[ti].messages_per_arrival;

    // The at-all-times reads, ungated (see the untraced branch).
    report->Add(t + ".query_p50_us",
                WindowedQuantile(runs.latency_us, 0.5, kQueryWindow), "us");
    report->Add(t + ".query_p99_us",
                WindowedQuantile(runs.latency_us, 0.99, kQueryWindow), "us");
    report->Add(t + ".ingest_ns_per_arrival", ingest.total_ns / arrivals,
                "ns/arrival");
    report->Add(t + ".estimate_ns",
                estimate.total_ns / static_cast<double>(estimate.count) /
                    static_cast<double>(query_probes[ti].size()),
                "ns");
    report->Add(t + ".messages_per_karrival", 1000.0 * messages,
                "msgs/karrival");
    report->Add(t + ".frames_per_karrival", 1000.0 * frames_per_arrival,
                "frames/karrival");

    // The service layers, from one short lockstep fleet of this tracker.
    const ServiceFigures fleet =
        RunServiceFleet(tracker, config, perturb_pending_fleet, report);
    perturb_pending_fleet = false;
    report->Add(t + ".service.ns_per_arrival", fleet.ns_per_arrival,
                "ns/arrival");
    report->Add(t + ".service.query_p99_us", fleet.query_p99_us, "us");
    report->Add(t + ".site.cpu_ns_per_arrival", fleet.site_cpu_ns_per_arrival,
                "ns/arrival");
    report->Add(t + ".socket.bytes_per_arrival",
                fleet.socket_bytes_per_arrival, "bytes/arrival");
    report->Add(t + ".coordinator.cpu_ns_per_arrival",
                fleet.coordinator_cpu_ns_per_arrival, "ns/arrival");
    report->Add(t + ".scheduler.grants_per_karrival",
                fleet.grants_per_karrival, "grants/karrival");
    report->Add(t + ".scheduler.handoff_us_per_grant",
                fleet.handoff_us_per_grant, "us/grant");
    report->Add(t + ".query.generator_lag_ms", fleet.generator_lag_ms, "ms");

    std::vector<LayerShare> layers;
    const double draws_ns = messages * keys.skip_ns_per_draw;
    switch (tracker) {
      case Tracker::kCount:
        layers.push_back({"common/site_group (histogram)",
                          keys.site_histogram_ns_per_arrival});
        layers.push_back({"common/skip_sampler (1 draw/message)", draws_ns});
        break;
      case Tracker::kFrequency:
        layers.push_back(
            {"frequency/counter_table", keys.counter_table_ns_per_key});
        if (runs.frequency_grouped) {
          layers.push_back(
              {"common/site_group (scatter)", keys.site_group_ns_per_arrival});
        }
        layers.push_back({"common/skip_sampler (1 draw/message)", draws_ns});
        break;
      case Tracker::kRank:
        layers.push_back(
            {"common/site_group (scatter)", keys.site_group_ns_per_arrival});
        layers.push_back({"summaries/run_ladder", keys.run_ladder_ns_per_value});
        layers.push_back({"summaries/compactor x (height + 1)",
                          keys.compactor_ns_per_value *
                              (std::max(1, runs.rank_height) + 1)});
        layers.push_back({"common/skip_sampler (1 draw/message)", draws_ns});
        break;
    }
    // In-process, the tracker's own coordinator half runs inside
    // ArriveBatch; the replica apply of this traffic is what a service
    // coordinator would spend, so it is reported beside the split.
    layers.push_back({"estimator reads", estimate.total_ns / arrivals});
    layers.push_back({"driver loop (run self time)", run.self_ns / arrivals});
    const double traced_ns = run.total_ns / arrivals;
    double untraced_wall = 0;
    for (double w : untraced[ti].wall_s) untraced_wall += w;
    const double untraced_ns = untraced_wall * 1e9 /
                               static_cast<double>(untraced[ti].arrivals);
    report->Add(t + ".residual_share",
                PrintLayerSplit(config.workload, tracker, layers, traced_ns,
                                untraced_ns),
                "share");
    traced_sum += traced_ns;
    untraced_sum += untraced_ns;

    switch (tracker) {
      case Tracker::kCount:
        report->Add("count.replica.count_us", wire.count_us, "us");
        break;
      case Tracker::kFrequency:
        report->Add("frequency.replica.point_us", wire.point_us, "us");
        report->Add("frequency.replica.heavy_hitters_us",
                    wire.heavy_hitters_us, "us");
        break;
      case Tracker::kRank: {
        report->Add("rank.replica.rank_us", wire.rank_us, "us");
        report->Add("rank.replica.quantile_us", wire.quantile_us, "us");
        double per_karrival = 0, values_per_frame = 0;
        RankSummaryStats(recording, &per_karrival, &values_per_frame);
        report->Add("rank.summaries_per_karrival", per_karrival,
                    "sums/karrival");
        report->Add("rank.summary_values_per_frame", values_per_frame,
                    "values/frame");
        break;
      }
    }
  }
  report->Add("trace.overhead_share",
              (traced_sum - untraced_sum) / untraced_sum, "share");
}

}  // namespace perfbench
