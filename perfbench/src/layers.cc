#include "layers.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.h"
#include "disttrack/common/random.h"
#include "disttrack/common/site_group.h"
#include "disttrack/common/skip_sampler.h"
#include "disttrack/frequency/counter_table.h"
#include "disttrack/service/framing.h"
#include "disttrack/service/site_half.h"
#include "disttrack/service/socket.h"
#include "disttrack/sim/replica.h"
#include "disttrack/summaries/compactor_summary.h"
#include "disttrack/summaries/run_ladder.h"

namespace perfbench {
namespace {

namespace wire = disttrack::sim::wire;
using disttrack::service::ServiceOptions;
using disttrack::service::TrackerKind;
using disttrack::sim::Arrival;

// Each layer-alone timing is the median of this many passes.
constexpr int kPasses = 5;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

template <typename Fn>
double MedianPassNs(Fn&& fn) {
  std::vector<double> times;
  for (int pass = 0; pass < kPasses; ++pass) {
    Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(NsSince(t0));
  }
  return Median(times);
}

// Median per-call cost of fn(i) over `calls` calls, in us.
template <typename Fn>
double PerCallUs(int calls, Fn&& fn) {
  return MedianPassNs([&] {
           for (int i = 0; i < calls; ++i) fn(i);
         }) /
         calls / 1000.0;
}

class FrameRecorder {
 public:
  explicit FrameRecorder(const ServiceOptions& options)
      : taps_(static_cast<size_t>(options.num_sites)) {
    for (int site = 0; site < options.num_sites; ++site) {
      halves_.push_back(disttrack::service::SiteHalf::Create(options, site));
      taps_[static_cast<size_t>(site)].recorder = this;
      halves_.back()->set_wire_tap(&taps_[static_cast<size_t>(site)]);
    }
  }
  FrameRecorder(const FrameRecorder&) = delete;
  FrameRecorder& operator=(const FrameRecorder&) = delete;

  void Arrive(const Arrival& arrival) {
    halves_[static_cast<size_t>(arrival.site)]->Arrive(arrival.key);
  }

  std::vector<wire::Message> frames;

 private:
  struct Tap : wire::WireTap {
    FrameRecorder* recorder = nullptr;
    void OnMessage(wire::Message&& msg) override {
      recorder->OnFrame(std::move(msg));
    }
  };

  // The coordinator's decision, taken inline: a report that doubles n'
  // broadcasts, and every site runs its half of the ritual (the
  // reporting site reentrantly, from inside its own tap, as a site
  // process does when the decision arrives).
  void OnFrame(wire::Message&& msg) {
    msg.epoch = mirror_.round;
    bool broadcast = msg.type == wire::MsgType::kCoarseReport &&
                     mirror_.ApplyReport(msg.a);
    frames.push_back(std::move(msg));
    if (broadcast) {
      for (auto& half : halves_) half->ApplyRitual(mirror_.n_bar);
    }
  }

  disttrack::sim::CoarseMirror mirror_;
  std::vector<std::unique_ptr<disttrack::service::SiteHalf>> halves_;
  std::vector<Tap> taps_;
};

template <typename Replica, typename Options>
std::unique_ptr<Replica> TimeApply(const Options& options,
                                   const std::vector<wire::Message>& frames,
                                   double* ns_per_frame) {
  std::vector<double> times;
  std::unique_ptr<Replica> replica;
  for (int pass = 0; pass < kPasses; ++pass) {
    replica = std::make_unique<Replica>(options);
    Clock::time_point t0 = Clock::now();
    for (const wire::Message& frame : frames) replica->Apply(frame);
    times.push_back(NsSince(t0));
  }
  *ns_per_frame = Median(times) / static_cast<double>(frames.size());
  return replica;
}

// Floor reference for a keyed counter update: a two-row count-min sketch
// with power-of-two rows, in the layout of count_min2.hpp, hashed by one
// multiply-shift per row. No probe chain and no key compare: two
// independent loads and two increments per key, the cheapest keyed
// update this hardware does.
class CountMinFloor {
 public:
  explicit CountMinFloor(size_t width)
      : shift_(64 - Log2(std::max<size_t>(width, 16))),
        row0_(size_t{1} << (64 - shift_), 0),
        row1_(size_t{1} << (64 - shift_), 0) {}

  void UpdateRun(const uint64_t* keys, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      ++row0_[Slot(keys[i], kSalt0)];
      ++row1_[Slot(keys[i], kSalt1)];
    }
  }

  uint64_t Estimate(uint64_t key) const {
    return std::min(row0_[Slot(key, kSalt0)], row1_[Slot(key, kSalt1)]);
  }

 private:
  static constexpr uint64_t kSalt0 = 0x9E3779B97F4A7C15ull;
  static constexpr uint64_t kSalt1 = 0xC2B2AE3D27D4EB4Full;

  static int Log2(size_t width) {
    int bits = 0;
    while ((size_t{1} << bits) < width) ++bits;
    return bits;
  }

  size_t Slot(uint64_t key, uint64_t salt) const {
    return static_cast<size_t>(((key ^ (salt >> 7)) * salt) >> shift_);
  }

  int shift_;
  std::vector<uint64_t> row0_, row1_;
};

bool ReadFull(int fd, uint8_t* buf, size_t size) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = read(fd, buf + got, size - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

FrameRecording RecordFrames(const ServiceOptions& options,
                            const std::vector<Arrival>& input, size_t count) {
  FrameRecording recording;
  FrameRecorder recorder(options);
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < count; ++i) recorder.Arrive(input[i % input.size()]);
  recording.site_half_ns_per_arrival =
      NsSince(t0) / static_cast<double>(count);
  recording.frames = std::move(recorder.frames);
  recording.arrivals = count;
  return recording;
}

WireCosts ReplayWire(const ServiceOptions& options,
                     const FrameRecording& recording) {
  WireCosts c;
  const std::vector<wire::Message>& frames = recording.frames;
  if (frames.empty()) return c;
  const double n = static_cast<double>(frames.size());

  std::vector<uint8_t> bytes;
  std::vector<size_t> offsets;
  offsets.reserve(frames.size() + 1);
  for (size_t i = 0; i < frames.size(); ++i) {
    offsets.push_back(bytes.size());
    wire::EncodeFrame(frames[i], i + 1, &bytes);
    c.paper_words += static_cast<double>(
        wire::PaperWordCharge(frames[i], options.num_sites));
  }
  offsets.push_back(bytes.size());
  c.encoded_bytes = static_cast<double>(bytes.size());

  std::vector<uint8_t> scratch;
  scratch.reserve(bytes.size());
  c.encode_ns_per_frame = MedianPassNs([&] {
                            scratch.clear();
                            for (size_t i = 0; i < frames.size(); ++i) {
                              wire::EncodeFrame(frames[i], i + 1, &scratch);
                            }
                          }) /
                          n;

  wire::Message msg;
  uint64_t seq = 0;
  size_t decoded = 0;
  c.decode_ns_per_frame =
      MedianPassNs([&] {
        decoded = 0;
        for (size_t i = 0; i < frames.size(); ++i) {
          if (wire::DecodeFrame(bytes.data() + offsets[i],
                                offsets[i + 1] - offsets[i], &msg, &seq)) {
            ++decoded;
          }
        }
      }) /
      n;

  size_t framed = 0;
  c.framing_ns_per_frame =
      MedianPassNs([&] {
        disttrack::service::FrameReader reader;
        framed = 0;
        constexpr size_t kReadBytes = 65536;  // one socket read's worth
        for (size_t pos = 0; pos < bytes.size(); pos += kReadBytes) {
          reader.Append(bytes.data() + pos,
                        std::min(kReadBytes, bytes.size() - pos));
          while (reader.Next(&msg, &seq) ==
                 disttrack::service::FrameReader::Result::kFrame) {
            ++framed;
          }
        }
      }) /
      n;
  c.ok = decoded == frames.size() && framed == frames.size();

  switch (options.tracker) {
    case TrackerKind::kCount: {
      auto replica = TimeApply<disttrack::sim::CountReplica>(
          options.CountOptions(), frames, &c.apply_ns_per_frame);
      c.count_us = PerCallUs(10000, [&](int i) {
        KeepAlive(replica->Estimate(static_cast<uint64_t>(i)));
      });
      break;
    }
    case TrackerKind::kFrequency: {
      auto replica = TimeApply<disttrack::sim::FrequencyReplica>(
          options.FrequencyOptions(), frames, &c.apply_ns_per_frame);
      c.point_us = PerCallUs(2000, [&](int i) {
        KeepAlive(replica->Estimate(static_cast<uint64_t>(i % 16)));
      });
      double threshold = 0.01 * static_cast<double>(replica->n_prime());
      c.heavy_hitters_us = PerCallUs(20, [&](int) {
        size_t hits = 0;
        for (const auto& entry : replica->ItemEstimates()) {
          if (entry.second >= threshold) ++hits;
        }
        KeepAlive(static_cast<double>(hits));
      });
      break;
    }
    case TrackerKind::kRank: {
      auto replica = TimeApply<disttrack::sim::RankReplica>(
          options.RankOptions(), frames, &c.apply_ns_per_frame);
      const uint64_t universe = options.universe;
      c.rank_us = PerCallUs(200, [&](int i) {
        uint64_t value = universe / 4 + static_cast<uint64_t>(i) * 977 %
                                            (universe / 2);
        KeepAlive(replica->Estimate(value));
      });
      // The coordinator's kQueryQuantile bisection over the universe.
      double target = 0.5 * static_cast<double>(replica->n_prime());
      c.quantile_us = PerCallUs(20, [&](int) {
        uint64_t lo = 0, hi = universe;
        while (lo < hi) {
          uint64_t mid = lo + (hi - lo) / 2;
          if (replica->Estimate(mid) < target) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        KeepAlive(static_cast<double>(lo));
      });
      break;
    }
  }
  return c;
}

KeyLayerCosts ReplayKeyLayers(const std::vector<Arrival>& input, size_t count,
                              int num_sites, double epsilon, double sample_p,
                              int rank_height, uint64_t seed) {
  KeyLayerCosts c;
  count = std::min(count, input.size());
  const Arrival* arrivals = input.data();
  const double n = static_cast<double>(count);
  const size_t k = static_cast<size_t>(num_sites);

  {
    disttrack::Rng rng(seed);
    disttrack::SkipSampler sampler;
    constexpr int kDraws = 1 << 18;
    uint64_t acc = 0;
    c.skip_ns_per_draw = MedianPassNs([&] {
                           for (int i = 0; i < kDraws; ++i) {
                             sampler.Reset(sample_p, &rng);
                             acc += sampler.pending_skips();
                           }
                         }) /
                         kDraws;
    KeepAlive(static_cast<double>(acc));
  }

  {
    // The trackers' own chunking of a batch.
    const size_t chunk = disttrack::kSiteGroupChunk;
    disttrack::SiteGrouper grouper;
    c.site_group_ns_per_arrival =
        MedianPassNs([&] {
          for (size_t pos = 0; pos < count; pos += chunk) {
            grouper.ScatterBySite(arrivals + pos, std::min(chunk, count - pos),
                                  num_sites);
          }
        }) /
        n;
    c.site_histogram_ns_per_arrival =
        MedianPassNs([&] {
          for (size_t pos = 0; pos < count; pos += chunk) {
            grouper.CountArrivals(arrivals + pos, std::min(chunk, count - pos),
                                  num_sites);
          }
        }) /
        n;
  }

  // Per-site key streams, walked the way grouped delivery hands them to
  // a site: one run of ~chunk/k keys per site per chunk, sites in turn.
  std::vector<std::vector<uint64_t>> site_keys(k);
  for (size_t i = 0; i < count; ++i) {
    site_keys[static_cast<size_t>(arrivals[i].site)].push_back(arrivals[i].key);
  }
  const size_t run = std::max<size_t>(1, disttrack::kSiteGroupChunk / k);
  auto walk = [&](const std::vector<std::vector<uint64_t>>& keys,
                  auto&& update) {
    for (size_t off = 0;; off += run) {
      bool any = false;
      for (size_t s = 0; s < k; ++s) {
        if (off >= keys[s].size()) continue;
        update(s, keys[s].data() + off, std::min(run, keys[s].size() - off));
        any = true;
      }
      if (!any) break;
    }
  };

  {
    // A site tracks ~c/(eps sqrt(k)) items per round (c = 4, the
    // frequency tracker's default); its first distinct keys stand in.
    const size_t tracked = std::max<size_t>(
        16, static_cast<size_t>(4.0 / (epsilon * std::sqrt(double(k)))));
    std::vector<disttrack::frequency::CounterTable> tables(k);
    for (size_t s = 0; s < k; ++s) {
      for (uint64_t key : site_keys[s]) {
        if (tables[s].size() >= tracked) break;
        if (tables[s].Find(key) == nullptr) tables[s].Insert(key, 0);
      }
    }
    std::vector<CountMinFloor> floors;
    for (size_t s = 0; s < k; ++s) floors.emplace_back(tables[s].capacity());
    c.counter_table_ns_per_key =
        MedianPassNs([&] {
          walk(site_keys, [&](size_t s, const uint64_t* keys, size_t len) {
            tables[s].IncrementTrackedRun(keys, len);
          });
        }) /
        n;
    c.countmin_ns_per_key =
        MedianPassNs([&] {
          walk(site_keys, [&](size_t s, const uint64_t* keys, size_t len) {
            floors[s].UpdateRun(keys, len);
          });
        }) /
        n;
    // Both saw every key the same number of times: the sketch may only
    // over-count a tracked key.
    for (size_t s = 0; s < k; ++s) {
      tables[s].ForEach([&](uint64_t key, uint64_t value) {
        if (floors[s].Estimate(key) < value) c.ok = false;
      });
    }
  }

  {
    // Sorted runs, as the rank tracker's ladder and tree levels see them.
    std::vector<std::vector<uint64_t>> sorted = site_keys;
    for (auto& keys : sorted) {
      for (size_t off = 0; off < keys.size(); off += run) {
        std::sort(keys.begin() + static_cast<ptrdiff_t>(off),
                  keys.begin() + static_cast<ptrdiff_t>(
                                     std::min(off + run, keys.size())));
      }
    }
    const int height = std::max(1, rank_height);
    const double level_eps = 1.0 / std::sqrt(static_cast<double>(height));
    c.compactor_ns_per_value =
        MedianPassNs([&] {
          std::vector<std::unique_ptr<disttrack::summaries::CompactorSummary>>
              nodes;
          for (size_t s = 0; s < k; ++s) {
            nodes.push_back(
                std::make_unique<disttrack::summaries::CompactorSummary>(
                    level_eps, seed + s));
          }
          walk(sorted, [&](size_t s, const uint64_t* keys, size_t len) {
            nodes[s]->InsertSortedBatch(keys, len);
          });
          KeepAlive(static_cast<double>(nodes[0]->WeightTotal()));
        }) /
        n;
    const size_t levels = static_cast<size_t>(height) + 1;
    c.run_ladder_ns_per_value =
        MedianPassNs([&] {
          std::vector<disttrack::summaries::RunLadder> ladders(k);
          std::vector<uint64_t> leaves(k, 0);
          std::vector<disttrack::summaries::RunView> views;
          size_t pulled = 0;
          for (auto& ladder : ladders) ladder.Reset(levels);
          // Level l pulls every 2^l leaves, as the tree's nodes complete.
          walk(sorted, [&](size_t s, const uint64_t* keys, size_t len) {
            ladders[s].AppendSortedRun(keys, len);
            uint64_t leaf = ++leaves[s];
            for (size_t level = 0; level < levels; ++level) {
              if (leaf % (uint64_t{1} << level) == 0) {
                pulled += ladders[s].Pull(level, &views);
              }
            }
            ladders[s].Consolidate();
          });
          KeepAlive(static_cast<double>(pulled));
        }) /
        n;
  }
  return c;
}

void AddRecordedLayerMetrics(Report* report, Tracker tracker,
                             const FrameRecording& recording,
                             const WireCosts& wire) {
  const std::string t = TrackerName(tracker);
  report->Add(t + ".site_half.ns_per_arrival",
              recording.site_half_ns_per_arrival, "ns/arrival");
  report->Add(t + ".wire.encode_ns_per_frame", wire.encode_ns_per_frame,
              "ns/frame");
  report->Add(t + ".wire.decode_ns_per_frame", wire.decode_ns_per_frame,
              "ns/frame");
  report->Add(t + ".wire.bytes_per_paper_word",
              wire.encoded_bytes / wire.paper_words, "bytes/word");
  report->Add(t + ".framing.ns_per_frame", wire.framing_ns_per_frame,
              "ns/frame");
  report->Add(t + ".replica.apply_ns_per_frame", wire.apply_ns_per_frame,
              "ns/frame");
  report->Attempt(wire.ok, t + " recorded frames decode back");
}

void AddKeyLayerMetrics(Report* report, const KeyLayerCosts& costs) {
  report->Add("skip_sampler.ns_per_draw", costs.skip_ns_per_draw, "ns/draw");
  report->Add("site_group.ns_per_arrival", costs.site_group_ns_per_arrival,
              "ns/arrival");
  report->Add("counter_table.ns_per_key", costs.counter_table_ns_per_key,
              "ns/key");
  report->Add("counter_table.floor_ratio",
              costs.counter_table_ns_per_key / costs.countmin_ns_per_key,
              "ratio");
  report->Add("compactor.ns_per_value", costs.compactor_ns_per_value,
              "ns/value");
  report->Add("run_ladder.ns_per_value", costs.run_ladder_ns_per_value,
              "ns/value");
  report->Attempt(costs.ok, "count-min floor never under-counts");
}

void RankSummaryStats(const FrameRecording& recording, double* per_karrival,
                      double* values_per_frame) {
  double summaries = 0, values = 0;
  for (const wire::Message& frame : recording.frames) {
    if (frame.type != wire::MsgType::kRankSummary) continue;
    summaries += 1;
    values += static_cast<double>(frame.values.size());
  }
  *per_karrival =
      1000.0 * summaries / static_cast<double>(std::max<uint64_t>(1, recording.arrivals));
  *values_per_frame = summaries > 0 ? values / summaries : 0;
}

double SocketPingPongUs(int exchanges) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return -1;
  wire::Message grant;
  grant.type = wire::MsgType::kGrant;
  grant.site = 0;
  grant.a = 2048;
  grant.b = 1;
  std::vector<uint8_t> frame;
  wire::EncodeFrame(grant, 1, &frame);
  const size_t size = frame.size();

  std::thread echo([fd = fds[1], size, exchanges] {
    std::vector<uint8_t> buf(size);
    for (int i = 0; i < exchanges; ++i) {
      if (!ReadFull(fd, buf.data(), size)) return;
      if (!disttrack::service::WriteAll(fd, buf.data(), size)) return;
    }
  });
  std::vector<double> rtt_us;
  rtt_us.reserve(static_cast<size_t>(exchanges));
  std::vector<uint8_t> reply(size);
  bool ok = true;
  for (int i = 0; i < exchanges && ok; ++i) {
    Clock::time_point t0 = Clock::now();
    ok = disttrack::service::WriteAll(fds[0], frame.data(), size) &&
         ReadFull(fds[0], reply.data(), size);
    rtt_us.push_back(NsSince(t0) / 1000.0);
  }
  shutdown(fds[0], SHUT_RDWR);  // unblocks the echo thread on early exit
  echo.join();
  close(fds[0]);
  close(fds[1]);
  return ok ? Median(rtt_us) : -1;
}

}  // namespace perfbench
