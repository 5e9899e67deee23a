#include "disttrack/sim/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace disttrack {
namespace sim {

namespace {

void CheckCheckpointFactor(double checkpoint_factor) {
  if (!(checkpoint_factor > 1.0)) {
    std::fprintf(stderr,
                 "Replay: checkpoint_factor must be > 1.0, got %f\n",
                 checkpoint_factor);
    std::abort();
  }
}

// The checkpoint loop every Replay* driver shares: delivers the arrivals
// between consecutive CheckpointCounts(total, checkpoint_factor) entries
// through `deliver_batch(begin, end)` (element indices [begin, end), in
// order), then records `sample()`'s (estimate, truth) pair at each
// checkpoint.
template <typename DeliverBatchFn, typename SampleFn>
std::vector<Checkpoint> ReplayImpl(uint64_t total, double checkpoint_factor,
                                   DeliverBatchFn deliver_batch,
                                   SampleFn sample) {
  std::vector<uint64_t> schedule = CheckpointCounts(total, checkpoint_factor);
  std::vector<Checkpoint> out;
  out.reserve(schedule.size());
  uint64_t delivered = 0;
  for (uint64_t target : schedule) {
    if (target > delivered) deliver_batch(delivered, target);
    delivered = target;
    auto [est, truth] = sample();
    out.push_back(Checkpoint{delivered, est, truth});
  }
  return out;
}

}  // namespace

std::vector<uint64_t> CheckpointCounts(uint64_t total,
                                       double checkpoint_factor) {
  CheckCheckpointFactor(checkpoint_factor);
  // This is the historical per-arrival schedule exactly: deliver to the
  // first n with n >= next (never past the stream end), sample there, and
  // multiply. The only delivery boundary that is not a sample is the
  // stream end when it falls short of `next`; the trailing final-sample
  // rule folds it into the schedule anyway, so "delivery boundaries" and
  // "checkpoints" coincide.
  std::vector<uint64_t> out;
  uint64_t n = 0;
  double next = 1.0;
  while (n < total) {
    uint64_t target = static_cast<uint64_t>(std::ceil(next));
    target = std::max(target, n + 1);
    target = std::min(target, total);
    n = target;
    if (static_cast<double>(n) >= next) {
      out.push_back(n);
      next = static_cast<double>(n) * checkpoint_factor;
    }
  }
  if (out.empty() || out.back() != total) out.push_back(total);
  return out;
}

std::vector<Checkpoint> ReplayCount(CountTrackerInterface* tracker,
                                    const Workload& workload,
                                    double checkpoint_factor) {
  uint64_t n = 0;
  return ReplayImpl(
      workload.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        tracker->ArriveBatch(workload.data() + begin, end - begin);
        n += end - begin;
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateCount(),
                                         static_cast<double>(n));
      });
}

std::vector<Checkpoint> ReplayCountSites(CountTrackerInterface* tracker,
                                         const SiteStream& sites,
                                         double checkpoint_factor) {
  uint64_t n = 0;
  return ReplayImpl(
      sites.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        tracker->ArriveSites(sites.data() + begin, end - begin);
        n += end - begin;
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateCount(),
                                         static_cast<double>(n));
      });
}

std::vector<Checkpoint> ReplayFrequency(FrequencyTrackerInterface* tracker,
                                        const Workload& workload,
                                        uint64_t query_item,
                                        double checkpoint_factor) {
  uint64_t freq = 0;
  return ReplayImpl(
      workload.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        tracker->ArriveBatch(workload.data() + begin, end - begin);
        for (uint64_t i = begin; i < end; ++i) {
          if (workload[i].key == query_item) ++freq;
        }
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateFrequency(query_item),
                                         static_cast<double>(freq));
      });
}

std::vector<Checkpoint> ReplayRank(RankTrackerInterface* tracker,
                                   const Workload& workload,
                                   uint64_t query_value,
                                   double checkpoint_factor) {
  uint64_t rank = 0;
  return ReplayImpl(
      workload.size(), checkpoint_factor,
      [&](uint64_t begin, uint64_t end) {
        tracker->ArriveBatch(workload.data() + begin, end - begin);
        for (uint64_t i = begin; i < end; ++i) {
          if (workload[i].key < query_value) ++rank;
        }
      },
      [&]() {
        return std::pair<double, double>(tracker->EstimateRank(query_value),
                                         static_cast<double>(rank));
      });
}

}  // namespace sim
}  // namespace disttrack
