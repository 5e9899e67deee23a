// Coordinator-side estimator replicas, rebuilt from delivered wire frames
// alone. sim::CoordinatorCore (coordinator_core.h) hosts one, for both
// the fault-injected replay and the multi-process service coordinator.
//
// Each replica is a CoarseMirror plus the tracker's own coordinator
// aggregate (count_aggregate.h, frequency_aggregate.h, rank_aggregate.h),
// fed the exact frame stream a tracker's WireTap emits, so it reproduces
// the coordinator half of the estimator bit for bit: the fault harness
// (robust_cluster.h) proves the property differentially at every
// checkpoint, and the service daemon (service/coordinator.h) serves its
// snapshot query API from the same hosted replica. The core takes its
// broadcast decisions from the replica's mirror. Delivery contract: per
// site frames arrive in FIFO order and exactly once — the core's
// sequenced channels (transport.h) provide both, under link faults and
// across reconnects alike.

#ifndef DISTTRACK_SIM_REPLICA_H_
#define DISTTRACK_SIM_REPLICA_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "disttrack/count/count_aggregate.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/frequency/randomized_frequency.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {

/// Coordinator half of CoarseTracker (count/coarse_tracker.h), rebuilt
/// from delivered coarse reports alone. The kBroadcast frames the
/// coordinator fans out are *not* applied — deriving the broadcast from
/// the report that triggered it keeps the replica independent of
/// cross-link delivery order (the downlink copy races the uplink report
/// under faults).
using CoarseMirror = count::CoarseMirror;

// --- Count replica --------------------------------------------------------
// Hosts the tracker's own coordinator aggregate (count/count_aggregate.h),
// fed from frames: coin reports and p-halving corrections set a site's
// n̄_i, and a derived broadcast opens the next round at the 1/p the
// tracker computes from the same n̄.

class CountReplica {
 public:
  explicit CountReplica(const count::RandomizedCountOptions& options)
      : options_(options),
        agg_(options.num_sites, options.naive_boundary_estimator) {}

  void Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          agg_.BeginRound(options_.InvP(coarse_.n_bar));
        }
        break;
      case wire::MsgType::kCoinReport:
      case wire::MsgType::kCorrection:
        agg_.Set(msg.site, msg.a);
        break;
      default:
        break;
    }
  }

  double Estimate(uint64_t /*query*/) const { return agg_.Estimate(); }

  const CoarseMirror& coarse() const { return coarse_; }
  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  count::RandomizedCountOptions options_;
  CoarseMirror coarse_;
  count::CountAggregate agg_;
};

// --- Frequency replica ----------------------------------------------------
// Hosts the tracker's own coordinator aggregate (frequency_aggregate.h),
// fed from frames; a derived broadcast opens the next round at the p the
// tracker computes from the same n̄. Estimator terms are exact integers,
// so cross-site delivery order cannot change an estimate, and per-site
// FIFO delivery keeps each (item, instance) pair's messages in order.
// A frame that would take a term or total to 2^53 (a value no tracker
// produces) is refused, leaving every estimate as it was.

class FrequencyReplica {
 public:
  explicit FrequencyReplica(
      const frequency::RandomizedFrequencyOptions& options)
      : options_(options), agg_(options.naive_boundary_estimator) {}

  /// False if the frame is refused: it would break the aggregate's 2^53
  /// exactness bound, and no state changed.
  bool Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport: {
        CoarseMirror next = coarse_;
        if (next.ApplyReport(msg.a) &&
            !agg_.BeginRound(options_.InvP(next.n_bar))) {
          return false;
        }
        coarse_ = next;
        return true;
      }
      case wire::MsgType::kCounterReport:
        return agg_.CounterReport(msg.a, msg.b, msg.c);
      case wire::MsgType::kSampleForward:
        return agg_.Sample(msg.a, msg.b);
      default:
        // A split notice is site-side bookkeeping only: the split mints a
        // fresh instance id, which later counter/sample frames carry.
        return true;
    }
  }

  double Estimate(uint64_t item) const { return agg_.Estimate(item); }

  /// Every item any counter report or sampled copy has named, with its
  /// current estimate, sorted by item: one pass over the item totals.
  std::vector<std::pair<uint64_t, double>> ItemEstimates() const {
    return agg_.ItemEstimates();
  }

  /// The items of ItemEstimates() whose estimate is >= `threshold` (the
  /// coordinator's heavy-hitters query, threshold phi * n'). Items whose
  /// estimate is exactly 0 are included, so a threshold <= 0 (phi <= 0)
  /// returns them too.
  std::vector<std::pair<uint64_t, double>> HeavyHitters(
      double threshold) const {
    return agg_.HeavyHitters(threshold);
  }

  const CoarseMirror& coarse() const { return coarse_; }
  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  frequency::RandomizedFrequencyOptions options_;
  CoarseMirror coarse_;
  frequency::FrequencyAggregate agg_;
};

// --- Rank replica ---------------------------------------------------------
// Hosts the tracker's own coordinator aggregate (rank/rank_aggregate.h),
// fed from frames; a derived broadcast opens the next round with the
// round parameters the tracker computes from the same n̄. Per-site FIFO
// delivery gives the aggregate the tracker's ordering: a chunk's frames
// arrive in leaf order, and the coarse report that opens a round precedes
// the round's first summary. Each frame is filed under its epoch, the
// round its site was in when it sent it. A malformed summary, one that
// would take a site's summary weight to 2^53, and a frame of the wrong
// kind for its epoch (a summary or tail sample of a forward round, a
// forward of a tree round, any frame of a round not yet opened) are
// refused and change no estimate. Forwards fold into the aggregate's run
// lazily, at the next read.

class RankReplica {
 public:
  explicit RankReplica(const rank::RandomizedRankOptions& options)
      : options_(options), agg_(options.num_sites) {}

  /// False if the frame is refused (see above); no state changed.
  bool Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          agg_.BeginRound(options_.RoundParamsFor(coarse_.n_bar));
        }
        return true;
      case wire::MsgType::kRankSummary:
        return agg_.Summary(msg.site, msg.epoch, msg.a, msg.b,
                            msg.values.data(), msg.values.size(),
                            msg.segments.data(), msg.segments.size());
      case wire::MsgType::kRankResidual:
        return agg_.Residual(msg.site, msg.epoch, msg.a, msg.b);
      case wire::MsgType::kRankForward:
        return agg_.Forwards(msg.epoch, &msg.a, 1);
      default:
        return true;
    }
  }

  double Estimate(uint64_t value) const { return agg_.Estimate(value); }

  const CoarseMirror& coarse() const { return coarse_; }
  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  rank::RandomizedRankOptions options_;
  CoarseMirror coarse_;
  rank::RankAggregate agg_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_REPLICA_H_
