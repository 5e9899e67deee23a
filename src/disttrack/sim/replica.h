// Coordinator-side estimator replicas, rebuilt from delivered wire frames
// alone (extracted from the fault harness in robust_cluster.cc so the
// multi-process service coordinator can host the same mirrors).
//
// Each replica consumes the exact frame stream a tracker's WireTap emits
// and reproduces the coordinator half of the estimator bit for bit: the
// fault harness (robust_cluster.h) proves the property differentially at
// every checkpoint, and the service daemon (service/coordinator.h) serves
// its snapshot query API from these same classes. Delivery contract: per
// site frames arrive in FIFO order and exactly once — the reliable
// channel layer (transport.h) provides both under faults, and the TCP
// sessions of the service provide them natively plus sequence-number
// dedup across reconnects.

#ifndef DISTTRACK_SIM_REPLICA_H_
#define DISTTRACK_SIM_REPLICA_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

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
// Mirrors the coordinator state of RandomizedCountTracker: 1/p and the
// (sum, count) aggregates over existing reports. Reports and p-halving
// corrections arrive as frames; inv_p evolves at derived broadcasts with
// the tracker's own formula (RandomizedCountOptions::InvP) and doubling
// loop, so the estimator expression is evaluated on bit-identical
// operands.

class CountReplica {
 public:
  explicit CountReplica(const count::RandomizedCountOptions& options)
      : options_(options),
        reported_(static_cast<size_t>(options.num_sites), 0) {}

  void Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          uint64_t new_inv_p = options_.InvP(coarse_.n_bar);
          while (inv_p_ < new_inv_p) inv_p_ *= 2;
        }
        break;
      case wire::MsgType::kCoinReport: {
        uint64_t& rep = reported_[static_cast<size_t>(msg.site)];
        if (rep > 0) reported_sum_ -= rep;
        else ++reported_count_;
        rep = msg.a;
        reported_sum_ += rep;
        break;
      }
      case wire::MsgType::kCorrection: {
        // Emitted only for sites holding a report (§2.1 thinning ritual).
        uint64_t& rep = reported_[static_cast<size_t>(msg.site)];
        reported_sum_ -= rep;
        --reported_count_;
        rep = msg.a;
        if (rep > 0) {
          reported_sum_ += rep;
          ++reported_count_;
        }
        break;
      }
      default:
        break;
    }
  }

  double Estimate(uint64_t /*query*/) const {
    double inv_p = static_cast<double>(inv_p_);
    if (options_.naive_boundary_estimator) {
      return static_cast<double>(reported_sum_) +
             static_cast<double>(options_.num_sites) * (inv_p - 1.0);
    }
    return static_cast<double>(reported_sum_) +
           static_cast<double>(reported_count_) * (inv_p - 1.0);
  }

  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  count::RandomizedCountOptions options_;
  CoarseMirror coarse_;
  uint64_t inv_p_ = 1;
  std::vector<uint64_t> reported_;
  uint64_t reported_sum_ = 0;
  uint64_t reported_count_ = 0;
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
  /// Serves the coordinator's heavy-hitters query, whose callers filter by
  /// threshold phi * n-hat themselves. Items whose estimate is exactly 0
  /// are included, so a threshold <= 0 (phi <= 0) returns them too.
  std::vector<std::pair<uint64_t, double>> ItemEstimates() const {
    return agg_.ItemEstimates();
  }

  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  frequency::RandomizedFrequencyOptions options_;
  CoarseMirror coarse_;
  frequency::FrequencyAggregate agg_;
};

// --- Rank replica ---------------------------------------------------------
// Mirrors the coordinator storage of RandomizedRankTracker: per site, the
// instances of algorithm C in stream order, each holding its shipped
// summaries, its live residual window, and its round's 1/p. Per-site FIFO
// delivery gives the replica the tracker's own ordering guarantees: a
// chunk's frames arrive in leaf order, and the coarse report that opens a
// round precedes the round's first summary. Instances are opened lazily
// at their first frame — an instance the tracker created but never fed
// contributes exactly +0.0 to the estimate, so skipping it is FP-safe —
// and closed by the round's derived broadcast or by the chunk-completing
// top summary (first_leaf == 0, end_leaf == num_leaves), which also
// triggers the tracker's drop-covered-summaries prune.

class RankReplica {
 public:
  explicit RankReplica(const rank::RandomizedRankOptions& options)
      : options_(options),
        sites_(static_cast<size_t>(options.num_sites)) {}

  void Apply(const wire::Message& msg) {
    switch (msg.type) {
      case wire::MsgType::kCoarseReport:
        if (coarse_.ApplyReport(msg.a)) {
          round_ = options_.RoundParamsFor(coarse_.n_bar);
          for (Site& site : sites_) site.open = false;
        }
        break;
      case wire::MsgType::kRankSummary: {
        Site& site = sites_[static_cast<size_t>(msg.site)];
        Instance& inst = Open(&site);
        StoredSummary stored;
        stored.first_leaf = static_cast<uint32_t>(msg.a);
        stored.end_leaf = static_cast<uint32_t>(msg.b);
        stored.values = msg.values;
        stored.segments = msg.segments;
        uint32_t end_leaf = stored.end_leaf;
        inst.summaries.push_back(std::move(stored));
        // Completed leaves are covered: drop their residual samples
        // (mirrors the tracker's leaf-completion prune; residuals arrive
        // in leaf order on the site's FIFO).
        while (inst.residual_begin < inst.residuals.size() &&
               inst.residuals[inst.residual_begin].leaf < end_leaf) {
          ++inst.residual_begin;
        }
        if (stored_covers_chunk(inst.summaries.back())) {
          // Chunk done: keep only the top summary (the tracker's
          // dyadic-cover prune) and close the instance — the next frame
          // from this site opens the successor.
          auto top = std::find_if(
              inst.summaries.begin(), inst.summaries.end(),
              [this](const StoredSummary& s) {
                return s.first_leaf == 0 && s.end_leaf == round_.num_leaves;
              });
          StoredSummary keep = std::move(*top);
          inst.summaries.clear();
          inst.summaries.push_back(std::move(keep));
          site.open = false;
        }
        break;
      }
      case wire::MsgType::kRankResidual: {
        Site& site = sites_[static_cast<size_t>(msg.site)];
        Open(&site).residuals.push_back(
            ResidualSample{static_cast<uint32_t>(msg.a), msg.b});
        break;
      }
      default:
        break;
    }
  }

  double Estimate(uint64_t value) const {
    // Exact mirror of RandomizedRankTracker::EstimateRank: site-major,
    // instances in stream order, greedy maximal dyadic cover, residual
    // window at the instance's own p.
    double est = 0;
    for (const Site& site : sites_) {
      for (const Instance& data : site.instances) {
        uint32_t cursor = 0;
        for (;;) {
          const StoredSummary* best = nullptr;
          for (const StoredSummary& stored : data.summaries) {
            if (stored.first_leaf == cursor &&
                (best == nullptr || stored.end_leaf > best->end_leaf)) {
              best = &stored;
            }
          }
          if (best == nullptr) break;
          est += SummaryRankBelow(*best, value);
          cursor = best->end_leaf;
        }
        uint64_t below = 0;
        for (size_t i = data.residual_begin; i < data.residuals.size(); ++i) {
          if (data.residuals[i].value < value) ++below;
        }
        est += static_cast<double>(below) * data.inv_p;
      }
    }
    return est;
  }

  uint64_t round() const { return coarse_.round; }
  uint64_t n_bar() const { return coarse_.n_bar; }
  uint64_t n_prime() const { return coarse_.n_prime; }

 private:
  struct StoredSummary {
    uint32_t first_leaf = 0;
    uint32_t end_leaf = 0;
    std::vector<uint64_t> values;
    std::vector<std::pair<uint64_t, uint32_t>> segments;
  };
  struct ResidualSample {
    uint32_t leaf = 0;
    uint64_t value = 0;
  };
  struct Instance {
    std::vector<StoredSummary> summaries;
    std::vector<ResidualSample> residuals;
    size_t residual_begin = 0;
    double inv_p = 1.0;
  };
  struct Site {
    std::vector<Instance> instances;
    bool open = false;
  };

  bool stored_covers_chunk(const StoredSummary& stored) const {
    return stored.first_leaf == 0 && stored.end_leaf == round_.num_leaves;
  }

  Instance& Open(Site* site) {
    if (!site->open) {
      site->instances.emplace_back();
      site->instances.back().inv_p = round_.inv_p;
      site->open = true;
    }
    return site->instances.back();
  }

  static double SummaryRankBelow(const StoredSummary& summary, uint64_t x) {
    uint64_t below = 0;
    uint32_t begin = 0;
    for (const auto& [weight, end] : summary.segments) {
      auto first = summary.values.begin() + begin;
      auto last = summary.values.begin() + end;
      below += weight * static_cast<uint64_t>(
                            std::lower_bound(first, last, x) - first);
      begin = end;
    }
    return static_cast<double>(below);
  }

  rank::RandomizedRankOptions options_;
  CoarseMirror coarse_;
  // The tracker's own round parameters (RandomizedRankOptions::
  // RoundParamsFor), so inv_p and the leaf count match bit for bit.
  rank::RoundParams round_;
  std::vector<Site> sites_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_REPLICA_H_
