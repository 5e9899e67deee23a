// The coordinator half of the §2.1 count tracker, shared by the tracker
// and its replica (sim/replica.h). At p = 1 it is also the coordinator of
// the deterministic tracker (deterministic_count.h): the sum of the last
// reports.
//
// The coordinator keeps each site's last report n̄_i (0: none exists) and
// answers estimator (1) summed over the sites,
//
//      n̂ = Σ n̄_i + |{i : n̄_i exists}| · (1/p - 1),
//
// from two running integers and the round's 1/p. Coin reports and the
// p-halving corrections both just overwrite a site's n̄_i, so the sums are
// exact and any interleaving of different sites' messages leaves the
// same state; only each site's own messages must stay in order.

#ifndef DISTTRACK_COUNT_COUNT_AGGREGATE_H_
#define DISTTRACK_COUNT_COUNT_AGGREGATE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace disttrack {
namespace count {

class CountAggregate {
 public:
  /// `naive`: the biased ablation estimator, which adds 1/p - 1 for every
  /// site, report or not.
  CountAggregate(int num_sites, bool naive)
      : naive_(naive), reported_(static_cast<size_t>(num_sites), 0) {}

  /// Opens a round at 1/p = `inv_p`. p only ever halves, so a smaller
  /// value leaves 1/p as it was.
  void BeginRound(uint64_t inv_p) { inv_p_ = std::max(inv_p_, inv_p); }

  /// Site `site`'s last report now reads `value` (0: no report exists).
  void Set(int site, uint64_t value) {
    uint64_t& rep = reported_[static_cast<size_t>(site)];
    reported_sum_ = reported_sum_ - rep + value;
    reported_count_ =
        reported_count_ - (rep > 0 ? 1 : 0) + (value > 0 ? 1 : 0);
    rep = value;
  }

  uint64_t inv_p() const { return inv_p_; }

  double Estimate() const {
    double inv_p = static_cast<double>(inv_p_);
    uint64_t sites = naive_ ? reported_.size() : reported_count_;
    return static_cast<double>(reported_sum_) +
           static_cast<double>(sites) * (inv_p - 1.0);
  }

 private:
  bool naive_;
  uint64_t inv_p_ = 1;
  std::vector<uint64_t> reported_;  // n̄_i per site
  uint64_t reported_sum_ = 0;       // Σ n̄_i
  uint64_t reported_count_ = 0;     // |{i : n̄_i exists}|
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_COUNT_AGGREGATE_H_
