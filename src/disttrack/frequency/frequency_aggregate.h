// The coordinator half of the §3.1 frequency tracker, shared by the
// tracker and its replica (sim/replica.h).
//
// Every term of estimator (4) is an integer (1/p = ⌊εn̄/(c√k)⌋₂ is a power
// of two; c̄ᵢⱼ, dᵢⱼ are counts), so an item's estimate is one int64 running
// total that each message updates at the current 1/p. Two flat tables
// hold the state: (item, instance) -> {c̄, d} for the current round, which
// a round broadcast clears in O(1) by bumping the stamp marking live
// slots, and a CounterTable of item -> total. A message costs two probes.
//
// Exactness precondition: every term and total stays below 2^53 in
// magnitude, so a total is exact as a double and equals the terms' sum in
// any order. Messages of different (item, instance) pairs may therefore
// be applied in any order with bit-identical estimates; only each pair's
// own messages (one site's, in its stream order) must stay in order. A
// message that would break the bound is refused instead of rounded: the
// call returns false and changes no estimate. The replica closes the
// connection of a peer whose frame is refused; ApplyBatch, which serves
// the in-process tracker whose values cannot break the bound, aborts.

#ifndef DISTTRACK_FREQUENCY_FREQUENCY_AGGREGATE_H_
#define DISTTRACK_FREQUENCY_FREQUENCY_AGGREGATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "disttrack/common/math_util.h"
#include "disttrack/frequency/counter_table.h"

namespace disttrack {
namespace frequency {

class FrequencyAggregate {
 public:
  /// A buffered message: a counter report (value = c̄ >= 1) or, with
  /// value 0, one sampled copy.
  struct Message {
    uint64_t item = 0;
    uint64_t instance = 0;
    uint64_t value = 0;
  };

  static constexpr int64_t kExactLimit = int64_t{1} << 53;

  /// `naive`: estimator (2), where an instance without a counter
  /// contributes 0 instead of -d/p.
  explicit FrequencyAggregate(bool naive) : naive_(naive) {}

  /// Aborts with a diagnostic unless `admitted`: for callers whose values
  /// cannot break the bound.
  static void RequireExact(bool admitted, const char* what) {
    if (admitted) return;
    std::fprintf(stderr,
                 "FrequencyAggregate: %s breaks the 2^53 exactness bound of "
                 "the integer estimator\n",
                 what);
    std::abort();
  }

  /// Opens a round at 1/p = `inv_p`: drops every pair, keeps the totals.
  /// False, and no change, if 2/p would reach 2^53.
  [[nodiscard]] bool BeginRound(uint64_t inv_p) {
    if (inv_p >= kExactLimit / 2) return false;
    inv_p_ = static_cast<int64_t>(inv_p);
    d_limit_ = static_cast<uint64_t>(kExactLimit / inv_p_);
    ++stamp_;
    pairs_ = 0;
    return true;
  }

  /// The pair's counter now reads `value`; its first report replaces the
  /// sampled copies' -d/p with c̄ - 2 + 2/p. False, and no estimate
  /// changes, if c̄, d/p or the item's total would reach 2^53.
  [[nodiscard]] bool CounterReport(uint64_t item, uint64_t instance,
                                   uint64_t value) {
    if (value >= kExactLimit) return false;
    PairSlot& pair = FindOrInsertPair(item, instance);
    int64_t delta = static_cast<int64_t>(value);
    if ((pair.state & kCounted) != 0) {
      delta -= static_cast<int64_t>(pair.state & ~kCounted);
    } else {  // d/p is a term too, so no sum below can overflow
      if (!naive_ && pair.state >= d_limit_) return false;
      int64_t d = naive_ ? 0 : static_cast<int64_t>(pair.state);
      delta += 2 * inv_p_ - 2 + d * inv_p_;
    }
    if (!AddToTotal(item, delta)) return false;
    pair.state = kCounted | value;
    return true;
  }

  /// One sampled copy (the d channel); counts only before a report.
  /// False, and no estimate changes, if the item's total would reach 2^53.
  [[nodiscard]] bool Sample(uint64_t item, uint64_t instance) {
    PairSlot& pair = FindOrInsertPair(item, instance);
    bool counts = (pair.state & kCounted) == 0;
    if (!AddToTotal(item, counts && !naive_ ? -inv_p_ : 0)) return false;
    pair.state += counts ? 1 : 0;
    return true;
  }

  /// Applies `msgs` in order, prefetching the slots of the message
  /// kPrefetchAhead on to hide the cache misses of tables beyond cache.
  /// Aborts on a message the bound refuses.
  void ApplyBatch(const Message* msgs, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      const Message& m = msgs[i];
      RequireExact(m.value == 0 ? Sample(m.item, m.instance)
                                : CounterReport(m.item, m.instance, m.value),
                   "a counter report or sampled copy");
      if (i + kPrefetchAhead < count) {  // the pair table exists from here
        const Message& next = msgs[i + kPrefetchAhead];
        __builtin_prefetch(&pairs_at_[PairHome(next.item, next.instance)], 1);
        totals_.Prefetch(next.item);
      }
    }
  }

  double Estimate(uint64_t item) const {
    const uint64_t* total = totals_.Find(item);
    return total == nullptr ? 0.0 : static_cast<double>(Signed(*total));
  }

  /// Every item a message has named, with its estimate (0 included),
  /// sorted by item.
  std::vector<std::pair<uint64_t, double>> ItemEstimates() const {
    std::vector<std::pair<uint64_t, double>> out;
    out.reserve(totals_.size());
    totals_.ForEach([&out](uint64_t item, uint64_t total) {
      out.emplace_back(item, static_cast<double>(Signed(total)));
    });
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The items of ItemEstimates() whose estimate is >= `threshold`, in the
  /// same order: filtered in the pass over the totals, then sorted.
  std::vector<std::pair<uint64_t, double>> HeavyHitters(
      double threshold) const {
    std::vector<std::pair<uint64_t, double>> out;
    totals_.ForEach([&out, threshold](uint64_t item, uint64_t total) {
      double est = static_cast<double>(Signed(total));
      if (est >= threshold) out.emplace_back(item, est);
    });
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct PairSlot {
    uint64_t item = 0;
    uint64_t instance = 0;
    uint64_t state = 0;  // kCounted | c̄ once reported, else d
    uint64_t stamp = 0;  // live iff == stamp_
  };

  static constexpr uint64_t kCounted = uint64_t{1} << 63;
  static constexpr size_t kMinPairs = 256;
  static constexpr size_t kPrefetchAhead = 8;

  // Totals are stored as their two's-complement bits.
  static int64_t Signed(uint64_t bits) { return static_cast<int64_t>(bits); }

  // Fibonacci hash of the mixed pair: the home slot is the top bits.
  size_t PairHome(uint64_t item, uint64_t instance) const {
    return ((item ^ (instance * 0xC2B2AE3D27D4EB4Full)) *
            0x9E3779B97F4A7C15ull) >> pair_shift_;
  }

  // Linear probing to the pair's slot or the free slot ending its run.
  size_t PairIndex(uint64_t item, uint64_t instance) const {
    size_t idx = PairHome(item, instance);
    while (pairs_at_[idx].stamp == stamp_ &&
           (pairs_at_[idx].item != item ||
            pairs_at_[idx].instance != instance)) {
      idx = (idx + 1) & (pairs_at_.size() - 1);
    }
    return idx;
  }

  // Grows at 1/2 load, checked before the probe so a free slot exists;
  // the first call allocates the table.
  PairSlot& FindOrInsertPair(uint64_t item, uint64_t instance) {
    if (2 * pairs_ >= pairs_at_.size()) {
      std::vector<PairSlot> old = std::move(pairs_at_);
      pairs_at_.assign(std::max(kMinPairs, 2 * old.size()), PairSlot{});
      pair_shift_ = 64 - FloorLog2(pairs_at_.size());
      for (const PairSlot& slot : old) {
        if (slot.stamp == stamp_) {
          pairs_at_[PairIndex(slot.item, slot.instance)] = slot;
        }
      }
    }
    PairSlot& slot = pairs_at_[PairIndex(item, instance)];
    if (slot.stamp != stamp_) {
      slot = PairSlot{item, instance, 0, stamp_};
      ++pairs_;
    }
    return slot;
  }

  // False, and no change, if the item's total would reach 2^53.
  // |delta| < 3 * 2^53, so the sum cannot overflow.
  bool AddToTotal(uint64_t item, int64_t delta) {
    uint64_t* total = totals_.Find(item);
    int64_t sum = (total == nullptr ? 0 : Signed(*total)) + delta;
    if (sum <= -kExactLimit || sum >= kExactLimit) return false;
    if (total == nullptr) total = totals_.Insert(item, 0);
    *total = static_cast<uint64_t>(sum);
    return true;
  }

  bool naive_;
  int64_t inv_p_ = 1;
  uint64_t d_limit_ = kExactLimit;  // 2^53 / (1/p): d/p < 2^53 iff d < it
  uint64_t stamp_ = 1;  // slots start at stamp 0: free
  std::vector<PairSlot> pairs_at_;
  size_t pairs_ = 0;  // live pairs this round
  int pair_shift_ = 64;  // 64 - log2(capacity)
  CounterTable totals_;  // item -> running total
};

}  // namespace frequency
}  // namespace disttrack

#endif  // DISTTRACK_FREQUENCY_FREQUENCY_AGGREGATE_H_
