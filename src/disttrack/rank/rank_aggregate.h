// The coordinator half of the §4 rank tracker, shared by the tracker and
// its replica (sim/replica.h).
//
// Each site runs one instance of algorithm C at a time. The coordinator
// answers rank(x) per instance from the maximal dyadic cover of the
// instance's completed leaves plus the tail samples of its in-progress
// leaf, scaled by the instance's round's 1/p.
//
// Open instances (at most one per site). The cover is a stack in a
// per-site arena that is reused from instance to instance. Nodes ship in
// leaf order and a node contains every node shipped before it inside its
// range, so a shipped node [s, e) truncates the entries with
// first_leaf >= s and is then appended. Superseded summaries are never
// kept.
//
// Skipped levels. No site ships a node of a skipped level
// (RoundParams::skipped_levels: that level's nodes and every node below
// them are exact, so a node's summary is the union of its children's).
// The coordinator rebuilds it instead: whenever the top two cover entries
// are exact (one weight-1 segment), adjacent, aligned siblings of equal
// span whose parent level is skipped, they merge in place in the arena
// (MergeSorted), binary-counter style. Each merged entry is the summary
// the site would have shipped, so after each of a site's leaf
// completions the cover is the one a site shipping every node would
// leave.
//
// Frozen instances. An instance freezes when the summary ending at its
// chunk's last leaf arrives (the top node's, or the last leaf's when the
// top level is skipped) or a round change cuts it short. Its cover
// entries are then merged once into one immutable run of distinct values
// with prefix weights, so a probe is one binary search, and its live tail
// samples are kept sorted and tagged with their round.
//
// Estimate. rank(x) = I + Σ_r below_r · inv_p_r, where I counts the
// summary weights below x (an exact integer) and below_r counts the tail
// samples of round r below x; the residual terms are added to double(I)
// in round order. Every term is independent of the order in which the
// sites' frames were applied, so any host fed the same per-site frame
// sequences (per-site FIFO, rounds opened at the same points) answers bit
// for bit the same.
//
// Exactness precondition: each site's summary weight stays below 2^53. A
// summary that would break it is refused, as is a malformed one (segment
// ends decreasing or past the values, values out of order within a
// segment, first_leaf >= end_leaf, end_leaf past the round's leaves, or a
// range that is a node of a skipped level, which no site ships).
// Summary returns false and changes nothing.

#ifndef DISTTRACK_RANK_RANK_AGGREGATE_H_
#define DISTTRACK_RANK_RANK_AGGREGATE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "disttrack/common/small_sort.h"
#include "disttrack/summaries/run_ladder.h"

namespace disttrack {
namespace rank {

class RankAggregate {
 public:
  using Segment = std::pair<uint64_t, uint32_t>;  // (weight, end offset)

  static constexpr uint64_t kExactLimit = uint64_t{1} << 53;

  /// Round 0 runs at 1/p = 1 with one leaf per chunk (RoundParams{}).
  explicit RankAggregate(int num_sites)
      : sites_(static_cast<size_t>(num_sites)) {}

  /// Opens the next round: freezes every open instance. Later frames open
  /// instances at `inv_p` with `num_leaves` leaves per chunk, whose tree
  /// levels in `skipped_levels` (bit l) ship no node.
  void BeginRound(double inv_p, uint32_t num_leaves, uint64_t skipped_levels) {
    for (Site& site : sites_) Freeze(&site);
    round_inv_p_.push_back(inv_p);
    num_leaves_ = num_leaves;
    skipped_levels_ = skipped_levels;
  }

  /// Node summary [first_leaf, end_leaf) shipped by `site`, in the wire
  /// format: `values` ascending within each segment, segment ends relative
  /// to `values`. Drops the open instance's tail samples of the leaves it
  /// covers; the summary ending at the chunk's last leaf freezes the
  /// instance. False, and no change, if the summary is malformed or would
  /// take the site's weight to 2^53.
  bool Summary(int site, uint64_t first_leaf, uint64_t end_leaf,
               const uint64_t* values, size_t num_values,
               const Segment* segments, size_t num_segments) {
    if (first_leaf >= end_leaf || end_leaf > num_leaves_ ||
        IsSkippedNode(first_leaf, end_leaf)) {
      return false;
    }
    uint64_t weight = 0;
    uint32_t begin = 0;
    for (size_t i = 0; i < num_segments; ++i) {
      const auto [w, end] = segments[i];
      if (end < begin || end > num_values) return false;
      // Order check without a branch per value: bit 63 of each term is
      // the borrow of values[j] - values[j - 1], set iff the pair is
      // inverted (Hacker's Delight 2-13). Plain 64-bit logic, so the
      // loop vectorizes; the segment is tested once at its end.
      uint64_t borrows = 0;
      for (size_t j = size_t{begin} + 1; j < end; ++j) {
        const uint64_t x = values[j];
        const uint64_t y = values[j - 1];
        borrows |= (~x & y) | (~(x ^ y) & (x - y));
      }
      if (borrows >> 63 != 0) return false;
      // Every partial sum stays below 2^53, so the headroom never wraps;
      // the product is checked for 64-bit overflow in the same step.
      uint64_t segment_weight;
      if (__builtin_mul_overflow(w, uint64_t{end - begin}, &segment_weight) ||
          segment_weight > kExactLimit - 1 - weight) {
        return false;
      }
      weight += segment_weight;
      begin = end;
    }
    if (begin != num_values) return false;
    Site& s = sites_[static_cast<size_t>(site)];
    // The entries this node supersedes sit on top of the stack.
    size_t keep = s.cover.size();
    uint64_t kept_weight = s.cover_weight;
    while (keep > 0 && s.cover[keep - 1].first_leaf >= first_leaf) {
      --keep;
      kept_weight -= s.cover[keep].weight;
    }
    if (weight >= kExactLimit - s.frozen_weight - kept_weight) return false;
    if (keep < s.cover.size()) {
      s.values.resize(s.cover[keep].values_begin);
      s.segments.resize(s.cover[keep].segments_begin);
      s.cover.resize(keep);
    }
    s.cover.push_back(Entry{static_cast<uint32_t>(first_leaf),
                            static_cast<uint32_t>(end_leaf), s.values.size(),
                            s.segments.size(), weight});
    s.values.insert(s.values.end(), values, values + num_values);
    s.segments.insert(s.segments.end(), segments, segments + num_segments);
    s.cover_weight = kept_weight + weight;
    MergeSkippedParents(&s);
    while (s.residual_begin < s.residuals.size() &&
           s.residuals[s.residual_begin].leaf < end_leaf) {
      ++s.residual_begin;
    }
    if (end_leaf == num_leaves_) Freeze(&s);
    return true;
  }

  /// One tail-channel sample of `site`'s in-progress leaf `leaf`.
  void Residual(int site, uint64_t leaf, uint64_t value) {
    sites_[static_cast<size_t>(site)].residuals.push_back(
        ResidualSample{leaf, value});
  }

  double Estimate(uint64_t x) const {
    std::vector<uint64_t> below(round_inv_p_.size(), 0);
    double est = static_cast<double>(Probe(x, below.data()));
    for (size_t r = 0; r < below.size(); ++r) {
      est += static_cast<double>(below[r]) * round_inv_p_[r];
    }
    return est;
  }

  /// The exact integer part I of Estimate(x): the summary weight below x.
  uint64_t SummaryWeightBelow(uint64_t x) const {
    std::vector<uint64_t> below(round_inv_p_.size(), 0);
    return Probe(x, below.data());
  }

 private:
  struct Entry {
    uint32_t first_leaf;
    uint32_t end_leaf;
    size_t values_begin;
    size_t segments_begin;
    uint64_t weight;
  };

  struct ResidualSample {
    uint64_t leaf;
    uint64_t value;
  };

  struct FrozenInstance {
    // run[0, m): distinct values, ascending; run[m + j]: the weight of the
    // values <= run[j].
    summaries::ValueBuffer run;
    std::vector<uint64_t> residuals;  // ascending
    size_t round = 0;
  };

  struct Site {
    // The open instance: cover stack over the values/segments arena, and
    // the tail samples from residual_begin on.
    std::vector<Entry> cover;
    std::vector<uint64_t> values;
    std::vector<Segment> segments;
    uint64_t cover_weight = 0;
    std::vector<ResidualSample> residuals;
    size_t residual_begin = 0;
    std::vector<FrozenInstance> frozen;
    uint64_t frozen_weight = 0;
  };

  // True iff [first, end) is the range of a node of a skipped level. Its
  // lowest level l = ceil(log2(end - first)) must have `first` aligned to
  // 2^l and end at first + 2^l, or clamped at the chunk's last leaf.
  bool IsSkippedNode(uint64_t first, uint64_t end) const {
    const uint64_t span = end - first;
    const int level = span <= 1 ? 0 : 64 - __builtin_clzll(span - 1);
    if (((skipped_levels_ >> level) & 1) == 0) return false;
    const uint64_t size = uint64_t{1} << level;
    return first % size == 0 && (span == size || end == num_leaves_);
  }

  // While the top two cover entries are exact sibling nodes whose parent
  // level is skipped, replaces them with that parent: their values merged
  // in place as one weight-1 segment.
  void MergeSkippedParents(Site* s) {
    while (s->cover.size() >= 2) {
      Entry& left = s->cover[s->cover.size() - 2];
      const Entry& right = s->cover.back();
      const uint64_t span = right.end_leaf - right.first_leaf;
      if (left.end_leaf != right.first_leaf ||
          left.end_leaf - left.first_leaf != span ||
          (span & (span - 1)) != 0 || left.first_leaf % (2 * span) != 0 ||
          ((skipped_levels_ >> (__builtin_ctzll(span) + 1)) & 1) == 0) {
        return;
      }
      // Exact: one segment each, of weight 1.
      if (right.segments_begin != left.segments_begin + 1 ||
          s->segments.size() != right.segments_begin + 1 ||
          s->segments[left.segments_begin].first != 1 ||
          s->segments.back().first != 1) {
        return;
      }
      const size_t num_left = right.values_begin - left.values_begin;
      const size_t num_right = s->values.size() - right.values_begin;
      uint64_t* out = s->values.data() + left.values_begin;
      merge_scratch_.assign(s->values.begin() + right.values_begin,
                            s->values.end());
      MergeSorted(out, num_left, merge_scratch_.data(), num_right, out);
      s->segments[left.segments_begin].second =
          static_cast<uint32_t>(num_left + num_right);
      s->segments.pop_back();
      left.end_leaf = right.end_leaf;
      left.weight += right.weight;
      s->cover.pop_back();
    }
  }

  // One past the last segment of cover entry `c`.
  static size_t SegmentsEnd(const Site& s, size_t c) {
    return c + 1 < s.cover.size() ? s.cover[c + 1].segments_begin
                                  : s.segments.size();
  }

  // Merges the open cover into one run, keeps the live samples, and
  // empties the arena for the site's next instance.
  void Freeze(Site* s) {
    if (s->cover.empty() && s->residual_begin == s->residuals.size()) {
      s->residuals.clear();
      s->residual_begin = 0;
      return;
    }
    FrozenInstance f;
    f.round = round_inv_p_.size() - 1;
    // (value, weight) items, one sorted run per segment; runs merge
    // pairwise, then equal values fold into one prefix step.
    std::vector<std::pair<uint64_t, uint64_t>> items, merged;
    items.reserve(s->values.size());
    std::vector<size_t> bounds = {0};
    for (size_t c = 0; c < s->cover.size(); ++c) {
      const uint64_t* base = s->values.data() + s->cover[c].values_begin;
      uint32_t begin = 0;
      for (size_t i = s->cover[c].segments_begin; i < SegmentsEnd(*s, c);
           ++i) {
        const auto [w, end] = s->segments[i];
        for (uint32_t j = begin; j < end; ++j) items.emplace_back(base[j], w);
        if (end > begin) bounds.push_back(items.size());
        begin = end;
      }
    }
    auto by_value = [](const std::pair<uint64_t, uint64_t>& a,
                       const std::pair<uint64_t, uint64_t>& b) {
      return a.first < b.first;
    };
    while (bounds.size() > 2) {
      merged.resize(items.size());
      std::vector<size_t> next = {0};
      for (size_t i = 0; i + 1 < bounds.size(); i += 2) {
        size_t mid = bounds[i + 1];
        size_t end = i + 2 < bounds.size() ? bounds[i + 2] : mid;
        std::merge(items.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                   items.begin() + static_cast<std::ptrdiff_t>(mid),
                   items.begin() + static_cast<std::ptrdiff_t>(mid),
                   items.begin() + static_cast<std::ptrdiff_t>(end),
                   merged.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                   by_value);
        next.push_back(end);
      }
      items.swap(merged);
      bounds.swap(next);
    }
    size_t m = 0;
    for (size_t i = 0; i < items.size(); ++i) {
      m += i + 1 == items.size() || items[i + 1].first != items[i].first;
    }
    f.run.resize(2 * m);
    uint64_t total = 0;
    for (size_t i = 0, j = 0; i < items.size(); ++i) {
      total += items[i].second;
      if (i + 1 == items.size() || items[i + 1].first != items[i].first) {
        f.run[j] = items[i].first;
        f.run[m + j] = total;
        ++j;
      }
    }
    for (size_t i = s->residual_begin; i < s->residuals.size(); ++i) {
      f.residuals.push_back(s->residuals[i].value);
    }
    std::sort(f.residuals.begin(), f.residuals.end());
    s->frozen.push_back(std::move(f));
    s->frozen_weight += s->cover_weight;
    s->cover.clear();
    s->values.clear();
    s->segments.clear();
    s->cover_weight = 0;
    s->residuals.clear();
    s->residual_begin = 0;
  }

  // Adds each round's tail samples below x to below[round] and returns the
  // summary weight below x.
  uint64_t Probe(uint64_t x, uint64_t* below) const {
    uint64_t exact = 0;
    const size_t current = round_inv_p_.size() - 1;
    for (const Site& s : sites_) {
      for (const FrozenInstance& f : s.frozen) {
        const size_t m = f.run.size() / 2;
        const uint64_t* values = f.run.data();
        size_t j = static_cast<size_t>(
            std::lower_bound(values, values + m, x) - values);
        if (j > 0) exact += values[m + j - 1];
        if (f.residuals.empty()) continue;
        below[f.round] += static_cast<uint64_t>(
            std::lower_bound(f.residuals.begin(), f.residuals.end(), x) -
            f.residuals.begin());
      }
      for (size_t c = 0; c < s.cover.size(); ++c) {
        const uint64_t* base = s.values.data() + s.cover[c].values_begin;
        uint32_t begin = 0;
        for (size_t i = s.cover[c].segments_begin; i < SegmentsEnd(s, c);
             ++i) {
          const auto [w, end] = s.segments[i];
          exact += w * static_cast<uint64_t>(
                           std::lower_bound(base + begin, base + end, x) -
                           (base + begin));
          begin = end;
        }
      }
      for (size_t i = s.residual_begin; i < s.residuals.size(); ++i) {
        below[current] += s.residuals[i].value < x ? 1 : 0;
      }
    }
    return exact;
  }

  std::vector<Site> sites_;
  std::vector<double> round_inv_p_ = {1.0};  // by round, from round 0
  uint32_t num_leaves_ = 1;  // leaves per chunk in the current round
  uint64_t skipped_levels_ = 0;  // the current round's, as RoundParams
  // The right-hand entry of a sibling merge (MergeSorted writes over it).
  summaries::ValueBuffer merge_scratch_;
};

}  // namespace rank
}  // namespace disttrack

#endif  // DISTTRACK_RANK_RANK_AGGREGATE_H_
