// The coordinator half of the §4 rank tracker, shared by the tracker and
// its replica (sim/replica.h).
//
// Each site runs one instance of algorithm C at a time. The coordinator
// answers rank(x) per instance from the maximal dyadic cover of the
// instance's completed leaves plus the tail samples of its in-progress
// leaf, scaled by the instance's round's 1/p.
//
// Rounds. Every frame carries the round its site was in when it sent it
// (the wire header's epoch), and the aggregate files it under that round,
// which may be older than the current one: in freerun mode a site keeps
// streaming the rest of its grant after another site's report opened
// the next round (service/options.h).
//
// Open instances (at most one per site, of the round of its site's last
// tree frame). The cover is a stack in a per-site arena that is reused
// from instance to instance. Nodes ship in leaf order and a node
// contains every node shipped before it inside its range, so a shipped
// node [s, e) truncates the entries with first_leaf >= s and is then
// appended. Superseded summaries are never kept.
//
// Frozen instances. An instance freezes when the top node's summary,
// which covers its whole chunk, arrives, or when its site's next tree
// frame is of another round (a round change cut the instance short).
// Its cover entries are then merged once into one immutable run of
// distinct values with prefix weights, so a probe is one binary search,
// and its live tail samples are kept sorted and tagged with their round.
//
// Forwarded values. A forward round (RoundParams::forward) opens no
// instance: its sites forward every arrival, an exact count of weight 1
// whatever its round or site. Forwards append to one unsorted buffer,
// which FoldForwards sorts into a run of distinct values with prefix
// weights (the frozen runs' form, so a repeated value costs no memory)
// and merges binary-counter style into the runs before it: a probe is
// one binary search per run, O(log n) runs. A fold runs every
// kFoldForwards (64Ki) forwards and before a read; the larger the fold,
// the fewer merge levels each forwarded value passes through. The buffer
// and its sort scratch live only through forward rounds: the first tree
// round after them folds what is pending and releases both.
//
// Estimate. rank(x) = I + Σ_r below_r · inv_p_r, where I counts the
// summary weights and forwarded values below x (an exact integer) and
// below_r counts the tail samples of round r below x; the residual terms
// are added to double(I) in round order. Every term is independent of
// the order in which the sites' frames were applied, so any host fed the
// same per-site frame sequences (per-site FIFO, rounds opened at the same
// points) answers bit for bit the same.
//
// Exactness precondition: each site's summary weight, and the forwarded
// count, stay below 2^53. A summary that would break it is refused, as is
// a malformed one (segment ends decreasing or past the values, values out
// of order within a segment, first_leaf >= end_leaf, end_leaf past the
// round's leaves). So are a frame of a round not yet opened, a summary or
// tail sample of a forward round and a forward of a tree round, which no
// site sends. The refusing call returns false and changes no estimate.

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

/// Round parameters of §4 for a round whose broadcast carried n̄, which
/// the site and coordinator halves each derive from n̄
/// (RandomizedRankOptions::RoundParamsFor, randomized_rank.h).
struct RoundParams {
  double inv_p = 1.0;       // 1/p = max(1, εn̄/(c√k)), not rounded
  uint64_t chunk_size = 1;  // n̄/k: arrivals per instance of algorithm C
  uint64_t block_size = 1;  // leaf size b = min(⌊1/p⌋, chunk_size)
  uint32_t num_leaves = 1;  // ⌈chunk_size / b⌉
  int height = 0;           // ⌈log2 num_leaves⌉
  // The round forwards every arrival (kRankForward, 1 word) and builds
  // no tree: set when the tree's predicted words per arrival,
  // Σ_ℓ (min(w_ℓ, cap_ℓ) + 2)/w_ℓ + 2/inv_p over levels ℓ = 0..h with
  // node window w_ℓ = min(b·2^ℓ, chunk_size) and compactor capacity
  // cap_ℓ, are at least 1. Round 0 (RoundParams{}, = RoundParamsFor(0))
  // forwards.
  bool forward = true;
};

class RankAggregate {
 public:
  using Segment = std::pair<uint64_t, uint32_t>;  // (weight, end offset)

  static constexpr uint64_t kExactLimit = uint64_t{1} << 53;

  /// Forwards folded into a run at a time. Each doubling of the fold
  /// spares every forwarded value about one merge level: the merges of a
  /// 2^20-value forward stream read 3.4 values per forward at 64Ki and
  /// 6.2 at 8Ki (work().merged_values). The unsorted buffer and its sort
  /// scratch, about 1 MiB together when full, are released when a tree
  /// round opens, so they hold memory only while rounds forward.
  static constexpr size_t kFoldForwards = 65536;

  /// Work of the forward folds since construction.
  struct FoldWork {
    uint64_t folds = 0;          // runs sorted from the pending buffer
    uint64_t pair_merges = 0;    // merges of two adjacent runs
    uint64_t merged_values = 0;  // values those merges read (both inputs)
  };

  explicit RankAggregate(int num_sites)
      : sites_(static_cast<size_t>(num_sites)) {}

  /// Opens the next round: its frames are forwards if it `forward`s,
  /// and otherwise instances at its 1/p with its leaves per chunk. A tree
  /// round folds the pending forwards and releases the fold's buffers,
  /// which regrow if a later round forwards.
  void BeginRound(const RoundParams& round) {
    rounds_.push_back(round);
    if (round.forward) return;
    FoldForwards();
    pending_ = summaries::ValueBuffer();
    sort_scratch_ = std::vector<uint64_t>();
  }

  /// Node summary [first_leaf, end_leaf) shipped by `site` in `round`, in
  /// the wire format: `values` ascending within each segment, segment
  /// ends relative to `values`. Drops the open instance's tail samples of
  /// the leaves it covers; the summary ending at the chunk's last leaf
  /// (the top node's) freezes the instance. False, and no change, if
  /// `round` is not an open tree round, or if the summary is malformed or
  /// would take the site's weight to 2^53.
  bool Summary(int site, uint64_t round, uint64_t first_leaf,
               uint64_t end_leaf, const uint64_t* values, size_t num_values,
               const Segment* segments, size_t num_segments) {
    if (!RoundIs(round, false) || first_leaf >= end_leaf ||
        end_leaf > rounds_[round].num_leaves) {
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
    // A node of another round opens the site's next instance.
    if (round != s.round) Freeze(&s, round);
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
    while (s.residual_begin < s.residuals.size() &&
           s.residuals[s.residual_begin].leaf < end_leaf) {
      ++s.residual_begin;
    }
    if (end_leaf == rounds_[round].num_leaves) Freeze(&s, round);
    return true;
  }

  /// One tail-channel sample of `site`'s in-progress leaf `leaf` in
  /// `round`. False, and no change, if `round` is not an open tree round.
  bool Residual(int site, uint64_t round, uint64_t leaf, uint64_t value) {
    if (!RoundIs(round, false)) return false;
    Site& s = sites_[static_cast<size_t>(site)];
    if (round != s.round) Freeze(&s, round);
    s.residuals.push_back(ResidualSample{leaf, value});
    return true;
  }

  /// `n` values forwarded in `round`. False, and no change, if `round` is
  /// not an open forward round or if the forwarded count would reach
  /// 2^53.
  bool Forwards(uint64_t round, const uint64_t* values, size_t n) {
    if (!RoundIs(round, true) || n >= kExactLimit - forwarded_) return false;
    pending_.insert(pending_.end(), values, values + n);
    forwarded_ += n;
    if (pending_.size() >= kFoldForwards) FoldForwards();
    return true;
  }

  double Estimate(uint64_t x) const {
    tail_below_.assign(rounds_.size(), 0);
    double est = static_cast<double>(Probe(x, tail_below_.data()));
    for (size_t r = 0; r < tail_below_.size(); ++r) {
      est += static_cast<double>(tail_below_[r]) * rounds_[r].inv_p;
    }
    return est;
  }

  /// The exact integer part I of Estimate(x): the summary weight and the
  /// forwarded values below x.
  uint64_t SummaryWeightBelow(uint64_t x) const { return Probe(x, nullptr); }

  const FoldWork& work() const { return work_; }

 private:
  // Distinct values, ascending, with prefix weights: below[0] = 0 and
  // below[j + 1] the weight of the values <= values[j]. Made by MakeRun
  // and Merge only, so `below` is never empty.
  struct Run {
    summaries::ValueBuffer values;
    summaries::ValueBuffer below;

    uint64_t WeightBelow(uint64_t x) const {
      return below[static_cast<size_t>(
          std::lower_bound(values.begin(), values.end(), x) -
          values.begin())];
    }
  };

  // The run of ascending v[0, n), each of weight w.
  static Run MakeRun(const uint64_t* v, size_t n, uint64_t w) {
    size_t m = 0;
    for (size_t j = 0; j < n; ++j) m += j + 1 == n || v[j + 1] != v[j];
    Run run;
    run.values.resize(m);
    run.below.resize(m + 1);
    run.below[0] = 0;
    for (size_t j = 0, k = 0; j < n; ++j) {
      if (j + 1 < n && v[j + 1] == v[j]) continue;
      run.values[k] = v[j];
      run.below[++k] = (j + 1) * w;
    }
    return run;
  }

  // The union of runs x and y, equal values folded into one, sized
  // exactly (a first pass counts the values both hold). Branch-free: each
  // step takes the smaller head, or both when equal.
  static Run Merge(const Run& x, const Run& y) {
    const size_t nx = x.values.size(), ny = y.values.size();
    const uint64_t* xv = x.values.data();
    const uint64_t* xb = x.below.data();
    const uint64_t* yv = y.values.data();
    const uint64_t* yb = y.below.data();
    size_t common = 0;
    for (size_t i = 0, j = 0; i < nx && j < ny;) {
      const uint64_t a = xv[i], b = yv[j];
      common += a == b;
      i += a <= b;
      j += b <= a;
    }
    Run out;
    out.values.resize(nx + ny - common);
    out.below.resize(nx + ny - common + 1);
    uint64_t* values = out.values.data();
    uint64_t* below = out.below.data();
    below[0] = 0;
    size_t i = 0, j = 0, m = 0;
    while (i < nx && j < ny) {
      const uint64_t a = xv[i], b = yv[j];
      values[m] = a < b ? a : b;
      i += a <= b;
      j += b <= a;
      below[++m] = xb[i] + yb[j];
    }
    for (; i < nx; ++i) {
      values[m] = xv[i];
      below[++m] = xb[i + 1] + yb[ny];
    }
    for (; j < ny; ++j) {
      values[m] = yv[j];
      below[++m] = xb[nx] + yb[j + 1];
    }
    return out;
  }

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
    Run run;
    std::vector<uint64_t> residuals;  // ascending
    uint64_t round = 0;
  };

  struct Site {
    // The open instance of round `round`: cover stack over the
    // values/segments arena, and the tail samples from residual_begin on.
    uint64_t round = 0;
    std::vector<Entry> cover;
    std::vector<uint64_t> values;
    std::vector<Segment> segments;
    uint64_t cover_weight = 0;
    std::vector<ResidualSample> residuals;
    size_t residual_begin = 0;
    std::vector<FrozenInstance> frozen;
    uint64_t frozen_weight = 0;
  };

  // Round `round` is open, and forwards iff `forward`.
  bool RoundIs(uint64_t round, bool forward) const {
    return round < rounds_.size() && rounds_[round].forward == forward;
  }

  // Sorts the forwards since the last fold into a run of their own and
  // merges the runs binary-counter style.
  void FoldForwards() const {
    if (pending_.empty()) return;
    SortRun(pending_.data(), pending_.size(), &sort_scratch_);
    std::vector<Run>& runs = forwarded_runs_;
    runs.push_back(MakeRun(pending_.data(), pending_.size(), 1));
    pending_.clear();
    ++work_.folds;
    // A run merges into the one below it while it is at least half that
    // one's size, so sizes halve up the stack and a value is merged
    // O(log n) times.
    while (runs.size() >= 2 && 2 * runs.back().values.size() >=
                                   runs[runs.size() - 2].values.size()) {
      Run& under = runs[runs.size() - 2];
      ++work_.pair_merges;
      work_.merged_values += under.values.size() + runs.back().values.size();
      under = Merge(under, runs.back());
      runs.pop_back();
    }
  }

  // One past the last segment of cover entry `c`.
  static size_t SegmentsEnd(const Site& s, size_t c) {
    return c + 1 < s.cover.size() ? s.cover[c + 1].segments_begin
                                  : s.segments.size();
  }

  // Merges the open cover into one run, keeps the live samples, and
  // empties the arena for the site's next instance, of `next_round`.
  void Freeze(Site* s, uint64_t next_round) {
    const uint64_t round = std::exchange(s->round, next_round);
    if (!s->cover.empty() || s->residual_begin < s->residuals.size()) {
      FrozenInstance f;
      f.round = round;
      // One run per segment, merged pairwise.
      std::vector<Run> runs;
      for (size_t c = 0; c < s->cover.size(); ++c) {
        const uint64_t* base = s->values.data() + s->cover[c].values_begin;
        uint32_t begin = 0;
        for (size_t i = s->cover[c].segments_begin; i < SegmentsEnd(*s, c);
             ++i) {
          const auto [w, end] = s->segments[i];
          runs.push_back(MakeRun(base + begin, end - begin, w));
          begin = end;
        }
      }
      for (size_t width = 1; width < runs.size(); width *= 2) {
        for (size_t r = 0; r + width < runs.size(); r += 2 * width) {
          runs[r] = Merge(runs[r], runs[r + width]);
        }
      }
      f.run = runs.empty() ? MakeRun(nullptr, 0, 0) : std::move(runs[0]);
      for (size_t i = s->residual_begin; i < s->residuals.size(); ++i) {
        f.residuals.push_back(s->residuals[i].value);
      }
      std::sort(f.residuals.begin(), f.residuals.end());
      s->frozen.push_back(std::move(f));
      s->frozen_weight += s->cover_weight;
    }
    s->cover.clear();
    s->values.clear();
    s->segments.clear();
    s->cover_weight = 0;
    s->residuals.clear();
    s->residual_begin = 0;
  }

  // Returns the summary weight and forwarded values below x and, unless
  // `below` is null, adds each round's tail samples below x to
  // below[round].
  uint64_t Probe(uint64_t x, uint64_t* below) const {
    FoldForwards();
    uint64_t exact = 0;
    for (const Run& run : forwarded_runs_) exact += run.WeightBelow(x);
    for (const Site& s : sites_) {
      for (const FrozenInstance& f : s.frozen) {
        exact += f.run.WeightBelow(x);
        if (below == nullptr || f.residuals.empty()) continue;
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
      if (below == nullptr) continue;
      for (size_t i = s.residual_begin; i < s.residuals.size(); ++i) {
        below[s.round] += s.residuals[i].value < x ? 1 : 0;
      }
    }
    return exact;
  }

  std::vector<Site> sites_;
  // By round, from round 0 (RoundParams{}).
  std::vector<RoundParams> rounds_ = std::vector<RoundParams>(1);
  // Forwarded values: the folded runs, each under half the size of the
  // one before it, and the forwards not yet folded (reads fold them,
  // hence mutable). forwarded_ counts them all.
  uint64_t forwarded_ = 0;
  mutable std::vector<Run> forwarded_runs_;
  mutable summaries::ValueBuffer pending_;
  mutable std::vector<uint64_t> sort_scratch_;
  mutable FoldWork work_;
  // Estimate's tail counts by round, reused from read to read.
  mutable std::vector<uint64_t> tail_below_;
};

}  // namespace rank
}  // namespace disttrack

#endif  // DISTTRACK_RANK_RANK_AGGREGATE_H_
