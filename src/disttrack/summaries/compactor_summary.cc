#include "disttrack/summaries/compactor_summary.h"

#include <algorithm>
#include <cmath>

#include "disttrack/common/small_sort.h"

namespace disttrack {
namespace summaries {

size_t CompactorCapacity(double eps) {
  if (eps <= 0) eps = 1e-9;
  double raw = std::ceil(2.0 / eps);
  auto s = static_cast<size_t>(std::min(raw, 1e9));
  if (s < 2) s = 2;
  if (s % 2 == 1) ++s;
  return s;
}

namespace {

// Accessors for the virtual-cascade get contract: At(i) is element i of
// a fully sorted logical sequence, and Gather(offset, stride, count,
// out) materializes the strided slice the cascade keeps.

// A bare sorted array.
struct DirectGet {
  const uint64_t* d;
  uint64_t At(size_t i) const { return d[i]; }
  void Gather(size_t offset, size_t stride, size_t count,
              uint64_t* out) const {
    for (size_t i = 0; i < count; ++i) out[i] = d[offset + i * stride];
  }
};

// Splices one residue value `v` in at logical position `p` of a sorted
// array — the level-0 straggler a virtual cascade must still account for.
struct ResidueGet {
  DirectGet inner;
  size_t p;
  uint64_t v;
  uint64_t At(size_t i) const {
    return i < p ? inner.At(i) : (i == p ? v : inner.At(i - 1));
  }
  void Gather(size_t offset, size_t stride, size_t count,
              uint64_t* out) const {
    // Gathered indices are strictly increasing, so they split at p: a
    // prefix below it, at most one hit, and a shifted suffix above —
    // each side stays one strided inner gather.
    size_t below = 0;
    if (offset < p) {
      below = std::min(count, (p - offset + stride - 1) / stride);
    }
    if (below > 0) inner.Gather(offset, stride, below, out);
    size_t i = below;
    if (i < count && offset + i * stride == p) {
      out[i] = v;
      ++i;
    }
    if (i < count) {
      inner.Gather(offset + i * stride - 1, stride, count - i, out + i);
    }
  }
};

}  // namespace

CompactorSummary::CompactorSummary(double eps, uint64_t seed)
    : eps_(eps), capacity_(CompactorCapacity(eps)), rng_(seed) {
  levels_.emplace_back();
  sorted_.push_back(0);
  seg_bounds_.emplace_back();
  seg_dirty_.push_back(0);
}

void CompactorSummary::Insert(uint64_t value) {
  ++m_;
  auto& base = levels_[0];
  size_t old = base.size();
  base.push_back(value);  // staging tail; consolidated lazily
  NoteAscendingAppend(0, old);
  if (base.size() >= capacity_) Cascade();
}

void CompactorSummary::InsertBatch(const uint64_t* values, size_t count) {
  if (count == 0) return;
  m_ += count;
  auto& base = levels_[0];
  size_t old = base.size();
  base.insert(base.end(), values, values + count);
  if (count == 1) {
    NoteAscendingAppend(0, old);
  } else {
    seg_dirty_[0] = 1;  // unordered contract; consolidation re-scans
  }
  if (base.size() >= capacity_) Cascade();
}

void CompactorSummary::InsertSortedBatch(const uint64_t* values,
                                         size_t count) {
  if (count == 0) return;
  m_ += count;
  auto& base = levels_[0];
  size_t old = base.size();
  base.insert(base.end(), values, values + count);
  NoteAscendingAppend(0, old);
  if (base.size() >= capacity_) Cascade();
}

void CompactorSummary::InsertSortedWindow(RunView window) {
  const uint64_t* d = window.data;
  const size_t total = window.size;
  const size_t base_size = levels_[0].size();
  if (base_size > 1 || base_size + total < capacity_) {
    // Not a compaction on a bare residue: stage the window like any
    // sorted batch (the rank tracker's pulls never take this branch).
    InsertSortedBatch(d, total);
    return;
  }
  // Zero-copy ingest: the window lands on a bare straggler and reaches
  // the compaction threshold, so cascade virtually straight from the
  // borrowed storage instead of materializing it in the level-0 buffer.
  m_ += total;
  bool continue_normal;
  if (base_size == 0) {
    continue_normal = CascadeVirtual(DirectGet{d}, total);
  } else {
    uint64_t v = levels_[0][0];
    size_t p = static_cast<size_t>(std::lower_bound(d, d + total, v) - d);
    continue_normal = CascadeVirtual(ResidueGet{DirectGet{d}, p, v}, total + 1);
  }
  // Re-derive level 0 from the recorded stragglers — CascadeVirtual may
  // have grown the hierarchy, and the accessor read the old level-0
  // content until the cascade finished.
  auto& base = levels_[0];
  base.clear();
  for (const auto& [lvl, value] : straggler_scratch_) {
    if (lvl == 0) base.push_back(value);
  }
  sorted_[0] = base.size();
  seg_bounds_[0].clear();
  seg_dirty_[0] = 0;
  if (continue_normal) Cascade();
}

uint64_t CompactorSummary::InsertWindowAndExport(
    RunView window, ValueBuffer* values,
    std::vector<std::pair<uint64_t, uint32_t>>* segments) {
  values->clear();
  segments->clear();
  const size_t total = window.size;
  bool fused = false;
  if (total > 0) {
    if (levels_[0].size() + total >= capacity_) {
      // Over-threshold window: the ordinary ingest (virtual cascade)
      // compacts it down; the export below then copies only the
      // survivors.
      InsertSortedWindow(window);
    } else {
      // Sub-threshold final window: count it in and export level 0
      // straight from residue + borrowed window below. levels_[0] itself
      // never materializes the window — legal only because the caller
      // retires the summary right after the flush (see the header).
      m_ += total;
      EnsureSorted(0);
      fused = true;
    }
  }
  size_t items = 0;
  for (const auto& buf : levels_) items += buf.size();
  if (fused) items += total;
  values->reserve(items);
  if (fused) {
    // One merge pass of residue and window straight into the wire buffer.
    const auto& base = levels_[0];
    values->resize(base.size() + total);
    MergeSorted(base.data(), base.size(), window.data, total, values->data());
    segments->emplace_back(1, static_cast<uint32_t>(values->size()));
  } else if (!levels_[0].empty()) {
    EnsureSorted(0);
    values->insert(values->end(), levels_[0].begin(), levels_[0].end());
    segments->emplace_back(1, static_cast<uint32_t>(values->size()));
  }
  size_t used = LevelsUsed();
  for (size_t level = 1; level < used; ++level) {
    if (levels_[level].empty()) continue;
    EnsureSorted(level);
    values->insert(values->end(), levels_[level].begin(),
                   levels_[level].end());
    segments->emplace_back(uint64_t{1} << level,
                           static_cast<uint32_t>(values->size()));
  }
  // Identical to SerializedWords() after a separate ingest: one word per
  // stored item plus one length header per level in use plus one.
  return static_cast<uint64_t>(items) + used + 1;
}

// The virtual-cascade core. `get` is one of the accessors above:
// get.At(i) indexes a fully sorted sequence of `len` >= capacity
// elements that logically sits in level 0, and get.Gather materializes
// strided slices of it in bulk. Compacting it the element-moving way
// would sort-promote-merge its way up level by level, yet while the
// upper levels are empty the composition of those stride-2 promotions
// is itself a strided slice of the sorted sequence:
// promoting with offset coin c_j at virtual level j keeps exactly
// get(offset + i * 2^(j+1)) with the offset accumulating c_j * 2^j. So
// descend virtually — drawing the same per-level coins the real cascade
// would draw — and materialize only the survivors: one straggler per odd
// virtual level (recorded in straggler_scratch_; the caller owns writing
// the level-0 one) and the first sub-capacity slice. A nonempty upper
// level ends the virtual phase: the promotion due there is gathered and
// merged, and the caller finishes with the ordinary cascade (signalled by
// returning true) — bit-identical either way, since every step keeps the
// same elements the real cascade keeps.
template <class GetFn>
bool CompactorSummary::CascadeVirtual(GetFn get, size_t len) {
  size_t depth = 0;
  for (size_t l = len; l >= capacity_; l /= 2) ++depth;
  while (levels_.size() < depth + 1) {
    levels_.emplace_back();
    sorted_.push_back(0);
    seg_bounds_.emplace_back();
    seg_dirty_.push_back(0);
  }
  size_t stride = 1;
  size_t offset = 0;
  size_t level = 0;
  straggler_scratch_.clear();
  bool continue_normal = false;
  while (len >= capacity_) {
    size_t take = len & ~size_t{1};
    bool coin = rng_.Bernoulli(0.5);
    if (len > take) {
      // Odd straggler stays behind at this virtual level.
      straggler_scratch_.emplace_back(level,
                                      get.At(offset + (len - 1) * stride));
    }
    size_t promoted = take / 2;
    if (coin) offset += stride;
    stride *= 2;
    len = promoted;
    ++level;
    if (!levels_[level].empty()) {
      // Real content ahead: gather the promotion, merge, and let the
      // ordinary cascade finish from here.
      promote_buf_.resize(promoted);
      get.Gather(offset, stride, promoted, promote_buf_.data());
      EnsureSorted(level);
      auto& up = levels_[level];
      const size_t up_size = up.size();
      up.resize(up_size + promoted);
      MergeSorted(up.data(), up_size, promote_buf_.data(), promoted,
                  up.data());
      sorted_[level] = up.size();
      seg_bounds_[level].clear();
      seg_dirty_[level] = 0;
      continue_normal = true;
      break;
    }
  }
  if (!continue_normal && level > 0) {
    // Materialize the first sub-capacity slice into its (empty) level.
    auto& stop = levels_[level];
    stop.resize(len);
    get.Gather(offset, stride, len, stop.data());
    sorted_[level] = len;
    seg_bounds_[level].clear();
    seg_dirty_[level] = 0;
  }
  // Write the virtualized levels' stragglers (all were empty).
  for (const auto& [lvl, value] : straggler_scratch_) {
    if (lvl == 0) continue;  // caller owns level 0
    levels_[lvl].push_back(value);
    sorted_[lvl] = levels_[lvl].size();
  }
  return continue_normal;
}

void CompactorSummary::Cascade() {
  // One pass: CompactLevel consumes the whole even prefix of a buffer, so
  // a single compaction per level suffices however far past capacity the
  // staged runs (or the promotions from below) pushed it.
  for (size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].size() >= capacity_) CompactLevel(level);
  }
}

void CompactorSummary::NoteAscendingAppend(size_t level, size_t old_size) {
  // Appending at the tail start, or continuing ascending order, extends
  // the previous segment; otherwise a new segment starts at old_size.
  auto& buf = levels_[level];
  if (old_size > sorted_[level] && buf[old_size - 1] > buf[old_size]) {
    seg_bounds_[level].push_back(old_size);
  }
}

void CompactorSummary::EnsureSorted(size_t level) {
  auto& buf = levels_[level];
  if (sorted_[level] < buf.size()) {
    SortTail(&buf, sorted_[level],
             seg_dirty_[level] ? nullptr : &seg_bounds_[level]);
    MergeSortedTail(&buf, sorted_[level]);
    sorted_[level] = buf.size();
  }
  seg_bounds_[level].clear();
  seg_dirty_[level] = 0;
}

void CompactorSummary::SortTail(ValueBuffer* buf, size_t from,
                                const std::vector<size_t>* interior_bounds) {
  size_t len = buf->size() - from;
  uint64_t* tail = buf->data() + from;
  auto& bounds = run_bounds_;
  bounds.clear();
  bounds.push_back(0);
  if (interior_bounds != nullptr) {
    // Boundaries were tracked at append time; no detection scan needed.
    for (size_t b : *interior_bounds) bounds.push_back(b - from);
  } else {
    if (len < 8) {
      // Below run-merge overhead; note even here the tail is usually a
      // couple of sorted runs, which insertion sort handles in ~len moves.
      std::sort(tail, tail + len);
      return;
    }
    // Collect the tail's ascending-run boundaries (relative to the tail).
    for (size_t i = 1; i < len; ++i) {
      if (tail[i] < tail[i - 1]) bounds.push_back(i);
    }
  }
  bounds.push_back(len);
  if (bounds.size() == 2) return;  // single ascending run already
  // Merge adjacent runs pairwise until one remains, ping-ponging between
  // the tail and the scratch buffer — only ~log2(#runs) passes since the
  // staged batch runs arrive sorted.
  GrowScratch(len);
  const uint64_t* merged = MergeRunsPairwise(tail, merge_buf_.data(), &bounds);
  if (merged != tail) std::copy(merged, merged + len, tail);
}

void CompactorSummary::MergeSortedTail(ValueBuffer* buf, size_t mid) {
  if (mid == 0 || mid == buf->size()) return;
  uint64_t* data = buf->data();
  if (data[mid - 1] <= data[mid]) return;  // already in order
  if (mid <= 2) {
    // Tiny prefix — usually the post-compaction straggler: binary-insert
    // each element (one memmove, no comparison pass over the tail).
    for (size_t i = mid; i-- > 0;) {
      uint64_t v = data[i];
      uint64_t* pos = std::upper_bound(data + i + 1, data + buf->size(), v);
      std::move(data + i + 1, pos, data + i);
      *(pos - 1) = v;
    }
    return;
  }
  // The tail moves out to the scratch and merges back in place: the
  // kernel's second input must not overlap its output.
  const size_t tail = buf->size() - mid;
  GrowScratch(tail);
  std::copy(data + mid, data + buf->size(), merge_buf_.data());
  MergeSorted(data, mid, merge_buf_.data(), tail, data);
}

void CompactorSummary::CompactLevel(size_t level) {
  // Grow the hierarchy first: emplace_back may reallocate `levels_`, so no
  // reference into it may be taken before this point.
  if (levels_.size() <= level + 1) {
    levels_.emplace_back();
    sorted_.push_back(0);
    seg_bounds_.emplace_back();
    seg_dirty_.push_back(0);
  }
  EnsureSorted(level);
  auto& buf = levels_[level];
  // Compact an even prefix so total weight is conserved exactly; an odd
  // straggler stays behind for the next compaction. The buffer was just
  // consolidated, so promotion is a stride-2 pass whose output is itself
  // sorted; it merges eagerly with the next level's content, keeping
  // every level above 0 permanently consolidated — upper-level
  // EnsureSorted/export calls are then no-ops, and a buffer holds at
  // most two promotions' worth before its own compaction, so the eager
  // merge touches each element a bounded number of times with none of
  // the staged-run bookkeeping.
  size_t take = buf.size() & ~size_t{1};
  if (take < 2) return;
  size_t offset = rng_.Bernoulli(0.5) ? 1 : 0;
  size_t promoted = take / 2;
  auto& up = levels_[level + 1];
  if (up.empty()) {
    up.resize(promoted);
    size_t out = 0;
    for (size_t i = offset; i < take; i += 2) up[out++] = buf[i];
  } else {
    EnsureSorted(level + 1);  // no-op except after MergeFrom
    promote_buf_.resize(promoted);
    size_t out = 0;
    for (size_t i = offset; i < take; i += 2) promote_buf_[out++] = buf[i];
    const size_t up_size = up.size();
    up.resize(up_size + promoted);
    MergeSorted(up.data(), up_size, promote_buf_.data(), promoted,
                up.data());
  }
  sorted_[level + 1] = up.size();
  seg_bounds_[level + 1].clear();
  seg_dirty_[level + 1] = 0;
  // Keep any straggler (index >= take; at most one element).
  buf.erase(buf.begin(), buf.begin() + static_cast<long>(take));
  sorted_[level] = buf.size();
}

double CompactorSummary::EstimateRank(uint64_t x) const {
  double rank = 0;
  double weight = 1;
  for (const auto& buf : levels_) {
    uint64_t below = 0;
    for (uint64_t v : buf) {
      if (v < x) ++below;
    }
    rank += weight * static_cast<double>(below);
    weight *= 2;
  }
  return rank;
}

uint64_t CompactorSummary::WeightTotal() const {
  uint64_t total = 0;
  uint64_t weight = 1;
  for (const auto& buf : levels_) {
    total += weight * buf.size();
    weight *= 2;
  }
  return total;
}

uint64_t CompactorSummary::Quantile(double phi) const {
  // A summary can hold only weight-0 (empty) levels — freshly constructed,
  // Clear()ed/Reset()ed, or merged from such summaries (MergeFrom resizes
  // the level vector even when every source buffer is empty). Items() is
  // then empty (stored weights are >= 1): answer 0 without searching any
  // level.
  auto items = Items();
  if (items.empty()) return 0;
  std::sort(items.begin(), items.end());
  phi = std::clamp(phi, 0.0, 1.0);
  double target = phi * static_cast<double>(WeightTotal());
  double acc = 0;
  for (const auto& [value, weight] : items) {
    acc += static_cast<double>(weight);
    if (acc >= target) return value;
  }
  return items.back().first;
}

void CompactorSummary::MergeFrom(const CompactorSummary& other) {
  m_ += other.m_;
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
    sorted_.resize(levels_.size(), 0);
    seg_bounds_.resize(levels_.size());
    seg_dirty_.resize(levels_.size(), 0);
  }
  for (size_t level = 0; level < other.levels_.size(); ++level) {
    auto& dst = levels_[level];
    const auto& src = other.levels_[level];
    // `other`'s buffer lands on our staging tail; whatever run structure
    // it has, the next consolidation's detection scan re-finds it.
    if (!src.empty()) {
      dst.insert(dst.end(), src.begin(), src.end());
      seg_dirty_[level] = 1;
    }
  }
  for (size_t level = 0; level < levels_.size(); ++level) {
    while (levels_[level].size() >= capacity_) {
      size_t before = levels_[level].size();
      CompactLevel(level);
      if (levels_[level].size() == before) break;  // odd straggler only
    }
  }
}

std::vector<std::pair<uint64_t, uint64_t>> CompactorSummary::Items() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  size_t total = 0;
  for (const auto& buf : levels_) total += buf.size();
  out.reserve(total);
  uint64_t weight = 1;
  for (const auto& buf : levels_) {
    for (uint64_t v : buf) out.emplace_back(v, weight);
    weight *= 2;
  }
  return out;
}

size_t CompactorSummary::LevelsUsed() const {
  size_t used = levels_.size();
  while (used > 1 && levels_[used - 1].empty()) --used;
  return used;
}

int CompactorSummary::NumLevels() const {
  return static_cast<int>(LevelsUsed());
}

uint64_t CompactorSummary::SerializedWords() const {
  uint64_t items = 0;
  for (const auto& buf : levels_) items += buf.size();
  return items + LevelsUsed() + 1;
}

uint64_t CompactorSummary::SpaceWords() const {
  uint64_t words = 2;
  size_t used = LevelsUsed();
  for (size_t level = 0; level < used; ++level) {
    words += levels_[level].size() + 1;
  }
  return words;
}

void CompactorSummary::Clear() {
  levels_.clear();
  levels_.emplace_back();
  sorted_.assign(1, 0);
  seg_bounds_.assign(1, {});
  seg_dirty_.assign(1, 0);
  m_ = 0;
}

uint64_t CompactSortedWindowToWire(
    size_t capacity, uint64_t seed, RunView window, ValueBuffer* values,
    std::vector<std::pair<uint64_t, uint32_t>>* segments) {
  size_t before = values->size();
  size_t len = window.size;
  if (len < capacity) {
    // Sub-capacity window: one weight-1 segment, no compaction coins —
    // exactly the fused sub-threshold export of InsertWindowAndExport on
    // a fresh summary.
    values->insert(values->end(), window.data, window.data + len);
    if (len > 0) {
      segments->emplace_back(1, static_cast<uint32_t>(values->size()));
    }
    return static_cast<uint64_t>(len) + 2;
  }
  // The virtual cascade of a fresh summary: every upper level is empty,
  // so the descent runs to the first sub-capacity slice, materializing
  // one odd straggler per virtualized level. Same coins, same kept
  // elements as CompactorSummary::CascadeVirtual.
  const DirectGet get{window.data};
  Rng rng(seed);
  uint64_t straggler[64];
  bool has_straggler[64] = {false};
  size_t stride = 1;
  size_t offset = 0;
  size_t level = 0;
  while (len >= capacity) {
    size_t take = len & ~size_t{1};
    bool coin = rng.Bernoulli(0.5);
    if (len > take) {
      straggler[level] = get.At(offset + (len - 1) * stride);
      has_straggler[level] = true;
    }
    if (coin) offset += stride;
    stride *= 2;
    len = take / 2;
    ++level;
  }
  // Emit ascending levels: stragglers below, the surviving slice at the
  // stop level (which never carries a straggler).
  for (size_t l = 0; l < level; ++l) {
    if (!has_straggler[l]) continue;
    values->push_back(straggler[l]);
    segments->emplace_back(uint64_t{1} << l,
                           static_cast<uint32_t>(values->size()));
  }
  size_t out = values->size();
  values->resize(out + len);
  get.Gather(offset, stride, len, values->data() + out);
  segments->emplace_back(uint64_t{1} << level,
                         static_cast<uint32_t>(values->size()));
  // One word per item plus a length header per level in use plus one —
  // SerializedWords() of the equivalent post-ingest summary.
  return static_cast<uint64_t>(values->size() - before) + (level + 1) + 1;
}

void CompactorSummary::Reset(uint64_t seed) {
  rng_ = Rng(seed);
  m_ = 0;
  // clear() keeps each buffer's heap allocation; trailing (now weight-0)
  // levels are retained and skipped by the accounting helpers.
  for (auto& buf : levels_) buf.clear();
  for (auto& bounds : seg_bounds_) bounds.clear();
  sorted_.assign(levels_.size(), 0);
  seg_dirty_.assign(levels_.size(), 0);
}

}  // namespace summaries
}  // namespace disttrack
