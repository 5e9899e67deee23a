#include "disttrack/summaries/compactor_summary.h"

#include <algorithm>
#include <cmath>

#include "disttrack/common/simd.h"

namespace disttrack {
namespace summaries {

namespace {

// Capacity from eps: s >= 2/eps keeps the martingale variance bound
// 4 m^2 / s^2 below (eps m)^2; force even so compactions conserve weight.
size_t CapacityFor(double eps) {
  if (eps <= 0) eps = 1e-9;
  double raw = std::ceil(2.0 / eps);
  auto s = static_cast<size_t>(std::min(raw, 1e9));
  if (s < 2) s = 2;
  if (s % 2 == 1) ++s;
  return s;
}

// Accessors for the virtual-cascade get contract: At(i) is element i of
// a fully sorted logical sequence, and Gather(offset, stride, count,
// out) materializes the strided slice the cascade keeps; the two-view
// accessor resolves its merge-path selections four at a time through
// simd::TwoViewSelect4. All routes keep the selected values exact, so
// they can never change a tracker estimate (tier A).

// A bare sorted array.
struct DirectGet {
  const uint64_t* d;
  uint64_t At(size_t i) const { return d[i]; }
  void Gather(size_t offset, size_t stride, size_t count,
              uint64_t* out) const {
    for (size_t i = 0; i < count; ++i) out[i] = d[offset + i * stride];
  }
};

// The merge of two ascending arrays, read by sorted position via
// two-array selection (binary-search the split point j — elements taken
// from A among the first i+1 of the merge — O(log min(a, b)) per
// access). Equal values are interchangeable for a value array, so tie
// placement cannot matter.
struct TwoViewGet {
  const uint64_t* A;
  size_t a;
  const uint64_t* B;
  size_t b;
  uint64_t At(size_t i) const { return simd::TwoViewSelect(A, a, B, b, i); }
  void Gather(size_t offset, size_t stride, size_t count,
              uint64_t* out) const {
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      size_t idx[4] = {offset + i * stride, offset + (i + 1) * stride,
                       offset + (i + 2) * stride,
                       offset + (i + 3) * stride};
      simd::TwoViewSelect4(A, a, B, b, idx, out + i);
    }
    for (; i < count; ++i) out[i] = At(offset + i * stride);
  }
};

// Splices one residue value `v` in at logical position `p` of an inner
// sorted sequence — the level-0 straggler a virtual cascade must still
// account for.
template <class Inner>
struct ResidueGet {
  Inner inner;
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
    : eps_(eps), capacity_(CapacityFor(eps)), rng_(seed) {
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

void CompactorSummary::InsertSortedViews(const RunView* views,
                                         size_t num_views, size_t total) {
  if (total == 0) return;
  m_ += total;
  size_t base_size = levels_[0].size();
  // Zero-copy ingest: whenever the window lands on a bare straggler and
  // reaches the compaction threshold, cascade virtually instead of
  // materializing it in the level-0 buffer. One view (the common
  // consolidated pull) and selection-friendly view pairs are read
  // straight from the borrowed ladder storage; other shapes pre-merge
  // the views once into scratch and cascade over that — still a full
  // pass cheaper than merge-into-base + cascade-from-base. The
  // pre-merge is only legal while the descent stays virtual (a nonempty
  // upper level would make CascadeVirtual merge through the same
  // scratch), so that shape falls back to the base path.
  if (base_size <= 1 && base_size + total >= capacity_) {
    bool selection2 =
        num_views == 2 && VirtualCascadeProfitable(base_size + total);
    bool premerge = num_views >= 2 && !selection2 &&
                    CascadeStaysVirtual(base_size + total);
    if (num_views == 1 || selection2 || premerge) {
      bool continue_normal;
      if (num_views == 1 || premerge) {
        const uint64_t* d;
        if (premerge) {
          view_merge_srcs_.clear();
          for (size_t i = 0; i < num_views; ++i) {
            if (views[i].size == 0) continue;
            view_merge_srcs_.emplace_back(views[i].data, views[i].size);
          }
          d = MergeGatheredSrcs(total);
        } else {
          d = views[0].data;
        }
        if (base_size == 0) {
          continue_normal = CascadeVirtual(DirectGet{d}, total);
        } else {
          uint64_t v = levels_[0][0];
          size_t p =
              static_cast<size_t>(std::lower_bound(d, d + total, v) - d);
          continue_normal = CascadeVirtual(
              ResidueGet<DirectGet>{DirectGet{d}, p, v}, total + 1);
        }
      } else {
        const uint64_t* A = views[0].data;
        size_t a = views[0].size;
        const uint64_t* B = views[1].data;
        size_t b = views[1].size;
        if (base_size == 0) {
          continue_normal = CascadeVirtual(TwoViewGet{A, a, B, b}, total);
        } else {
          uint64_t v = levels_[0][0];
          size_t p =
              static_cast<size_t>(std::lower_bound(A, A + a, v) - A) +
              static_cast<size_t>(std::lower_bound(B, B + b, v) - B);
          continue_normal = CascadeVirtual(
              ResidueGet<TwoViewGet>{TwoViewGet{A, a, B, b}, p, v},
              total + 1);
        }
      }
      FinishVirtualCascade(continue_normal);
      return;
    }
  }
  // Merge views + residue directly into the consolidated buffer, whether
  // or not a compaction follows — a flush's final sub-threshold window is
  // then already consolidated for the export. The merge reads
  // straight from the borrowed storage: no staging copy, no re-merge.
  EnsureSorted(0);
  MergeViewsIntoBase(views, num_views, total);
  if (levels_[0].size() >= capacity_) CascadeSortedBase();
}

uint64_t CompactorSummary::InsertViewsAndExport(
    const RunView* views, size_t num_views, size_t total,
    std::vector<uint64_t>* values,
    std::vector<std::pair<uint64_t, uint32_t>>* segments) {
  values->clear();
  segments->clear();
  bool fused = false;
  if (total > 0) {
    if (levels_[0].size() + total >= capacity_) {
      // Over-threshold window: the ordinary ingest (virtual cascade and
      // friends) compacts it down; the export below then copies only the
      // survivors.
      InsertSortedViews(views, num_views, total);
    } else {
      // Sub-threshold final window: count it in and export level 0
      // straight from residue + borrowed views below. levels_[0] itself
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
    auto& base = levels_[0];
    size_t out_size = base.size() + total;
    view_merge_srcs_.clear();
    if (!base.empty()) {
      view_merge_srcs_.emplace_back(base.data(), base.size());
    }
    for (size_t i = 0; i < num_views; ++i) {
      if (views[i].size == 0) continue;
      view_merge_srcs_.emplace_back(views[i].data, views[i].size);
    }
    values->resize(out_size);
    size_t nsrc = view_merge_srcs_.size();
    if (nsrc == 1) {
      std::copy(view_merge_srcs_[0].first,
                view_merge_srcs_[0].first + view_merge_srcs_[0].second,
                values->begin());
    } else if (nsrc == 2) {
      // The common flush shape (residue + consolidated window): one
      // merge pass straight into the wire buffer.
      std::merge(view_merge_srcs_[0].first,
                 view_merge_srcs_[0].first + view_merge_srcs_[0].second,
                 view_merge_srcs_[1].first,
                 view_merge_srcs_[1].first + view_merge_srcs_[1].second,
                 values->begin());
    } else {
      const uint64_t* result = MergeGatheredSrcs(out_size);
      std::copy(result, result + out_size, values->begin());
    }
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

bool CompactorSummary::VirtualCascadeProfitable(size_t len) const {
  // Replay the descent's shape: survivors halve per virtualized level
  // until the slice drops below capacity or a nonempty level stops the
  // virtual phase with a gather. Each materialized element costs a
  // log-time merge-path selection under the two-view accessor, while the
  // copy path costs ~2 straight moves per input element — so the virtual
  // route wins once the materialized count is a small fraction of len.
  size_t level = 0;
  size_t l = len;
  size_t accessed = 0;
  while (l >= capacity_) {
    ++accessed;  // potential odd straggler at this virtual level
    l = (l & ~size_t{1}) / 2;
    ++level;
    if (level < levels_.size() && !levels_[level].empty()) break;
  }
  accessed += l;  // final slice or promotion gather
  return accessed * 8 <= len;
}

bool CompactorSummary::CascadeStaysVirtual(size_t len) const {
  size_t level = 0;
  size_t l = len;
  while (l >= capacity_) {
    l = (l & ~size_t{1}) / 2;
    ++level;
    if (level < levels_.size() && !levels_[level].empty()) return false;
  }
  return true;
}

void CompactorSummary::FinishVirtualCascade(bool continue_normal) {
  // Re-derive levels_[0] from the recorded stragglers — CascadeVirtual
  // may have grown the hierarchy, and the accessor read the old level-0
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

void CompactorSummary::CascadeSortedBase() {
  const uint64_t* data = levels_[0].data();
  bool continue_normal =
      CascadeVirtual(DirectGet{data}, levels_[0].size());
  // Collapse level 0 to its straggler last — the accessor read from it
  // until here.
  auto& base = levels_[0];
  size_t base_size = 0;
  for (const auto& [lvl, value] : straggler_scratch_) {
    if (lvl == 0) base[base_size++] = value;
  }
  base.resize(base_size);
  sorted_[0] = base_size;
  seg_bounds_[0].clear();
  seg_dirty_[0] = 0;
  if (continue_normal) Cascade();
}

// The virtual-cascade core. `get` is one of the accessors above:
// get.At(i) indexes a fully sorted sequence of `len` >= capacity
// elements that logically sits in level 0, and get.Gather materializes
// strided slices of it in bulk (vectorized for the two-view shape). Compacting
// it the element-moving way would sort-promote-merge its way up level by
// level, yet while the upper levels are empty the composition of those
// stride-2 promotions is itself a strided slice of the sorted sequence:
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
      size_t up_size = up.size() + promoted;
      GrowScratch(up_size);
      simd::MergeSorted(up.data(), up.size(), promote_buf_.data(), promoted,
                        merge_buf_.data());
      up.assign(merge_buf_.data(), merge_buf_.data() + up_size);
      sorted_[level] = up_size;
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

void CompactorSummary::MergeViewsIntoBase(const RunView* views,
                                          size_t num_views, size_t total) {
  auto& base = levels_[0];
  size_t out_size = base.size() + total;
  // Sources: the consolidated base residue plus the borrowed views. The
  // first merge pass reads them in place; later passes ping-pong between
  // the two scratch buffers, so any view count costs one move per element
  // per ceil(log2(#sources)) passes and never stages a copy.
  view_merge_srcs_.clear();
  if (!base.empty()) view_merge_srcs_.emplace_back(base.data(), base.size());
  for (size_t i = 0; i < num_views; ++i) {
    if (views[i].size == 0) continue;
    view_merge_srcs_.emplace_back(views[i].data, views[i].size);
  }
  const uint64_t* result = MergeGatheredSrcs(out_size);
  base.assign(result, result + out_size);
  sorted_[0] = out_size;
  seg_bounds_[0].clear();
  seg_dirty_[0] = 0;
}

const uint64_t* CompactorSummary::MergeGatheredSrcs(size_t out_size) {
  size_t nsrc = view_merge_srcs_.size();
  const uint64_t* result = nullptr;
  if (nsrc == 1) {
    result = view_merge_srcs_[0].first;
  } else if (nsrc == 2) {
    GrowScratch(out_size);
    simd::MergeSorted(view_merge_srcs_[0].first, view_merge_srcs_[0].second,
                      view_merge_srcs_[1].first, view_merge_srcs_[1].second,
                      merge_buf_.data());
    result = merge_buf_.data();
  } else {
    GrowScratch(out_size);
    // First pass: merge source pairs straight into merge_buf_, recording
    // the produced run bounds; then pairwise ping-pong with the second
    // scratch until one run remains.
    if (view_merge_buf_.size() < out_size) {
      view_merge_buf_.resize(
          std::max(out_size, view_merge_buf_.size() * 2));
    }
    auto& bounds = run_bounds_;
    bounds.clear();
    bounds.push_back(0);
    uint64_t* out = merge_buf_.data();
    size_t produced = 0;
    for (size_t i = 0; i + 1 < nsrc; i += 2) {
      const auto& a = view_merge_srcs_[i];
      const auto& b = view_merge_srcs_[i + 1];
      simd::MergeSorted(a.first, a.second, b.first, b.second, out + produced);
      produced += a.second + b.second;
      bounds.push_back(produced);
    }
    if (nsrc % 2 == 1) {
      const auto& a = view_merge_srcs_[nsrc - 1];
      std::copy(a.first, a.first + a.second, out + produced);
      produced += a.second;
      bounds.push_back(produced);
    }
    uint64_t* src = merge_buf_.data();
    uint64_t* dst = view_merge_buf_.data();
    while (bounds.size() > 2) {
      size_t kept = 0;
      size_t r = 0;
      for (; r + 2 < bounds.size(); r += 2) {
        size_t lo = bounds[r], mid = bounds[r + 1], hi = bounds[r + 2];
        simd::MergeSorted(src + lo, mid - lo, src + mid, hi - mid, dst + lo);
        bounds[++kept] = hi;
      }
      if (r + 1 < bounds.size()) {
        size_t lo = bounds[r], hi = bounds[r + 1];
        std::copy(src + lo, src + hi, dst + lo);
        bounds[++kept] = hi;
      }
      bounds.resize(kept + 1);
      std::swap(src, dst);
    }
    result = src;
  }
  return result;
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

void CompactorSummary::SortTail(std::vector<uint64_t>* buf, size_t from,
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
  // the tail and the scratch buffer — one move per element per pass, and
  // only ~log2(#runs) passes since the staged batch runs arrive sorted.
  GrowScratch(len);
  uint64_t* src = tail;
  uint64_t* dst = merge_buf_.data();
  while (bounds.size() > 2) {
    size_t out = 0;
    size_t r = 0;
    for (; r + 2 < bounds.size(); r += 2) {
      size_t lo = bounds[r], mid = bounds[r + 1], hi = bounds[r + 2];
      simd::MergeSorted(src + lo, mid - lo, src + mid, hi - mid, dst + lo);
      bounds[++out] = hi;  // overwrite in place: bounds[0] stays 0
    }
    if (r + 1 < bounds.size()) {
      // Odd run out: carry it to the destination buffer unmerged.
      size_t lo = bounds[r], hi = bounds[r + 1];
      std::copy(src + lo, src + hi, dst + lo);
      bounds[++out] = hi;
    }
    bounds.resize(out + 1);
    std::swap(src, dst);
  }
  if (src != tail) std::copy(src, src + len, tail);
}

void CompactorSummary::MergeSortedTail(std::vector<uint64_t>* buf,
                                       size_t mid) {
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
  GrowScratch(buf->size());
  simd::MergeSorted(data, mid, data + mid, buf->size() - mid,
                    merge_buf_.data());
  buf->assign(merge_buf_.data(), merge_buf_.data() + buf->size());
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
    size_t up_size = up.size() + promoted;
    GrowScratch(up_size);
    simd::MergeSorted(up.data(), up.size(), promote_buf_.data(), promoted,
                      merge_buf_.data());
    up.assign(merge_buf_.data(), merge_buf_.data() + up_size);
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

namespace {

// Merges `num_views` ascending views into *out (cleared first), using
// *tmp as the ping buffer. View counts here are tiny (a ladder window
// holds at most a handful of runs), so sequential merging is fine.
void MergeViewsSimple(const RunView* views, size_t num_views,
                      std::vector<uint64_t>* out, std::vector<uint64_t>* tmp) {
  out->clear();
  for (size_t i = 0; i < num_views; ++i) {
    if (views[i].size == 0) continue;
    if (out->empty()) {
      out->assign(views[i].data, views[i].data + views[i].size);
      continue;
    }
    tmp->resize(out->size() + views[i].size);
    std::merge(out->begin(), out->end(), views[i].data,
               views[i].data + views[i].size, tmp->begin());
    std::swap(*out, *tmp);
  }
}

}  // namespace

uint64_t CompactSortedViewsToWire(
    double eps, uint64_t seed, const RunView* views, size_t num_views,
    size_t total, std::vector<uint64_t>* scratch,
    std::vector<uint64_t>* scratch2, std::vector<uint64_t>* values,
    std::vector<std::pair<uint64_t, uint32_t>>* segments) {
  size_t capacity = CapacityFor(eps);
  size_t before = values->size();
  if (total < capacity) {
    // Sub-capacity window: one weight-1 segment, no compaction coins —
    // exactly the fused sub-threshold export of InsertViewsAndExport on
    // a fresh summary.
    MergeViewsSimple(views, num_views, scratch, scratch2);
    values->insert(values->end(), scratch->begin(), scratch->end());
    if (total > 0) {
      segments->emplace_back(1, static_cast<uint32_t>(values->size()));
    }
    return static_cast<uint64_t>(total) + 2;
  }
  // The virtual cascade of a fresh summary: every upper level is empty,
  // so the descent runs to the first sub-capacity slice, materializing
  // one odd straggler per virtualized level. Same coins, same kept
  // elements as CompactorSummary::CascadeVirtual, with the surviving
  // slice pulled through the accessor's bulk Gather (vectorized
  // merge-path selection for the two-view shape).
  auto run = [&](auto get) -> uint64_t {
    Rng rng(seed);
    uint64_t straggler[64];
    bool has_straggler[64] = {false};
    size_t stride = 1;
    size_t offset = 0;
    size_t level = 0;
    size_t len = total;
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
    // Emit ascending levels: stragglers below, the surviving slice at
    // the stop level (which never carries a straggler).
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
    return static_cast<uint64_t>(values->size() - before) + (level + 1) +
           1;
  };
  if (num_views == 1) return run(DirectGet{views[0].data});
  if (num_views == 2) {
    return run(TwoViewGet{views[0].data, views[0].size, views[1].data,
                          views[1].size});
  }
  MergeViewsSimple(views, num_views, scratch, scratch2);
  return run(DirectGet{scratch->data()});
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
