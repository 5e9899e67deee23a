#include "disttrack/summaries/run_ladder.h"

#include <algorithm>

#include "disttrack/common/small_sort.h"

namespace disttrack {
namespace summaries {

void RunLadder::Reset(size_t num_cursors) {
  for (auto& run : runs_) Recycle(std::move(run.values));
  runs_.clear();
  BoundPool();
  cursors_.assign(num_cursors, end_);
  cursors_at_end_ = num_cursors;
  trim_pending_ = false;
}

bool RunLadder::CursorAt(uint64_t position) const {
  for (uint64_t c : cursors_) {
    if (c == position) return true;
  }
  return false;
}

ValueBuffer RunLadder::TakeBuffer() {
  if (pool_.empty()) return {};
  ValueBuffer buffer = std::move(pool_.back());
  pool_.pop_back();
  buffer.clear();
  ++work_.pool_takes;
  return buffer;
}

void RunLadder::Recycle(ValueBuffer&& buffer) {
  if (buffer.capacity() == 0) return;
  pool_.push_back(std::move(buffer));
}

void RunLadder::BoundPool() {
  if (pool_.size() > kMaxPooled) pool_.resize(kMaxPooled);
}

void RunLadder::AppendSortedRun(const uint64_t* values, size_t count) {
  if (count == 0) return;
  // Extending the last run keeps it one segment iff order holds and no
  // cursor still expects to start a pull at the current end.
  if (cursors_at_end_ == 0 && !runs_.empty() &&
      runs_.back().values.back() <= values[0]) {
    auto& tail = runs_.back().values;
    tail.insert(tail.end(), values, values + count);
  } else {
    Run run;
    run.start = end_;
    run.values = TakeBuffer();
    run.values.assign(values, values + count);
    runs_.push_back(std::move(run));
    ++work_.runs_appended;
  }
  end_ += count;
  cursors_at_end_ = 0;
}

void RunLadder::AppendSortedVector(ValueBuffer* values) {
  size_t count = values->size();
  if (count == 0) return;
  if (cursors_at_end_ == 0 && !runs_.empty() &&
      runs_.back().values.back() <= values->front()) {
    auto& tail = runs_.back().values;
    tail.insert(tail.end(), values->begin(), values->end());
    values->clear();
  } else {
    Run run;
    run.start = end_;
    run.values = std::move(*values);
    runs_.push_back(std::move(run));
    *values = TakeBuffer();
    ++work_.runs_appended;
  }
  end_ += count;
  cursors_at_end_ = 0;
}

void RunLadder::AppendValue(uint64_t value) {
  AppendSortedRun(&value, 1);
}

size_t RunLadder::FirstRunFrom(uint64_t position) const {
  // Runs are position-ordered and cursors are run-aligned (merges never
  // cross a cursor), so a window is a whole-run suffix slice.
  size_t first = runs_.size();
  while (first > 0 && runs_[first - 1].start >= position) --first;
  return first;
}

void RunLadder::MergeFreeBoundaries(size_t first) {
  // Consolidate the window before handing it out: merge every adjacent
  // pair whose boundary no cursor still needs, leaving one run per
  // inter-cursor gap. The work is memoized in the ladder — every other
  // level that later pulls an overlapping window reads the already-merged
  // runs. Cheapest adjacent pair first, so small runs coalesce among
  // themselves before touching a big neighbour (near-optimal merge
  // volume; the quadratic pair scan is over a handful of runs).
  for (;;) {
    size_t best = runs_.size();
    size_t best_cost = ~size_t{0};
    for (size_t i = first; i + 1 < runs_.size(); ++i) {
      if (CursorAt(runs_[i + 1].start)) continue;
      size_t cost = runs_[i].values.size() + runs_[i + 1].values.size();
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best == runs_.size()) break;
    MergeWithNext(best);
  }
}

void RunLadder::MergeWithNext(size_t index) {
  // The older run's buffer takes the merge: grown (geometrically, by the
  // vector) and filled back to front, so no third buffer is taken and
  // only the newer run's buffer goes back to the pool.
  ValueBuffer& a = runs_[index].values;
  ValueBuffer& b = runs_[index + 1].values;
  const size_t na = a.size();
  const size_t nb = b.size();
  a.resize(na + nb);
  MergeSorted(a.data(), na, b.data(), nb, a.data());
  ++work_.pair_merges;
  work_.pair_values += na + nb;
  Recycle(std::move(b));
  runs_.erase(runs_.begin() + static_cast<long>(index) + 1);
}

void RunLadder::AdvanceCursor(size_t cursor) {
  cursors_[cursor] = end_;
  ++cursors_at_end_;  // pending > 0 held, so it was below end_
  trim_pending_ = true;
}

size_t RunLadder::Pull(size_t cursor, std::vector<RunView>* views) {
  views->clear();
  uint64_t at = cursors_[cursor];
  if (at == end_) return 0;
  size_t first = FirstRunFrom(at);
  MergeFreeBoundaries(first);
  size_t total = 0;
  for (size_t i = first; i < runs_.size(); ++i) {
    const auto& values = runs_[i].values;
    views->push_back(RunView{values.data(), values.size()});
    total += values.size();
  }
  AdvanceCursor(cursor);
  return total;
}

uint64_t* MergeRunsPairwise(uint64_t* src, uint64_t* dst,
                            std::vector<size_t>* bounds) {
  while (bounds->size() > 2) {
    size_t kept = 0;
    size_t r = 0;
    for (; r + 2 < bounds->size(); r += 2) {
      const size_t lo = (*bounds)[r];
      const size_t mid = (*bounds)[r + 1];
      const size_t hi = (*bounds)[r + 2];
      MergeSorted(src + lo, mid - lo, src + mid, hi - mid, dst + lo);
      (*bounds)[++kept] = hi;  // overwrite in place: bounds[0] stays 0
    }
    if (r + 1 < bounds->size()) {
      // Odd run out: carry it to the destination buffer unmerged.
      const size_t lo = (*bounds)[r];
      const size_t hi = (*bounds)[r + 1];
      std::copy(src + lo, src + hi, dst + lo);
      (*bounds)[++kept] = hi;
    }
    bounds->resize(kept + 1);
    std::swap(src, dst);
  }
  return src;
}

namespace {

void GrowTo(ValueBuffer* buffer, size_t need) {
  // Write-before-read scratch: it holds no live data across a grow, so
  // clear() first and resize() reallocates without copying (and, with the
  // default-init allocator, without zero-filling). Grows geometrically
  // and never shrinks.
  const size_t size = buffer->size();
  if (size < need) {
    buffer->clear();
    buffer->resize(std::max(need, size * 2));
  }
}

}  // namespace

RunView RunLadder::PullMerged(size_t cursor, MergedWindow* window) {
  const uint64_t at = cursors_[cursor];
  if (at == end_) return RunView{nullptr, 0};
  const size_t total = static_cast<size_t>(end_ - at);
  if (window->ladder_ == this && window->start_ == at &&
      window->end_ == end_) {
    // Another cursor pulled this very window since the last append: its
    // boundaries are merged already and the copy is current.
    AdvanceCursor(cursor);
    return RunView{window->values_.data(), total};
  }
  const size_t first = FirstRunFrom(at);
  MergeFreeBoundaries(first);
  AdvanceCursor(cursor);
  if (first + 1 == runs_.size()) {
    const auto& values = runs_[first].values;
    return RunView{values.data(), values.size()};
  }
  // Pinned boundaries remain: merge the runs pairwise, the first pass
  // straight from ladder storage, later passes ping-ponging between the
  // two scratch buffers (one move per element per pass, ceil(log2 runs)
  // passes).
  GrowTo(&window->values_, total);
  GrowTo(&window->spare_, total);
  auto& bounds = window->bounds_;
  bounds.assign(1, 0);
  uint64_t* src = window->values_.data();
  size_t produced = 0;
  size_t i = first;
  for (; i + 1 < runs_.size(); i += 2) {
    const auto& a = runs_[i].values;
    const auto& b = runs_[i + 1].values;
    MergeSorted(a.data(), a.size(), b.data(), b.size(), src + produced);
    produced += a.size() + b.size();
    bounds.push_back(produced);
  }
  if (i < runs_.size()) {
    const auto& a = runs_[i].values;
    std::copy(a.begin(), a.end(), src + produced);
    bounds.push_back(produced + a.size());
  }
  if (MergeRunsPairwise(src, window->spare_.data(), &bounds) != src) {
    window->values_.swap(window->spare_);
  }
  window->ladder_ = this;
  window->start_ = at;
  window->end_ = end_;
  work_.window_values += total;
  return RunView{window->values_.data(), total};
}

void RunLadder::Trim() {
  if (runs_.empty()) return;
  uint64_t oldest = end_;
  for (uint64_t c : cursors_) oldest = std::min(oldest, c);
  size_t keep = 0;
  while (keep < runs_.size() &&
         runs_[keep].start + runs_[keep].values.size() <= oldest) {
    Recycle(std::move(runs_[keep].values));
    ++keep;
  }
  if (keep > 0) {
    runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(keep));
  }
  BoundPool();
}

void RunLadder::MergeTail() {
  // Binary counter: fold the newest run leftward while the older
  // neighbour is no bigger, so any element is merged O(log window) times
  // and that cost is paid once for all consumers. A boundary some cursor
  // still needs to pull from stays put (the cascade retries it once the
  // cursor moves on and the counter reaches it again).
  while (runs_.size() >= 2) {
    const size_t older = runs_.size() - 2;
    if (runs_[older].values.size() > runs_.back().values.size()) break;
    if (CursorAt(runs_.back().start)) break;
    MergeWithNext(older);
  }
}

void RunLadder::Consolidate() {
  // The oldest-consumed watermark only moves when some cursor pulled.
  if (trim_pending_) {
    Trim();
    trim_pending_ = false;
  }
  MergeTail();
}

uint64_t RunLadder::held() const {
  uint64_t total = 0;
  for (const auto& run : runs_) total += run.values.size();
  return total;
}

uint64_t RunLadder::SpaceWords() const {
  return held() + runs_.size() + cursors_.size();
}

}  // namespace summaries
}  // namespace disttrack
