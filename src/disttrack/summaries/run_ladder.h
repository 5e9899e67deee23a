// Shared per-site run-merge ladder for the rank tracker's compactor tree.
//
// Algorithm C (§4) feeds every arrival to all h+1 levels of its dyadic
// node tree. The batched hot path delivers those arrivals as sorted runs,
// and before this ladder existed each level staged its own copy of every
// run and re-merged them independently at its own compaction cadence —
// the same merge volume paid h+1 times (the profile shows it as the
// dominant rank cost). The ladder consolidates each site's runs ONCE and
// lets every level consume windows of the shared merged sequence through
// borrowed views, so the deep small-run-into-big-run merging is shared.
// A window that still spans several runs is merged once more, into one
// caller-owned copy that every level due on it reads
// (CompactorSummary::InsertSortedWindow), so each level ingests one
// ascending view per compaction.
//
// Contract:
//  * AppendSortedRun / AppendValue add data at the logical end of the
//    stream. Runs are stored sorted; logical positions only order runs
//    against cursors, never elements within a run.
//  * One cursor per consumer (tree level). pending(c) is the element
//    count appended since cursor c last pulled. Pull(c) returns borrowed
//    views of whole runs covering exactly [cursor_c, end) and advances
//    the cursor; PullMerged(c) returns the same window as ONE ascending
//    view (see below). Views stay valid until the next mutating call
//    (Append*, Pull*, Consolidate, Reset).
//  * A merge of ladder runs never crosses a position some cursor still
//    needs to pull from, which keeps every cursor run-aligned. Pull
//    merges every cursor-free boundary of the window in place first, so
//    the work is shared by every later pull of an overlapping window.
//    The boundaries it cannot merge are the pinned ones: the rank
//    tracker's leaf cursor pins every leaf start, so an upper level's
//    window arrives as one run per pinned boundary plus one.
//  * PullMerged hands a multi-run window to the caller as a merged copy
//    in caller-owned scratch (MergedWindow; pairwise passes, O(W log
//    runs)), memoized by [start, end): every other cursor of the same
//    ladder that pulls the same window before the next append reads the
//    same copy instead of merging again. The rank tracker's upper levels
//    come due together on one window, so each window is merged once.
//  * Consolidate() merges adjacent runs binary-counter style (merge when
//    the older neighbour is no bigger) and trims runs every cursor has
//    consumed; callers pump consumers first, then consolidate, so
//    up-to-date cursors never pin the tail. Node windows therefore align
//    with run boundaries by construction — the tracker appends the
//    window-closing event arrival as a one-element straggler run before
//    flushing the node.
//
// Space: runs older than the slowest cursor are trimmed, so the ladder
// holds at most ~max pull window (the largest level capacity) elements —
// the staging memory it removes from the h+1 compactors, paid once.
//
// Buffers: run storage, the recycled-buffer pool, MergedWindow's scratch
// and the rank tracker's per-site run are ValueBuffers, whose resize()
// leaves new elements uninitialized (so are the compactor's level and
// scratch buffers, the rank flush's export buffer and the coordinator's
// frozen runs). Every such buffer is
// write-before-read: a merge target is sized and then filled completely,
// so zero-filling it first would be a wasted pass over every merged value.
// Merges of two ladder runs happen in place: the older run's buffer grows
// and the newer run merges into it back to front (MergeSorted), and only
// the newer run's buffer is recycled. The pool therefore serves appends
// only, and Trim and Reset keep at most kMaxPooled buffers in it, so a
// burst of trimmed runs cannot pin their memory for the ladder's life.
// work() counts the merge volume and the pool traffic.

#ifndef DISTTRACK_SUMMARIES_RUN_LADDER_H_
#define DISTTRACK_SUMMARIES_RUN_LADDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace disttrack {
namespace summaries {

/// std::allocator whose value-less construct() default-initializes, so a
/// vector's resize() leaves trivially constructible elements
/// uninitialized instead of zero-filling them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A write-before-read value buffer (see the file comment).
using ValueBuffer = std::vector<uint64_t, DefaultInitAllocator<uint64_t>>;

/// Cumulative work of a RunLadder (survives Reset). Plain counters: they
/// read no RNG and charge no meter, so they cannot change an output.
struct LadderWork {
  uint64_t runs_appended = 0;  // appends that started a new run
  uint64_t pair_merges = 0;    // in-place merges of two adjacent runs
  uint64_t pair_values = 0;    // values those merges produced
  uint64_t window_values = 0;  // size of each window PullMerged merged
  uint64_t pool_takes = 0;     // recycled buffers handed out

  uint64_t merged_values() const { return pair_values + window_values; }

  LadderWork& operator+=(const LadderWork& o) {
    runs_appended += o.runs_appended;
    pair_merges += o.pair_merges;
    pair_values += o.pair_values;
    window_values += o.window_values;
    pool_takes += o.pool_takes;
    return *this;
  }
};

/// Borrowed view of one ascending run in ladder storage.
struct RunView {
  const uint64_t* data;
  size_t size;
};

/// Merges the adjacent ascending runs of src that *bounds delimits
/// (bounds[0] = 0, back() = the total) pairwise until one remains,
/// ping-ponging between src and dst — one move per element per pass,
/// ceil(log2 runs) passes. Returns the buffer holding the merged
/// sequence (src or dst); *bounds is left as {0, total}.
uint64_t* MergeRunsPairwise(uint64_t* src, uint64_t* dst,
                            std::vector<size_t>* bounds);

class RunLadder;

/// Caller-owned scratch in which RunLadder::PullMerged merges a window
/// that spans several runs. It remembers the window it holds (ladder,
/// start, end), so every cursor that pulls that same window reads the one
/// merged copy. One scratch may serve many ladders; since the memo is
/// keyed by the ladder's address, a ladder built where another one was
/// destroyed must not share the other's scratch.
class MergedWindow {
 private:
  friend class RunLadder;
  const RunLadder* ladder_ = nullptr;
  uint64_t start_ = 0;
  uint64_t end_ = 0;
  ValueBuffer values_;
  ValueBuffer spare_;             // ping-pong buffer of the merge passes
  std::vector<size_t> bounds_;    // run bounds of the current pass
};

/// Sorted-run accumulator with per-consumer cursors (see file comment).
class RunLadder {
 public:
  /// Drops all buffered data and re-registers `num_cursors` consumers,
  /// all positioned at the current end (nothing pending).
  void Reset(size_t num_cursors);

  /// Appends `count` values forming one ascending run (caller sorts).
  void AppendSortedRun(const uint64_t* values, size_t count);

  /// AppendSortedRun taking ownership of the buffer — no copy unless the
  /// run extends the previous one in place. The moved-from vector comes
  /// back holding a recycled buffer, ready to refill.
  void AppendSortedVector(ValueBuffer* values);

  /// Appends a single value (a one-element run; extends the last run in
  /// place when order and cursor alignment allow).
  void AppendValue(uint64_t value);

  /// Fills `views` with segments covering [cursor, end) — whole runs, in
  /// position order — advances the cursor to end, and returns the total
  /// element count. Views are invalidated by the next mutating call.
  size_t Pull(size_t cursor, std::vector<RunView>* views);

  /// Pull as one ascending view: the window's single run, or its runs
  /// merged into `*window` (memoized; see the file comment). Returns an
  /// empty view when nothing is pending.
  RunView PullMerged(size_t cursor, MergedWindow* window);

  /// Binary-counter merge of the tail plus a trim of fully-consumed
  /// runs. Call after pulling consumers that were due (their cursors no
  /// longer pin the fresh tail).
  void Consolidate();

  /// Elements appended after `cursor`'s position.
  uint64_t pending(size_t cursor) const {
    return end_ - cursors_[cursor];
  }

  uint64_t end() const { return end_; }
  size_t num_cursors() const { return cursors_.size(); }
  size_t run_count() const { return runs_.size(); }

  /// Elements currently buffered (trimmed runs excluded).
  uint64_t held() const;

  /// Space charged to the owning site: buffered values plus one word per
  /// run header and cursor.
  uint64_t SpaceWords() const;

  /// Merge and pool counters since construction (see LadderWork).
  const LadderWork& work() const { return work_; }

  /// Recycled buffers currently pooled (at most kMaxPooled after a Trim
  /// or Reset).
  size_t pooled() const { return pool_.size(); }

  // At the k = 32, eps = 5e-4 shape a bound of 4 made 8x more pair
  // merges reallocate than 8 does; 16 and above matched an unbounded
  // pool.
  static constexpr size_t kMaxPooled = 8;

 private:
  struct Run {
    uint64_t start = 0;  // logical position of values.front()
    ValueBuffer values;
  };

  bool CursorAt(uint64_t position) const;
  // Index of the first run of the window starting at `position`.
  size_t FirstRunFrom(uint64_t position) const;
  // Merges every cursor-free adjacent pair of runs from `first` on.
  void MergeFreeBoundaries(size_t first);
  // Merges run `index + 1` into run `index` in place and drops it.
  void MergeWithNext(size_t index);
  void AdvanceCursor(size_t cursor);
  ValueBuffer TakeBuffer();
  void Recycle(ValueBuffer&& buffer);
  // Drops pooled buffers beyond kMaxPooled.
  void BoundPool();
  void Trim();
  void MergeTail();

  std::vector<Run> runs_;  // position-ordered; front is oldest
  std::vector<uint64_t> cursors_;
  uint64_t end_ = 0;  // logical position one past the last element
  // Cursors currently positioned exactly at end_ (maintained so the
  // append fast path answers "may the last run be extended in place?"
  // without scanning): Pull moves one cursor to end_, any append moves
  // end_ past every cursor, Reset parks them all there.
  size_t cursors_at_end_ = 0;
  bool trim_pending_ = false;  // a Pull advanced a cursor since last Trim
  std::vector<ValueBuffer> pool_;  // recycled run buffers
  LadderWork work_;
};

}  // namespace summaries
}  // namespace disttrack

#endif  // DISTTRACK_SUMMARIES_RUN_LADDER_H_
