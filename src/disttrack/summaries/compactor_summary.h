// Randomized mergeable rank summary — the paper's "algorithm A" (§4).
//
// The rank-tracking protocol uses A as a black box with three properties
// (from [24], improved by [1] "Mergeable summaries", which the paper cites
// as the current best A):
//   1. unbiased:    E[EstimateRank(x)] equals the true rank of x;
//   2. low variance: Var[EstimateRank(x)] <= (eps * m)^2 on a stream of m;
//   3. small space:  O(1/eps * log(eps * m)) words.
//
// We implement A as a random-offset compactor hierarchy, the primitive
// behind [1]'s randomized quantile summary: buffers of capacity s per
// level; a full buffer is sorted and every other element (random even/odd
// offset) is promoted with doubled weight. Each compaction perturbs any
// fixed rank query by a mean-zero +-2^level, so errors form a martingale:
// variances add, giving Var <= 4 m^2 / s^2; s = ceil(2/eps) meets (2).
//
// docs/REPRODUCTION.md lists this as the one substitution in the
// randomized protocols: the paper quotes space O(1/eps * log^1.5(1/eps))
// for A; the compactor gives O(1/eps * log(eps*m)), identical in all
// experiments' regimes.
//
// DESIGN — why batched compaction preserves the martingale argument.
// InsertBatch appends a whole run to the level-0 buffer and only then
// compacts, so a buffer can be far beyond its capacity s when its single
// compaction runs. That changes *when* compactions happen and *how many
// elements* each consumes — but not the error analysis: one compaction of
// any even number of weight-2^l elements (sort, promote every other
// element from a uniformly random even/odd offset with doubled weight)
// perturbs any fixed rank query by exactly 0 (rank below the buffer even)
// or +-2^l with probability 1/2 each (rank odd). The perturbation is
// mean-zero and bounded by 2^l *regardless of the buffer's size*, so the
// error process stays a martingale with per-step increments +-2^l; the
// variance bound Var <= sum_l 4^l * (#compactions at level l) only
// *improves*, because batching strictly reduces the number of compactions
// at every level (each level-l compaction still needs >= s/2 promotions
// to trigger the next one up, while consuming more than s elements).
// Scalar Insert and InsertBatch therefore satisfy the same unbiasedness
// and (eps*m)^2-variance guarantees — pinned distributionally by
// tests/batch_equivalence_test.cc and tests/stat_acceptance_test.cc.

#ifndef DISTTRACK_SUMMARIES_COMPACTOR_SUMMARY_H_
#define DISTTRACK_SUMMARIES_COMPACTOR_SUMMARY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "disttrack/common/random.h"
#include "disttrack/summaries/run_ladder.h"

namespace disttrack {
namespace summaries {

/// Unbiased eps-variance rank summary over uint64 values.
class CompactorSummary {
 public:
  /// `eps` > 0 (values >= 1 are allowed and give a trivially small summary);
  /// the standard-deviation guarantee is eps * m for a stream of length m.
  CompactorSummary(double eps, uint64_t seed);

  /// Inserts one value; amortized O(log) with occasional O(s log s) sorts.
  void Insert(uint64_t value);

  /// Inserts `count` values in one step: appends the run to the level-0
  /// buffer with a single capacity check, then compacts each over-full
  /// level once (in-place sort + one promotion pass — CompactLevel always
  /// consumes the whole even prefix, so one pass per level suffices no
  /// matter how far past capacity the run pushed it). Identical guarantees
  /// to per-element Insert (see the DESIGN note above); fewer, larger
  /// compactions, so strictly less variance and far less per-element work.
  void InsertBatch(const uint64_t* values, size_t count);

  /// InsertBatch for a run already sorted ascending. This is the rank
  /// tracker's fast path: algorithm C feeds the same run to every level of
  /// its node tree, so the caller sorts once and every summary stages the
  /// run as a single pre-sorted segment — consolidation (EnsureSorted)
  /// then merges whole runs instead of comparison-sorting elements.
  void InsertSortedBatch(const uint64_t* values, size_t count);

  /// Borrowed-view InsertSortedBatch: inserts `total` values given as
  /// `num_views` ascending segments of shared storage (a RunLadder pull)
  /// that stay valid only for the duration of this call. The views are
  /// merged with the level-0 residue straight into the consolidated
  /// buffer — no staging copy, no re-merge — whether or not the
  /// compaction threshold is reached (a sub-threshold flush tail is then
  /// already consolidated for the export); a single
  /// over-threshold view on a bare residue compacts without even that
  /// merge, via the virtual cascade. Produces the same level-0 sorted
  /// multiset at the same compaction points as staging the identical
  /// data, so the summary stream is bit-identical either way.
  void InsertSortedViews(const RunView* views, size_t num_views,
                         size_t total);

  /// InsertSortedViews immediately followed by an export of the summary,
  /// fused for the rank tracker's flush path (a completing node drains its
  /// ladder window and ships at once). The export is one flat
  /// ascending-per-segment value array plus (weight, end offset) segment
  /// descriptors, skipping empty levels — the wire format a site ships
  /// and the coordinator's per-segment binary-search lookup format. Two
  /// copies disappear: a sub-threshold final window is merged with the
  /// level-0 residue straight into the export array (never materialized
  /// in the summary), and an over-threshold window goes through the usual
  /// zero-copy virtual cascade before the plain export. Returns the
  /// serialized word count of the post-ingest summary (identical to
  /// SerializedWords() after a separate InsertSortedViews). The fused
  /// path can leave level 0 unmaterialized, so the summary MUST be
  /// Reset() or destroyed after this call — exactly what the flush path's
  /// node pooling does.
  uint64_t InsertViewsAndExport(
      const RunView* views, size_t num_views, size_t total,
      std::vector<uint64_t>* values,
      std::vector<std::pair<uint64_t, uint32_t>>* segments);

  /// Unbiased estimate of |{y in stream : y < x}|; monotone in x.
  double EstimateRank(uint64_t x) const;

  /// Unbiased estimate of the stream length represented by the summary
  /// (exact by construction: compactions conserve total weight).
  uint64_t WeightTotal() const;

  /// Value whose estimated rank is closest to phi * m (by binary search on
  /// the stored items). Returns 0 on an empty summary.
  uint64_t Quantile(double phi) const;

  /// Folds `other` into this summary level by level (the mergeable-summary
  /// operation of [1]); both must use the same capacity for the guarantee
  /// to compose. `other` is left unchanged.
  void MergeFrom(const CompactorSummary& other);

  /// All stored (value, weight) pairs — what a site ships to the
  /// coordinator when a node of algorithm C becomes full (§4).
  std::vector<std::pair<uint64_t, uint64_t>> Items() const;

  /// Words transmitted when the summary is sent: one word per stored item
  /// value plus one per-level length header.
  uint64_t SerializedWords() const;

  uint64_t m() const { return m_; }
  double eps() const { return eps_; }
  size_t buffer_capacity() const { return capacity_; }
  /// Current level-0 buffer fill (compacted straggler plus staged runs);
  /// the rank tracker's ladder pump compares it against buffer_capacity()
  /// to decide when a level is due for a pull.
  size_t level0_size() const { return levels_[0].size(); }
  /// Levels in use (through the highest nonempty buffer; >= 1). Reset()
  /// retains emptied levels for reuse, so this is not the raw buffer
  /// count.
  int NumLevels() const;
  uint64_t SpaceWords() const;

  void Clear();

  /// Clear() plus a reseed, retaining every buffer's allocated capacity.
  /// The rank tracker pools summaries across short-lived tree nodes, so a
  /// reused node costs zero allocations instead of one per level buffer.
  /// Emptied levels are retained (weight 0); the accounting helpers skip
  /// trailing empties.
  void Reset(uint64_t seed);

 private:
  // Staging invariant: every level buffer is a sorted prefix
  // [0, sorted_[l]) followed by a staging tail of appended sorted runs
  // (batch runs arrive pre-sorted; per-element Insert appends singletons;
  // promotions append the stride-2 output of a sorted buffer, itself
  // sorted). Run boundaries are tracked as they are appended
  // (seg_bounds_), except after an InsertBatch of unordered data, which
  // marks the level dirty and falls back to a detection scan. Nothing is
  // merged eagerly: EnsureSorted consolidates a level only when a
  // compaction or an export needs it, merging the tail's runs pairwise —
  // ~log2(#runs) passes where a comparison sort would do log2(n), and
  // each element is fully sorted exactly once per level.
  void EnsureSorted(size_t level);
  // Merges the consolidated level-0 buffer with `num_views` borrowed
  // ascending segments into one sorted level-0 buffer (single pass, via
  // merge_buf_). Callers consolidated level 0 first.
  void MergeViewsIntoBase(const RunView* views, size_t num_views,
                          size_t total);
  // Merges the gathered view_merge_srcs_ (ascending sources totalling
  // out_size elements) and returns the merged sequence — a source
  // pointer when only one is nonempty, merge scratch otherwise. Shared
  // by MergeViewsIntoBase and the fused flush export.
  const uint64_t* MergeGatheredSrcs(size_t out_size);
  // Grows merge_buf_ geometrically to at least `need` elements. The
  // scratch is write-before-read and never shrinks, so growth (and its
  // value-initialization pass) is amortized away instead of being paid on
  // every merge the way an exact resize or a buffer swap would pay it.
  void GrowScratch(size_t need) {
    if (merge_buf_.size() < need) {
      merge_buf_.resize(std::max(need, merge_buf_.size() * 2));
    }
  }
  void CompactLevel(size_t level);
  // Compacts every over-capacity level bottom-up, one pass.
  void Cascade();
  // Cascade for a fully consolidated over-capacity level-0 buffer (the
  // state every ladder pull produces): composes the stride-2 promotions
  // through empty upper levels into direct strided gathers, materializing
  // only stragglers and the first surviving slice — same coins, same
  // kept elements, so bit-identical to the real cascade at a fraction of
  // the moves.
  void CascadeSortedBase();
  // Accessor-based core of CascadeSortedBase, shared with the zero-copy
  // borrowed-view ingest (see the definition for the full argument).
  // Returns true when the caller must finish with the ordinary Cascade().
  template <class GetFn>
  bool CascadeVirtual(GetFn get, size_t len);
  // Re-derives level 0 from straggler_scratch_ after a CascadeVirtual and
  // finishes with the ordinary cascade when one was signalled.
  void FinishVirtualCascade(bool continue_normal);
  // True when ingesting a fully sorted logical sequence of `len` elements
  // into level 0 would descend the virtual cascade far enough that
  // random-access gathers (survivors + stragglers) beat a merge copy of
  // the whole sequence — the gate of the two-view zero-copy ingest, where
  // each access costs a binary-search merge-path selection.
  bool VirtualCascadeProfitable(size_t len) const;
  // True when ingesting `len` sorted level-0 elements would cascade all
  // the way to an empty level — i.e. CascadeVirtual would never merge
  // through the shared scratch buffers. Gates the pre-merged zero-copy
  // ingest, whose source may live in that scratch.
  bool CascadeStaysVirtual(size_t len) const;
  // Records the boundary of a tail append of `count` ascending values
  // starting at offset `old_size` of level `l` (extends the previous
  // segment when the order allows).
  void NoteAscendingAppend(size_t level, size_t old_size);
  // Merges buf's sorted halves [0, mid) and [mid, end) without the
  // per-call temporary-buffer allocation of std::inplace_merge (the
  // scratch vector is reused across calls and levels).
  void MergeSortedTail(std::vector<uint64_t>* buf, size_t mid);
  // Sorts buf's tail [from, end) by merging its ascending runs pairwise
  // with ping-pong passes through the scratch. `bounds` holds the run
  // starts in (from, end), exclusive; pass nullptr to detect them.
  void SortTail(std::vector<uint64_t>* buf, size_t from,
                const std::vector<size_t>* interior_bounds);
  size_t LevelsUsed() const;        // through the last nonempty, >= 1

  double eps_;
  size_t capacity_;  // per-level buffer capacity s (even, >= 2)
  Rng rng_;
  uint64_t m_ = 0;  // total stream length inserted (not counting merges)
  std::vector<std::vector<uint64_t>> levels_;  // levels_[i]: weight 2^i each
  std::vector<size_t> sorted_;  // per-level sorted prefix length
  // Per-level staged-segment starts (interior to the tail) and a dirty
  // flag set when unordered data was appended (bounds then unusable).
  std::vector<std::vector<size_t>> seg_bounds_;
  std::vector<uint8_t> seg_dirty_;
  std::vector<uint64_t> merge_buf_;  // MergeSortedTail / SortTail scratch
  std::vector<uint64_t> promote_buf_;  // CompactLevel promotion scratch
  std::vector<size_t> run_bounds_;   // SortTail run-boundary scratch
  // MergeViewsIntoBase scratch: gathered (pointer, length) sources and
  // the second ping-pong buffer for 3+-way merges.
  std::vector<std::pair<const uint64_t*, size_t>> view_merge_srcs_;
  std::vector<uint64_t> view_merge_buf_;
  // CascadeSortedBase scratch: (virtual level, value) odd stragglers.
  std::vector<std::pair<size_t, uint64_t>> straggler_scratch_;
};

/// Node-less leaf compaction — the rank tracker's level-0 flush path. A
/// leaf node's whole life under the batched shared-ladder feed is
/// "ingest one window, cascade once, export once, reset": this routine
/// performs exactly that without ever materializing the CompactorSummary
/// object. It cascades a fully sorted window (given as 1..n borrowed
/// ascending views totalling `total` elements; `scratch` and `scratch2`
/// merge multi-view windows) with per-level capacity derived from `eps`
/// straight into the wire format, drawing from a generator seeded with
/// `seed` exactly the per-level coins a fresh CompactorSummary ingesting
/// the same window would draw — so the shipped summary, its serialized
/// word count (the return value), and the site RNG stream are
/// bit-identical to the node-based flush it replaces. APPENDS to
/// *values / *segments (segment ends are absolute offsets into *values),
/// so one arena can accumulate many leaf summaries; callers wanting a
/// lone summary clear both first.
uint64_t CompactSortedViewsToWire(
    double eps, uint64_t seed, const RunView* views, size_t num_views,
    size_t total, std::vector<uint64_t>* scratch,
    std::vector<uint64_t>* scratch2, std::vector<uint64_t>* values,
    std::vector<std::pair<uint64_t, uint32_t>>* segments);

}  // namespace summaries
}  // namespace disttrack

#endif  // DISTTRACK_SUMMARIES_COMPACTOR_SUMMARY_H_
