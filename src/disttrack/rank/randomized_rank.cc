#include "disttrack/rank/randomized_rank.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "disttrack/common/math_util.h"
#include "disttrack/common/small_sort.h"

namespace disttrack {
namespace rank {
namespace {

// The forward rule (RoundParams::forward): a level-l node of w values
// ships about min(w, capacity) of them plus a 2-word header, once per w
// arrivals, and the tail channel ships 2 words per 1/p arrivals. When
// that sum reaches a word per arrival, forwarding every arrival is no
// dearer. A tree round then always has b >= the leaf capacity, since the
// leaf level alone costs (b + 2) / b > 1 below it.
bool Forwards(const RoundParams& r) {
  double words = 2.0 / r.inv_p;
  for (int level = 0; level <= r.height; ++level) {
    const uint64_t window = r.block_size <= (r.chunk_size >> level)
                                ? r.block_size << level
                                : r.chunk_size;
    const uint64_t capacity =
        summaries::CompactorCapacity(LevelEps(level, r.height));
    words += static_cast<double>(std::min(window, capacity) + 2) /
             static_cast<double>(window);
  }
  return words >= 1.0;
}

}  // namespace

Status RandomizedRankOptions::Validate() const {
  if (num_sites < 1) {
    return Status::InvalidArgument("num_sites must be >= 1");
  }
  if (!(epsilon > 0.0) || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (!(confidence_factor >= 1.0)) {
    return Status::InvalidArgument("confidence_factor must be >= 1");
  }
  return Status::OK();
}

RoundParams RandomizedRankOptions::RoundParamsFor(uint64_t n_bar) const {
  RoundParams r;
  double root_k = std::sqrt(static_cast<double>(num_sites));
  r.inv_p = std::max(1.0, epsilon * static_cast<double>(n_bar) /
                              (confidence_factor * root_k));
  r.chunk_size =
      std::max<uint64_t>(1, n_bar / static_cast<uint64_t>(num_sites));
  r.block_size = std::max<uint64_t>(1, static_cast<uint64_t>(r.inv_p));
  r.block_size = std::min(r.block_size, r.chunk_size);
  r.num_leaves = static_cast<uint32_t>(CeilDiv(r.chunk_size, r.block_size));
  r.height = CeilLog2(r.num_leaves);
  r.forward = Forwards(r);
  return r;
}

// --- The site ------------------------------------------------------------

RankSite::RankSite(const RandomizedRankOptions& options, int site)
    : options_(options),
      site_(site),
      rng_(options.seed * 0x8CB92BA72F3D8DD7ull +
           static_cast<uint64_t>(site)) {
  SetRound(RoundParams{});
  StartFreshInstance();
}

void RankSite::SetRound(const RoundParams& round) {
  round_ = round;
  const int height = round_.height;
  if (levels_.size() != static_cast<size_t>(height) + 1) {
    levels_.clear();
    levels_.resize(static_cast<size_t>(height) + 1);
  }
  for (int level = 0; level <= height; ++level) {
    levels_[static_cast<size_t>(level)].capacity =
        summaries::CompactorCapacity(LevelEps(level));
  }
  // Under the batched feed a level pulls at quanta of min(b * 2^level,
  // top capacity) (PumpLevels); when b * 2^level fits in the top
  // capacity, the quantum covers the node's whole span, so its one pull
  // lands on the node's last arrival and the flush drains it. Such a
  // level ingests exactly one window per node and needs no node. Level 0
  // is always node-less: its leaf window is its only window by design.
  // The exact feed pulls at every level's own fill threshold and keeps
  // every node.
  nodeless_levels_ = 0;
  if (options_.use_batch_compaction) {
    const uint64_t top_capacity = levels_.back().capacity;
    for (int level = 0; level <= height; ++level) {
      if (level == 0 || round_.block_size <= (top_capacity >> level)) {
        nodeless_levels_ |= uint64_t{1} << level;
      }
    }
  }
}

std::unique_ptr<summaries::CompactorSummary> RankSite::AcquireNode(
    int level) {
  uint64_t seed = rng_.NextU64();
  auto& pool = levels_[static_cast<size_t>(level)].pool;
  if (!pool.empty()) {
    auto node = std::move(pool.back());
    pool.pop_back();
    node->Reset(seed);
    return node;
  }
  return std::make_unique<summaries::CompactorSummary>(LevelEps(level), seed);
}

void RankSite::StartFreshInstance() {
  arrivals_in_chunk_ = 0;
  arrivals_in_leaf_ = 0;
  current_leaf_ = 0;
  pull_slack_ = 0;
  // Drawn node-less seeds die with the instance — exactly as discarded
  // nodes (whose creation had consumed the same draws) would.
  live_levels_ = 0;
  // Recycle still-active node objects — their contents are already
  // covered (shipped summaries / frozen residuals) and Reset() empties
  // them on reuse.
  for (Level& level : levels_) {
    if (level.node != nullptr) level.pool.push_back(std::move(level.node));
  }
  // Round and chunk boundaries discard in-flight tree state (completed
  // leaves are covered by shipped summaries, the tail by its frozen
  // samples); unpulled ladder data goes with it.
  ladder_.Reset(levels_.size());
  if (options_.use_skip_sampling && !round_.forward) {
    // Rounds change p, which invalidates outstanding skips; chunk
    // boundaries don't, but a redraw is exact either way (independence of
    // unconsumed coins) and keeps the transition logic in one place.
    tail_skip_.Reset(1.0 / round_.inv_p, &rng_);
  }
}

// Completed leaves of the closing round are already covered by shipped
// summaries, and the in-progress tail stays covered by its frozen
// residual samples; the site just restarts with fresh parameters.
template <typename Port>
void RankSite::Ritual(uint64_t n_bar, Port& port) {
  SetRound(options_.RoundParamsFor(n_bar));
  StartFreshInstance();
  port.Space(*this);
}

template <typename Port>
void RankSite::FlushNode(int level, uint32_t node_start, uint32_t end_leaf,
                         Port& port) {
  const uint64_t bit = uint64_t{1} << level;
  live_levels_ &= ~bit;  // the level's next node draws afresh
  Level& lv = levels_[static_cast<size_t>(level)];
  const bool nodeless = (nodeless_levels_ & bit) != 0;
  if (!nodeless && lv.node == nullptr) return;
  SiteScratch& scratch = port.scratch();
  summaries::RunView window =
      ladder_.PullMerged(static_cast<size_t>(level), &scratch.window);
  uint64_t words;
  if (nodeless) {
    // Node-less flush: the node's one window cascades straight from the
    // ladder into the wire buffer with the drawn seed's coins — no node
    // ingest, no Reset, no pool churn. Identical stored content,
    // serialized words, and RNG stream as the node-based flush.
    if (window.size == 0) return;
    scratch.export_values.clear();
    scratch.export_segments.clear();
    words = summaries::CompactSortedWindowToWire(
        lv.capacity, lv.seed, window, &scratch.export_values,
        &scratch.export_segments);
  } else {
    // Drain the node's remaining ladder window and export in one fused
    // step: a final sub-threshold window merges straight from the
    // borrowed ladder storage into the wire buffer, never materializing
    // in the node (which is pooled here and Reset() on reuse). Same
    // stored content and serialized words as pull-then-export, one to
    // two full copies cheaper per flush.
    lv.pool.push_back(std::move(lv.node));
    summaries::CompactorSummary& node = *lv.pool.back();
    if (node.m() == 0 && window.size == 0) return;
    words = node.InsertWindowAndExport(window, &scratch.export_values,
                                       &scratch.export_segments);
  }
  if (nodes_.size() <= static_cast<size_t>(level)) {
    nodes_.resize(static_cast<size_t>(level) + 1);
  }
  ++nodes_[static_cast<size_t>(level)];
  port.ShipSummary(site_, node_start, end_leaf, words);
}

uint64_t RankSite::SpaceWords() const {
  uint64_t words = 9;  // counters, ids, round parameters, skip countdown
  for (const Level& level : levels_) {
    if (level.node != nullptr) words += level.node->SpaceWords();
  }
  // The ladder buffers at most the largest level's pull window, charged
  // once for all h+1 levels.
  return words + ladder_.SpaceWords();
}

void RankSite::EnsureNodes() {
  const uint64_t missing =
      ((uint64_t{2} << round_.height) - 1) & ~live_levels_;
  // Levels draw in level order. A node-less level draws its seed at
  // exactly the site-RNG position node creation would draw it; its flush
  // consumes it.
  for (uint64_t m = missing; m != 0; m &= m - 1) {
    const int level = __builtin_ctzll(m);
    Level& lv = levels_[static_cast<size_t>(level)];
    if (((nodeless_levels_ >> level) & 1) != 0) {
      lv.seed = rng_.NextU64();
    } else {
      lv.node = AcquireNode(level);
    }
  }
  live_levels_ |= missing;
}

void RankSite::PumpLevels(uint64_t appended, SiteScratch* scratch) {
  // pull_slack under-estimates the appends remaining before the first
  // level trips (pulls and flushes only shrink buffers, so the bound only
  // gets more conservative); while it stays positive the level scan is
  // skipped.
  if (appended < pull_slack_) {
    pull_slack_ -= appended;
    return;
  }
  // The exact feed pulls each level exactly when its fill reaches the
  // compaction threshold (the singleton granularity makes the trigger
  // exact), so every level compacts the same multiset at the same points
  // as a per-element Insert into that level would.
  //
  // The batched feed instead defers every level to dyadic pull quanta,
  // min(2^level * b, top capacity): fewer, larger compactions — the same
  // mean-zero ±2^level martingale steps of the batched-compaction
  // argument, with strictly fewer of them — which takes the per-run
  // cascade overhead off the short-run regime where events arrive every
  // O(b) elements. Two structural effects matter as much as the count:
  // cursors come to rest only at nested dyadic leaf boundaries (or the
  // top-capacity cadence), so the boundaries they pin in the ladder
  // coincide instead of fragmenting every higher window, and a level
  // whose whole node window fits in one quantum ingests it as a single
  // consolidated run. The top level still pulls at its own capacity, so
  // the ladder's footprint stays at the one window it already buffers.
  const bool lazy = options_.use_batch_compaction;
  const uint64_t top_capacity = levels_.back().capacity;
  uint64_t slack = ~uint64_t{0};
  for (int level = 0; level <= round_.height; ++level) {
    // A node-less level has no pump cadence: FlushNode drains its node's
    // whole window at once (its quantum covers the node, so the pump
    // would pull only on the node's last arrival; level 0 by design).
    // Skipping these levels also lifts pull_slack to the lowest node
    // level's quantum.
    if (((nodeless_levels_ >> level) & 1) != 0) continue;
    uint64_t pending = ladder_.pending(static_cast<size_t>(level));
    auto& node = levels_[static_cast<size_t>(level)].node;
    uint64_t capacity = levels_[static_cast<size_t>(level)].capacity;
    uint64_t quantum = 1;
    if (lazy) {
      quantum = level < 40 ? round_.block_size << level : top_capacity;
      quantum = std::min(quantum, top_capacity);
    }
    uint64_t owned = node->level0_size();
    uint64_t threshold =
        std::max(quantum, capacity > owned ? capacity - owned : 1);
    if (pending >= threshold) {
      // Levels due together pull the same window; PullMerged merges it
      // once and every such level ingests the one copy.
      node->InsertSortedWindow(
          ladder_.PullMerged(static_cast<size_t>(level), &scratch->window));
      pending = 0;
      owned = node->level0_size();
      threshold =
          std::max(quantum, capacity > owned ? capacity - owned : 1);
    }
    slack = std::min(slack, threshold - pending);
  }
  pull_slack_ = slack;
}

template <typename Port>
void RankSite::Arrive(uint64_t value, Port& port) {
  if (uint64_t delta = coarse_.Arrive()) port.CoarseReport(site_, delta);
  // The report may have broadcast: the arrival belongs to the new round.
  if (round_.forward) {
    port.ShipForwards(site_, &value, 1);
    return;
  }

  // Feed the active node at every level of algorithm C's tree. One
  // append serves all levels: the value lands in the ladder as a
  // one-element straggler run and each level pulls it when its own
  // compaction threshold comes due.
  EnsureNodes();
  ladder_.AppendValue(value);
  PumpLevels(1, &port.scratch());
  ladder_.Consolidate();

  bool completes_leaf = arrivals_in_leaf_ + 1 >= round_.block_size ||
                        arrivals_in_chunk_ + 1 >= round_.chunk_size;

  // In-progress tail channel: forward with probability p, tagged with the
  // leaf index.
  bool forward = options_.use_skip_sampling
                     ? tail_skip_.Next(&rng_)
                     : rng_.Bernoulli(1.0 / round_.inv_p);
  if (forward) {
    // A sample of a leaf this very arrival completes would be dropped by
    // the leaf's summary below before any estimate can read it; charge
    // and emit it but skip storing it. (The replica stores the frame and
    // drops it on the covering summary's arrival — same estimator-visible
    // range.)
    port.ShipResidual(site_, current_leaf_, value, !completes_leaf);
  }

  ++arrivals_in_leaf_;
  ++arrivals_in_chunk_;
  bool chunk_done = arrivals_in_chunk_ >= round_.chunk_size;
  bool leaf_done = arrivals_in_leaf_ >= round_.block_size || chunk_done;
  if (!leaf_done) return;

  // Space watermark, sampled at every fourth leaf boundary plus the chunk
  // end rather than per arrival or per leaf (the nodes are at their
  // fullest right before a flush, and the per-site peak comes from the
  // top node late in the chunk, so the coarser cadence keeps the
  // recorded peak while dropping most full node scans). Intra-leaf
  // compactor transients are bounded by the same O(1/eps_l) capacity the
  // boundary reading shows.
  if ((current_leaf_ & 3u) == 3u || chunk_done) port.Space(*this);
  uint32_t completed_end = current_leaf_ + 1;
  for (int level = 0; level <= round_.height; ++level) {
    uint32_t node_start = (current_leaf_ >> level) << level;
    uint32_t node_end =
        std::min<uint32_t>(node_start + (1u << level), round_.num_leaves);
    if (completed_end != node_end && !chunk_done) continue;
    if (chunk_done && level < round_.height) {
      // Every node completes at the chunk's last leaf, and the top-level
      // summary (shipped below) covers the whole chunk — the
      // coordinator's cover stack would drop the lower summaries on its
      // arrival (rank_aggregate.h), so don't build or ship them. The
      // estimate is unchanged and the communication strictly drops.
      // Unpulled ladder data for these levels dies with the instance
      // reset below.
      Level& lv = levels_[static_cast<size_t>(level)];
      if (lv.node != nullptr) lv.pool.push_back(std::move(lv.node));
    } else {
      // The window-closing arrival was appended above, so the cursor
      // drain fused into FlushNode hands the node exactly its leaf range.
      FlushNode(level, node_start, completed_end, port);
    }
  }
  // The summaries shipped above dropped the completed leaves' tail
  // samples (the paper's estimator only uses samples from the
  // in-progress block), and the chunk's top summary froze the instance.
  if (chunk_done) {
    StartFreshInstance();
  } else {
    ++current_leaf_;
    arrivals_in_leaf_ = 0;
  }
}

uint64_t RankSite::NextEventGap() const {
  // Next event: the arrival that completes the current leaf (or chunk —
  // its boundary coincides with a leaf boundary via leaf_done) or the
  // next coarse report. Tail-channel coin successes are not events: the
  // whole run sits in one leaf, so Settle walks the skip chain through
  // the buffered values itself — same draws at the same arrivals, same
  // residuals, with runs twice as long.
  uint64_t gap = std::min(round_.block_size - arrivals_in_leaf_,
                          round_.chunk_size - arrivals_in_chunk_);
  return std::min(gap, coarse_.arrivals_until_report());
}

// The run is strictly below every event gap, so no leaf completes and no
// coarse report (hence no broadcast) can fire here: every active tree
// level absorbs the run, the leaf/chunk counters advance, the tail coins
// are consumed, and the coarse site advances in bulk.
template <typename Port>
void RankSite::Settle(Port& port) {
  uint64_t count = run_.size();
  if (count == 0) return;
  uint64_t* values = run_.data();
  // Tail channel: walk the skip chain through the run in arrival order
  // (values are still unsorted here). Every coin lands at the same
  // arrival with the same RNG draws as the per-arrival path; successes
  // are mid-leaf by construction (leaf boundaries are events), so each
  // forwarded sample joins the residual pool.
  for (uint64_t pos = 0;;) {
    uint64_t skips = tail_skip_.pending_skips();
    if (pos + skips >= count) {
      tail_skip_.ConsumeFailures(count - pos);
      break;
    }
    pos += skips;
    tail_skip_.ConsumeFailures(skips);
    tail_skip_.Next(&rng_);  // skip exhausted: success + redraw
    port.ShipResidual(site_, current_leaf_, values[pos], /*store=*/true);
    ++pos;
  }
  // Every level of the tree absorbs the same run, so sort it once, in
  // place, and consolidate it once in the ladder; each level pulls a
  // borrowed window of the merged sequence at its own compaction cadence.
  // SortRun picks a network, std::sort or a radix sort by length and key
  // width; the sorted result is identical.
  SiteScratch& scratch = port.scratch();
  SortRun(values, static_cast<size_t>(count), &scratch.sort);
  EnsureNodes();
  // The buffer moves into the ladder instead of being copied; a recycled
  // one comes back.
  ladder_.AppendSortedVector(&run_);
  run_.clear();
  PumpLevels(count, &scratch);
  ladder_.Consolidate();
  arrivals_in_leaf_ += count;
  arrivals_in_chunk_ += count;
  coarse_.AdvanceNoReport(count);
}

// A site's runs are fed at its own events (and at Settle), however its
// arrivals are split into calls, so the sort/ladder/compaction schedule,
// and with it the site's RNG consumption, does not depend on the split.
template <typename Port>
void RankSite::ArriveRun(const uint64_t* values, size_t n, Port& port) {
  if (!options_.use_skip_sampling || !options_.use_batch_compaction) {
    for (size_t i = 0; i < n; ++i) Arrive(values[i], port);
    return;
  }
  size_t pos = 0;
  while (pos < n) {
    if (round_.forward) {
      // Nothing is buffered in a forward round: ship up to the arrival
      // that reports, which takes Arrive (its report may broadcast).
      const size_t m = static_cast<size_t>(
          std::min<uint64_t>(n - pos, coarse_.arrivals_until_report() - 1));
      coarse_.AdvanceNoReport(m);
      port.ShipForwards(site_, values + pos, m);
      pos += m;
      if (pos < n) Arrive(values[pos++], port);
      continue;
    }
    // Arrivals until the next event, net of what is already buffered
    // (the site's counters advance only at feed time).
    uint64_t to_event = NextEventGap() - run_.size();
    if (n - pos < to_event) {
      run_.insert(run_.end(), values + pos, values + n);
      return;
    }
    run_.insert(run_.end(), values + pos, values + pos + (to_event - 1));
    pos += static_cast<size_t>(to_event);
    Settle(port);
    Arrive(values[pos - 1], port);
  }
}

void RankSite::TapPort::ShipSummary(int site, uint32_t first_leaf,
                                    uint32_t end_leaf, uint64_t words) const {
  if (tap == nullptr) return;
  sim::wire::Message msg;
  msg.type = sim::wire::MsgType::kRankSummary;
  msg.site = site;
  msg.a = first_leaf;
  msg.b = end_leaf;
  msg.values.assign(own.export_values.begin(), own.export_values.end());
  msg.segments = own.export_segments;
  msg.paper_words = words;
  tap->OnMessage(std::move(msg));
}

template void RankSite::Arrive(uint64_t, RankSite::TapPort&);
template void RankSite::Ritual(uint64_t, RankSite::TapPort&);

void RankSite::Serialize(std::vector<uint64_t>* out) const {
  if (!SnapshotReady()) {
    std::fprintf(stderr,
                 "RankSite: snapshot of site %d requested mid-chunk\n", site_);
    std::abort();
  }
  uint64_t words[kBlobWords];
  std::memcpy(&words[0], &round_.inv_p, sizeof(words[0]));
  words[1] = round_.chunk_size;
  words[2] = round_.block_size;
  words[3] = round_.num_leaves;
  words[4] = static_cast<uint64_t>(round_.height);
  coarse_.Save(words + 5);
  tail_skip_.Save(words + 5 + count::CoarseSite::kWords);
  rng_.SaveState(words + 7 + count::CoarseSite::kWords);
  out->insert(out->end(), words, words + kBlobWords);
}

bool RankSite::Restore(const std::vector<uint64_t>& blob) {
  // A 32-bit leaf count bounds the tree at 32 levels.
  if (blob.size() != kBlobWords || blob[4] > 32) return false;
  const uint64_t* data = blob.data();
  RoundParams round;
  std::memcpy(&round.inv_p, &data[0], sizeof(round.inv_p));
  round.chunk_size = data[1];
  round.block_size = data[2];
  round.num_leaves = static_cast<uint32_t>(data[3]);
  round.height = static_cast<int>(data[4]);
  round.forward = Forwards(round);
  // The (empty-at-snapshot) instance state for the restored round's tree
  // shape; the streams are then overwritten with the saved ones.
  levels_.clear();
  SetRound(round);
  StartFreshInstance();
  coarse_.Restore(data + 5);
  tail_skip_.Restore(data + 5 + count::CoarseSite::kWords);
  rng_.RestoreState(data + 7 + count::CoarseSite::kWords);
  return true;
}

// --- The tracker ---------------------------------------------------------

inline void RandomizedRankTracker::EmitTap(sim::wire::MsgType type,
                                           int site, uint64_t a, uint64_t b,
                                           uint64_t words,
                                           const SiteScratch* exports) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = type;
  msg.site = site;
  msg.epoch = coarse_.round();
  msg.a = a;
  msg.b = b;
  if (exports != nullptr) {
    msg.values.assign(exports->export_values.begin(),
                      exports->export_values.end());
    msg.segments = exports->export_segments;
  }
  msg.paper_words = words;
  tap_->OnMessage(std::move(msg));
}

inline void RandomizedRankTracker::ApplySummary(int site,
                                                uint32_t first_leaf,
                                                uint32_t end_leaf) {
  const SiteScratch& s = scratch_;
  if (!agg_.Summary(site, coarse_.round(), first_leaf, end_leaf,
                    s.export_values.data(), s.export_values.size(),
                    s.export_segments.data(), s.export_segments.size())) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: the coordinator aggregate refused "
                 "site %d's summary of leaves [%u, %u)\n",
                 site, first_leaf, end_leaf);
    std::abort();
  }
}

inline void RandomizedRankTracker::DeferUpload(int site, uint64_t words,
                                               uint64_t messages) {
  PendingUpload& pending = pending_uploads_[static_cast<size_t>(site)];
  pending.messages += messages;
  pending.words += messages * std::max<uint64_t>(1, words);
}

// Per-arrival (kBatch false) and batch delivery: every message is charged,
// tapped and applied to agg_. The batch engine posts the upload charges
// in bulk at the batch end (message order inside a batch is unobservable
// to the meter: queries only happen between batches) while the frames
// are still tapped per message.
template <bool kBatch>
struct RandomizedRankTracker::ApplyPort {
  RandomizedRankTracker* t;
  SiteScratch& scratch() { return t->scratch_; }
  void CoarseReport(int site, uint64_t delta) {
    // Mid-batch, every site's buffered eventless run belongs to the
    // closing round: a report that will broadcast first feeds them into
    // the current nodes (which the round restart then discards, exactly
    // as the scalar path discards mid-leaf state — those arrivals stay
    // covered by the frozen residual samples), so their residual frames
    // precede the report's.
    if (kBatch && t->coarse_.WouldBroadcast(delta)) t->SettleSites();
    t->coarse_.Report(site, delta);
  }
  void ShipSummary(int site, uint32_t first_leaf, uint32_t end_leaf,
                   uint64_t words) {
    if (kBatch) t->DeferUpload(site, words);
    else t->meter_.RecordUpload(site, words);
    t->EmitTap(sim::wire::MsgType::kRankSummary, site, first_leaf, end_leaf,
               words, &t->scratch_);
    t->ApplySummary(site, first_leaf, end_leaf);
  }
  void ShipResidual(int site, uint32_t leaf, uint64_t value, bool store) {
    if (kBatch) t->DeferUpload(site, 2);
    else t->meter_.RecordUpload(site, 2);
    t->EmitTap(sim::wire::MsgType::kRankResidual, site, leaf, value, 2,
               nullptr);
    if (store) t->agg_.Residual(site, t->coarse_.round(), leaf, value);
  }
  void ShipForwards(int site, const uint64_t* values, size_t n) {
    if (kBatch) t->DeferUpload(site, 1, n);
    else t->meter_.RecordUploadBulk(site, n, n);
    for (size_t i = 0; i < n; ++i) {
      t->EmitTap(sim::wire::MsgType::kRankForward, site, values[i], 0, 1,
                 nullptr);
    }
    t->agg_.Forwards(t->coarse_.round(), values, n);
  }
  void Space(const RankSite& s) { t->space_.Set(s.id(), s.SpaceWords()); }
};

RandomizedRankTracker::RandomizedRankTracker(
    const RandomizedRankOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      coarse_(&meter_),
      agg_(options.num_sites),
      pending_uploads_(static_cast<size_t>(options.num_sites)),
      run_carry_(static_cast<size_t>(options.num_sites)) {
  sites_.reserve(static_cast<size_t>(options_.num_sites));
  for (int i = 0; i < options_.num_sites; ++i) sites_.emplace_back(options_, i);
  coarse_.AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
}

void RandomizedRankTracker::OnBroadcast(uint64_t /*round*/, uint64_t n_bar) {
  // Mid-batch, every site's buffered eventless run was fed before the
  // triggering report (see BatchPort).
  DirectPort port{this};
  for (RankSite& site : sites_) site.Ritual(n_bar, port);
  agg_.BeginRound(sites_[0].round());
}

void RandomizedRankTracker::FlushDeferredUploads() {
  for (int i = 0; i < options_.num_sites; ++i) {
    PendingUpload& pending = pending_uploads_[static_cast<size_t>(i)];
    if (pending.messages == 0) continue;
    // disttrack-lint: allow(meter-tap) -- batch-fold: the per-arrival
    // port charges per message; this posts one batch's deferred per-site
    // charges in bulk with max(1, payload) already applied, and their
    // frames were tapped per message as they shipped.
    meter_.RecordUploadBulk(i, pending.messages, pending.words);
    pending.messages = 0;
    pending.words = 0;
  }
}

void RandomizedRankTracker::Arrive(int site, uint64_t value) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ++n_;
  DirectPort port{this};
  sites_[static_cast<size_t>(site)].Arrive(value, port);
}

void RandomizedRankTracker::SettleSites() {
  BatchPort port{this};
  for (RankSite& site : sites_) site.Settle(port);
}

void RandomizedRankTracker::ArriveBatch(const sim::Arrival* arrivals,
                                        size_t count) {
  // n_ is advanced up front; nothing inside the batch reads it. Each
  // chunk's spans are fed span-at-a-time (cache-resident per-site state).
  n_ += count;
  coarse_.DeliverChunks(
      sites_, arrivals, count, chunk_, run_carry_.data(),
      [this](const sim::Arrival* chunk, size_t len) {
        grouper_.ScatterBySite(chunk, len, options_.num_sites);
        // Eventless runs buffered from earlier chunks of this batch have
        // not advanced the coarse sites yet; this chunk's events may feed
        // them through it, so they count as carry.
        for (size_t i = 0; i < sites_.size(); ++i) {
          run_carry_[i] = sites_[i].buffered();
        }
        return grouper_.histogram();
      },
      [this] {
        BatchPort port{this};
        for (const SiteGrouper::Span& span : grouper_.spans()) {
          sites_[static_cast<size_t>(span.site)].ArriveRun(
              span.data, span.length, port);
        }
      });
  SettleSites();
  FlushDeferredUploads();
}

double RandomizedRankTracker::EstimateRank(uint64_t value) const {
  return agg_.Estimate(value);
}

void RandomizedRankTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_.set_wire_tap(tap);
}

}  // namespace rank
}  // namespace disttrack
