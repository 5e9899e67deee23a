#include "disttrack/rank/randomized_rank.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "disttrack/common/math_util.h"
#include "disttrack/common/small_sort.h"

namespace disttrack {
namespace rank {

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
  return r;
}

inline void RandomizedRankTracker::EmitTap(sim::wire::MsgType type,
                                           int site, uint64_t a, uint64_t b,
                                           uint64_t words,
                                           const SiteState* exports) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = type;
  msg.site = site;
  msg.epoch = coarse_->round();
  msg.a = a;
  msg.b = b;
  if (exports != nullptr) {
    msg.values = exports->export_values;
    msg.segments = exports->export_segments;
  }
  msg.paper_words = words;
  tap_->OnMessage(std::move(msg));
}

inline void RandomizedRankTracker::ApplySummary(int site, const SiteState& s,
                                                uint32_t first_leaf,
                                                uint32_t end_leaf) {
  if (!agg_.Summary(site, first_leaf, end_leaf, s.export_values.data(),
                    s.export_values.size(), s.export_segments.data(),
                    s.export_segments.size())) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: the coordinator aggregate refused "
                 "site %d's summary of leaves [%u, %u)\n",
                 site, first_leaf, end_leaf);
    std::abort();
  }
}

inline void RandomizedRankTracker::DeferUpload(int site, uint64_t words) {
  PendingUpload& pending = pending_uploads_[static_cast<size_t>(site)];
  ++pending.messages;
  pending.words += std::max<uint64_t>(1, words);
}

// Per-arrival (kBatch false) and batch delivery: every message is charged,
// tapped and applied to agg_. The batch engines post the upload charges
// in bulk at the batch end (message order inside a batch is unobservable
// to the meter: queries only happen between batches) while the frames
// are still tapped per message.
template <bool kBatch>
struct RandomizedRankTracker::ApplyPort {
  RandomizedRankTracker* t;
  void CoarseArrive(int site) {
    // Mid-batch, every site's buffered eventless run belongs to the
    // closing round: a report that will broadcast first feeds them into
    // the current nodes (which the round restart then discards, exactly
    // as the scalar path discards mid-leaf state — those arrivals stay
    // covered by the frozen residual samples), so their residual frames
    // precede the report's.
    if (kBatch && t->coarse_->ArriveBroadcasts(site)) t->FlushBufferedRuns();
    t->coarse_->Arrive(site);
  }
  void ShipSummary(int site, const SiteState& s, uint32_t first_leaf,
                   uint32_t end_leaf, uint64_t words) {
    if (kBatch) t->DeferUpload(site, words);
    else t->meter_.RecordUpload(site, words);
    t->EmitTap(sim::wire::MsgType::kRankSummary, site, first_leaf, end_leaf,
               words, &s);
    t->ApplySummary(site, s, first_leaf, end_leaf);
  }
  void ShipResidual(int site, uint32_t leaf, uint64_t value, bool store) {
    if (kBatch) t->DeferUpload(site, 2);
    else t->meter_.RecordUpload(site, 2);
    t->EmitTap(sim::wire::MsgType::kRankResidual, site, leaf, value, 2,
               nullptr);
    if (store) t->agg_.Residual(site, leaf, value);
  }
};

// Site-local state and the RNG stream advance exactly as in the serial
// execution and every frame is emitted; no n', round, meter or
// instance-storage write happens.
struct RandomizedRankTracker::ReplayPort {
  RandomizedRankTracker* t;
  void CoarseArrive(int site) { t->coarse_->ReplayArrive(site); }
  void ShipSummary(int site, const SiteState& s, uint32_t first_leaf,
                   uint32_t end_leaf, uint64_t words) {
    t->EmitTap(sim::wire::MsgType::kRankSummary, site, first_leaf, end_leaf,
               words, &s);
  }
  void ShipResidual(int site, uint32_t leaf, uint64_t value,
                    bool /*store*/) {
    t->EmitTap(sim::wire::MsgType::kRankResidual, site, leaf, value, 2,
               nullptr);
  }
};

RandomizedRankTracker::RandomizedRankTracker(
    const RandomizedRankOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)),
      agg_(options.num_sites),
      pending_uploads_(static_cast<size_t>(options.num_sites)) {
  for (int i = 0; i < options_.num_sites; ++i) {
    SiteState& s = sites_[static_cast<size_t>(i)];
    s.rng = Rng(options_.seed * 0x8CB92BA72F3D8DD7ull +
                static_cast<uint64_t>(i));
    StartFreshInstance(&s);
  }
  coarse_ = std::make_unique<count::CoarseTracker>(options_.num_sites,
                                                   &meter_);
  coarse_->AddObserver([this](uint64_t round, uint64_t n_bar) {
    OnBroadcast(round, n_bar);
  });
  countdown_.Resize(options_.num_sites);
}

double RandomizedRankTracker::LevelEps(int level) const {
  double hh = std::max(1, round_.height);
  return std::pow(2.0, -level) / std::sqrt(hh);
}

std::unique_ptr<summaries::CompactorSummary> RandomizedRankTracker::
    AcquireNode(SiteState* s, int level) {
  uint64_t seed = s->rng.NextU64();
  auto& pool = s->pool[static_cast<size_t>(level)];
  if (!pool.empty()) {
    auto node = std::move(pool.back());
    pool.pop_back();
    node->Reset(seed);
    return node;
  }
  return std::make_unique<summaries::CompactorSummary>(LevelEps(level), seed);
}

void RandomizedRankTracker::StartFreshInstance(SiteState* s) {
  s->arrivals_in_chunk = 0;
  s->arrivals_in_leaf = 0;
  s->current_leaf = 0;
  s->nodes_ready = false;
  s->pull_slack = 0;
  // Any armed leaf seed dies with the instance — exactly as a discarded
  // level-0 node (whose creation had consumed the same draw) would.
  s->leaf_seed_armed = false;
  size_t levels = static_cast<size_t>(round_.height) + 1;
  if (s->pool.size() != levels) {
    // The round's tree shape changed, and with it LevelEps and every
    // summary capacity: pooled nodes are the wrong size, drop them.
    s->pool.clear();
    s->pool.resize(levels);
    s->nodes.clear();
  } else {
    // Recycle still-active node objects — their contents are already
    // covered (shipped summaries / frozen residuals) and Reset() empties
    // them on reuse.
    for (size_t l = 0; l < s->nodes.size(); ++l) {
      if (s->nodes[l] != nullptr) {
        s->pool[l].push_back(std::move(s->nodes[l]));
      }
    }
    s->nodes.clear();
  }
  s->nodes.resize(levels);
  // Round and chunk boundaries discard in-flight tree state (completed
  // leaves are covered by shipped summaries, the tail by its frozen
  // samples); unpulled ladder data goes with it.
  s->ladder.Reset(levels);
  if (options_.use_skip_sampling) {
    // Rounds change p, which invalidates outstanding skips; chunk
    // boundaries don't, but a redraw is exact either way (independence of
    // unconsumed coins) and keeps the transition logic in one place.
    s->tail_skip.Reset(1.0 / round_.inv_p, &s->rng);
  }
}

void RandomizedRankTracker::OnBroadcast(uint64_t /*round*/, uint64_t n_bar) {
  if (grouped_chunk_active_) {
    // CoarseTracker::BatchCannotBroadcast certified this chunk; a
    // broadcast here means site-grouped processing already reordered
    // arrivals across it, so the replay silently diverged — abort loudly.
    std::fprintf(stderr,
                 "RandomizedRankTracker: broadcast inside a grouped chunk "
                 "— the broadcast-safety bound is wrong\n");
    std::abort();
  }
  // Mid-batch, every site's buffered eventless run was fed before the
  // triggering report (see BatchPort). Completed leaves of the
  // closing round are already covered by shipped summaries, and the
  // in-progress tails stay covered by their frozen residual samples;
  // sites just restart with fresh parameters.
  round_ = options_.RoundParamsFor(n_bar);
  agg_.BeginRound(round_.inv_p, round_.num_leaves);
  for (int i = 0; i < options_.num_sites; ++i) {
    StartFreshInstance(&sites_[static_cast<size_t>(i)]);
    UpdateSpace(i);
  }
  if (in_batch_) RearmAll();
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

template <typename Port>
void RandomizedRankTracker::FlushNode(int site, SiteState* s, int level,
                                      uint32_t node_start, uint32_t end_leaf,
                                      Port& port) {
  s->nodes_ready = false;
  if (level == 0 && options_.use_batch_compaction) {
    // Node-less leaf flush: cascade the leaf window straight from the
    // borrowed ladder views into the wire buffer with the armed seed's
    // coins — no node ingest, no Reset, no pool churn. Identical stored
    // content, serialized words, and RNG stream as the node-based flush.
    size_t total = s->ladder.Pull(0, &s->view_scratch);
    s->leaf_seed_armed = false;  // consumed (or dropped) with this leaf
    if (total == 0) return;
    s->export_values.clear();
    s->export_segments.clear();
    uint64_t words = summaries::CompactSortedViewsToWire(
        LevelEps(0), s->leaf_seed, s->view_scratch.data(),
        s->view_scratch.size(), total, &s->leaf_scratch, &s->leaf_scratch2,
        &s->export_values, &s->export_segments);
    port.ShipSummary(site, *s, node_start, end_leaf, words);
    return;
  }
  auto& node = s->nodes[static_cast<size_t>(level)];
  if (node == nullptr) return;
  // Drain the node's remaining ladder window and export in one fused
  // step: a final sub-threshold window merges straight from the borrowed
  // ladder storage into the wire buffer, never materializing in the node
  // (which is pooled and Reset() right after). Same stored content and
  // serialized words as pull-then-export, one to two full copies cheaper
  // per flush.
  size_t total = s->ladder.Pull(static_cast<size_t>(level), &s->view_scratch);
  if (node->m() == 0 && total == 0) {
    s->pool[static_cast<size_t>(level)].push_back(std::move(node));
    return;
  }
  uint64_t words = node->InsertViewsAndExport(
      s->view_scratch.data(), s->view_scratch.size(), total,
      &s->export_values, &s->export_segments);
  port.ShipSummary(site, *s, node_start, end_leaf, words);
  s->pool[static_cast<size_t>(level)].push_back(std::move(node));
}

void RandomizedRankTracker::UpdateSpace(int site) {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t words = 9;  // counters, ids, round parameters, skip countdown
  for (const auto& node : s.nodes) {
    if (node != nullptr) words += node->SpaceWords();
  }
  // The ladder buffers at most the largest level's pull window, charged
  // once for all h+1 levels.
  words += s.ladder.SpaceWords();
  space_.Set(site, words);
}

void RandomizedRankTracker::EnsureNodes(SiteState* s) {
  if (s->nodes_ready) return;
  for (int level = 0; level <= round_.height; ++level) {
    if (level == 0 && options_.use_batch_compaction) {
      // Node-less leaf flush: draw the seed at exactly the site-RNG
      // position node creation used to draw it; the direct leaf export
      // consumes it.
      if (!s->leaf_seed_armed) {
        s->leaf_seed = s->rng.NextU64();
        s->leaf_seed_armed = true;
      }
      continue;
    }
    auto& node = s->nodes[static_cast<size_t>(level)];
    if (node == nullptr) node = AcquireNode(s, level);
  }
  s->nodes_ready = true;
}

void RandomizedRankTracker::PumpLevels(SiteState* s, uint64_t appended) {
  // pull_slack under-estimates the appends remaining before the first
  // level trips (pulls and flushes only shrink buffers, so the bound only
  // gets more conservative); while it stays positive the level scan is
  // skipped.
  if (appended < s->pull_slack) {
    s->pull_slack -= appended;
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
  // Under the lazy feed, level 0 has no node and no pump cadence: its
  // quantum equals the leaf length, so its pulls land exactly on leaf
  // boundaries, where FlushNode drains the window itself (the node-less
  // direct export). Skipping it here also lifts pull_slack from <= one
  // leaf to the level-1 quantum, halving the scans.
  const int first_level = lazy ? 1 : 0;
  if (first_level > round_.height) {
    s->pull_slack = ~uint64_t{0};
    return;
  }
  const uint64_t top_capacity =
      s->nodes[static_cast<size_t>(round_.height)]->buffer_capacity();
  uint64_t slack = ~uint64_t{0};
  for (int level = first_level; level <= round_.height; ++level) {
    uint64_t pending = s->ladder.pending(static_cast<size_t>(level));
    auto& node = s->nodes[static_cast<size_t>(level)];
    uint64_t capacity = node->buffer_capacity();
    uint64_t quantum = 1;
    if (lazy) {
      quantum = level < 40 ? round_.block_size << level : top_capacity;
      quantum = std::min(quantum, top_capacity);
    }
    uint64_t owned = node->level0_size();
    uint64_t threshold =
        std::max(quantum, capacity > owned ? capacity - owned : 1);
    if (pending >= threshold) {
      size_t total =
          s->ladder.Pull(static_cast<size_t>(level), &s->view_scratch);
      node->InsertSortedViews(s->view_scratch.data(), s->view_scratch.size(),
                              total);
      pending = 0;
      owned = node->level0_size();
      threshold =
          std::max(quantum, capacity > owned ? capacity - owned : 1);
    }
    slack = std::min(slack, threshold - pending);
  }
  s->pull_slack = slack;
}

template <typename Port>
inline void RandomizedRankTracker::ProcessArrival(int site, uint64_t value,
                                                  Port& port) {
  port.CoarseArrive(site);
  SiteState& s = sites_[static_cast<size_t>(site)];

  if (round_.chunk_size == 1) {
    // Degenerate early-round geometry (n̄ < ~2k): one leaf, one node, one
    // element per instance. The tree would build the identical
    // single-item summary at far higher cost; ship it directly. The
    // tail-channel coin is still consumed (p = 1 here, so the forward
    // always fires and its sample is immediately covered by the shipped
    // summary — exactly what the node path's leaf-completion prune does).
    bool fwd = options_.use_skip_sampling ? s.tail_skip.Next(&s.rng)
                                          : s.rng.Bernoulli(1.0 / round_.inv_p);
    if (fwd) port.ShipResidual(site, 0, value, /*store=*/false);
    // Single-item summary: value + header.
    s.export_values.assign(1, value);
    s.export_segments.assign(1, {1, 1});
    port.ShipSummary(site, s, 0, 1, 3);
    StartFreshInstance(&s);
    return;
  }

  // Feed the active node at every level of algorithm C's tree. One
  // append serves all levels: the value lands in the ladder as a
  // one-element straggler run and each level pulls it when its own
  // compaction threshold comes due.
  EnsureNodes(&s);
  s.ladder.AppendValue(value);
  PumpLevels(&s, 1);
  s.ladder.Consolidate();

  bool completes_leaf = s.arrivals_in_leaf + 1 >= round_.block_size ||
                        s.arrivals_in_chunk + 1 >= round_.chunk_size;

  // In-progress tail channel: forward with probability p, tagged with the
  // leaf index.
  bool forward = options_.use_skip_sampling
                     ? s.tail_skip.Next(&s.rng)
                     : s.rng.Bernoulli(1.0 / round_.inv_p);
  if (forward) {
    // A sample of a leaf this very arrival completes would be dropped by
    // the leaf's summary below before any estimate can read it; charge
    // and emit it but skip storing it. (The replica stores the frame and
    // drops it on the covering summary's arrival — same estimator-visible
    // range.)
    port.ShipResidual(site, s.current_leaf, value, !completes_leaf);
  }

  ++s.arrivals_in_leaf;
  ++s.arrivals_in_chunk;
  bool chunk_done = s.arrivals_in_chunk >= round_.chunk_size;
  bool leaf_done = s.arrivals_in_leaf >= round_.block_size || chunk_done;

  if (leaf_done) {
    // Space watermark, sampled at every fourth leaf boundary plus the
    // chunk end rather than per arrival or per leaf (the nodes are at
    // their fullest right before a flush, and the per-site peak comes
    // from the top node late in the chunk, so the coarser cadence keeps
    // the recorded peak while dropping most full node scans). Intra-leaf
    // compactor transients are bounded by the same O(1/eps_l) capacity
    // the boundary reading shows.
    if ((s.current_leaf & 3u) == 3u || chunk_done) UpdateSpace(site);
    uint32_t completed_end = s.current_leaf + 1;
    for (int level = 0; level <= round_.height; ++level) {
      uint32_t node_start = (s.current_leaf >> level) << level;
      uint32_t node_end = std::min<uint32_t>(
          node_start + (1u << level), round_.num_leaves);
      if (completed_end == node_end || chunk_done) {
        if (chunk_done && level < round_.height) {
          // Every node completes at the chunk's last leaf, and the
          // top-level summary (shipped below) covers the whole chunk —
          // the coordinator's cover stack would drop the lower summaries
          // on its arrival (rank_aggregate.h), so don't build or ship
          // them. The estimate is unchanged and the
          // communication strictly drops. Unpulled ladder data for these
          // levels dies with the instance reset below.
          auto& node = s.nodes[static_cast<size_t>(level)];
          if (node != nullptr) {
            s.pool[static_cast<size_t>(level)].push_back(std::move(node));
            s.nodes_ready = false;
          }
        } else {
          // The window-closing arrival was appended above, so the
          // cursor drain fused into FlushNode hands the node exactly its
          // leaf range.
          FlushNode(site, &s, level, node_start, completed_end, port);
        }
      }
    }
    // The summaries shipped above dropped the completed leaves' tail
    // samples (the paper's estimator only uses samples from the
    // in-progress block), and the chunk's top summary froze the instance.
    if (chunk_done) {
      StartFreshInstance(&s);
    } else {
      ++s.current_leaf;
      s.arrivals_in_leaf = 0;
    }
  }
}

inline void RandomizedRankTracker::ArriveOne(int site, uint64_t value) {
  ++n_;
  DirectPort port{this};
  ProcessArrival(site, value, port);
}

void RandomizedRankTracker::Arrive(int site, uint64_t value) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ArriveOne(site, value);
}

uint64_t RandomizedRankTracker::NextEventGap(int site) const {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  // Next event: the arrival that completes the current leaf (or chunk —
  // its boundary coincides with a leaf boundary via leaf_done) or the
  // next coarse report. Tail-channel coin successes are not events: the
  // whole run sits in one leaf, so FeedRun walks the skip chain through
  // the buffered values itself — same draws at the same arrivals, same
  // residuals, with runs twice as long.
  uint64_t gap = std::min(round_.block_size - s.arrivals_in_leaf,
                          round_.chunk_size - s.arrivals_in_chunk);
  gap = std::min(gap, coarse_->arrivals_until_report(site));
  // The countdown would clamp a larger stride anyway; clamping here keeps
  // the run loop cutting runs at the same arrivals.
  return std::min<uint64_t>(gap, std::numeric_limits<uint32_t>::max());
}

void RandomizedRankTracker::RearmSite(int site) {
  // The site's run buffer may already hold eventless arrivals carried
  // over from a grouped chunk of the same batch; they count against the
  // gap (the authoritative counters advance only when the run is fed).
  countdown_.Arm(site, NextEventGap(site) -
                           sites_[static_cast<size_t>(site)].run.size());
}

void RandomizedRankTracker::RearmAll() {
  for (int i = 0; i < options_.num_sites; ++i) RearmSite(i);
}

// Retires the site's buffered arrivals, which are known to be eventless:
// every active tree level absorbs the run in one InsertBatch, the
// leaf/chunk counters advance, the tail coins are consumed failures, and
// the coarse tracker advances in bulk. By construction the run is
// strictly below every event gap, so no leaf completes and no coarse
// report (hence no broadcast) can fire here; tail forwards ship through
// the batch port.
void RandomizedRankTracker::FeedRun(int site) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t count = s.run.size();
  if (count == 0) return;
  BatchPort port{this};
  uint64_t* values = s.run.data();
  // Tail channel: walk the skip chain through the run in arrival order
  // (values are still unsorted here). Every coin lands at the same
  // arrival with the same RNG draws as the per-arrival path; successes
  // are mid-leaf by construction (leaf boundaries are events), so each
  // forwarded sample joins the residual pool.
  {
    uint64_t pos = 0;
    for (;;) {
      uint64_t skips = s.tail_skip.pending_skips();
      if (pos + skips >= count) {
        s.tail_skip.ConsumeFailures(count - pos);
        break;
      }
      pos += skips;
      s.tail_skip.ConsumeFailures(skips);
      s.tail_skip.Next(&s.rng);  // skip exhausted: success + redraw
      port.ShipResidual(site, s.current_leaf, values[pos], /*store=*/true);
      ++pos;
    }
  }
  // Every level of the tree absorbs the same run, so sort it once, in
  // place, and consolidate it once in the ladder; each level pulls
  // borrowed views of the merged sequence at its own compaction cadence.
  // Short runs (large k, dense events) go through the branch-light
  // small-run sorter; the sorted result is identical.
  SortRun(values, static_cast<size_t>(count));
  EnsureNodes(&s);
  // The buffer moves into the ladder instead of being copied; a recycled
  // one comes back.
  s.ladder.AppendSortedVector(&s.run);
  s.run.clear();
  PumpLevels(&s, count);
  s.ladder.Consolidate();
  s.arrivals_in_leaf += count;
  s.arrivals_in_chunk += count;
  coarse_->AdvanceLocalNoReport(site, count);
}

// The per-site projection of the countdown engine, without the
// per-element decrement: the site's runs are fed at the same boundaries
// (its own events; the batch end feeds the tail), so the
// sort/ladder/compaction schedule, and with it the site's RNG
// consumption, is identical.
void RandomizedRankTracker::RunSite(int site, const uint64_t* keys,
                                    size_t count) {
  BatchPort port{this};
  SiteState& s = sites_[static_cast<size_t>(site)];
  size_t pos = 0;
  while (pos < count) {
    // Arrivals until the site's next event, net of what is already
    // buffered (the authoritative counters advance only at feed time).
    uint64_t to_event = NextEventGap(site) - s.run.size();
    uint64_t avail = count - pos;
    if (avail < to_event) {
      s.run.insert(s.run.end(), keys + pos, keys + count);
      return;
    }
    s.run.insert(s.run.end(), keys + pos, keys + pos + (to_event - 1));
    pos += static_cast<size_t>(to_event);
    FeedRun(site);
    ProcessArrival(site, keys[pos - 1], port);
  }
}

void RandomizedRankTracker::FlushBufferedRuns() {
  for (int i = 0; i < options_.num_sites; ++i) FeedRun(i);
}

// The countdown for `site` hit zero: its run buffer holds the buffered
// eventless arrivals (possibly carried over from earlier chunks of the
// batch) plus the event arrival's value. Feed the eventless prefix in
// bulk (a broadcast fired by the event arrival must see nothing
// outstanding here), then process the event arrival exactly as the
// scalar path would.
void RandomizedRankTracker::HandleEventArrival(int site) {
  countdown_.TakeEventPrefix(site);
  SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t event_value = s.run.back();
  s.run.pop_back();  // the buffer now holds exactly the eventless prefix
  FeedRun(site);
  BatchPort port{this};
  ProcessArrival(site, event_value, port);
  RearmSite(site);
}

void RandomizedRankTracker::CountdownChunk(const sim::Arrival* arrivals,
                                           size_t count) {
  // Event-countdown engine: an eventless arrival costs one decrement plus
  // one buffered value. Buffered runs carry across chunk boundaries; the
  // batch-end flush reconciles them.
  in_batch_ = true;
  RearmAll();
  uint32_t* until = countdown_.until();
  for (size_t i = 0; i < count; ++i) {
    int site = arrivals[i].site;
    sim::CheckSiteInRange(site, options_.num_sites);
    sites_[static_cast<size_t>(site)].run.push_back(arrivals[i].key);
    if (--until[site] == 0) HandleEventArrival(site);
  }
  in_batch_ = false;
}

void RandomizedRankTracker::ArriveBatch(const sim::Arrival* arrivals,
                                        size_t count) {
  if (!options_.use_skip_sampling || !options_.use_batch_compaction) {
    // The reference oracles: the per-element feed (and the only exact
    // one when tail coins are drawn per arrival).
    for (size_t i = 0; i < count; ++i) {
      sim::CheckSiteInRange(arrivals[i].site, options_.num_sites);
      ArriveOne(arrivals[i].site, arrivals[i].key);
    }
    return;
  }
  // n_ is advanced up front; nothing inside the batch reads it.
  n_ += count;
  if (!grouped_enabled_) {
    CountdownChunk(arrivals, count);
  } else {
    // Site-grouped delivery: chunks certified broadcast-free are permuted
    // into site-contiguous spans and fed span-at-a-time (cache-resident
    // per-site state); chunks that may broadcast run through the countdown
    // engine unchanged. Either way runs feed at the same boundaries, so
    // the two engines interleave bit-identically.
    size_t pos = 0;
    while (pos < count) {
      size_t len = std::min(kSiteGroupChunk, count - pos);
      grouper_.ScatterBySite(arrivals + pos, len, options_.num_sites);
      // Eventless runs buffered from earlier chunks of this batch have not
      // advanced the coarse tracker yet; this chunk's events may feed them
      // through it, so they count against the broadcast projection.
      run_carry_.resize(static_cast<size_t>(options_.num_sites));
      for (int i = 0; i < options_.num_sites; ++i) {
        run_carry_[static_cast<size_t>(i)] =
            sites_[static_cast<size_t>(i)].run.size();
      }
      if (coarse_->BatchCannotBroadcast(grouper_.histogram(),
                                        run_carry_.data())) {
        grouped_chunk_active_ = true;
        for (const SiteGrouper::Span& span : grouper_.spans()) {
          RunSite(span.site, span.data, span.length);
        }
        grouped_chunk_active_ = false;
      } else {
        CountdownChunk(arrivals + pos, len);
      }
      pos += len;
    }
  }
  FlushBufferedRuns();
  FlushDeferredUploads();
}

double RandomizedRankTracker::EstimateRank(uint64_t value) const {
  return agg_.Estimate(value);
}

// --- Wire layer / crash recovery -----------------------------------------

void RandomizedRankTracker::set_wire_tap(sim::wire::WireTap* tap) {
  tap_ = tap;
  coarse_->set_wire_tap(tap);
}

bool RandomizedRankTracker::SiteSnapshotReady(int site) const {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  // At a chunk boundary the instance is fresh: no partial leaves, no
  // live nodes, no unpulled ladder data, no armed leaf seed — the site's
  // whole private state is the round parameters, the coarse counters,
  // and the RNG/skip streams. `run` holds batch-engine carry that only
  // exists mid-ArriveBatch; the robust driver feeds scalar arrivals.
  return s.arrivals_in_chunk == 0 && s.run.empty();
}

void RandomizedRankTracker::SerializeSiteState(
    int site, std::vector<uint64_t>* out) const {
  if (!SiteSnapshotReady(site)) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: snapshot of site %d requested "
                 "mid-chunk\n", site);
    std::abort();
  }
  const SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t bits = 0;
  std::memcpy(&bits, &round_.inv_p, sizeof(bits));
  out->push_back(bits);
  out->push_back(round_.chunk_size);
  out->push_back(round_.block_size);
  out->push_back(round_.num_leaves);
  out->push_back(static_cast<uint64_t>(round_.height));
  coarse_->SerializeSite(site, out);
  out->push_back(s.tail_skip.raw_skip());
  double inv_log = s.tail_skip.raw_inv_log();
  std::memcpy(&bits, &inv_log, sizeof(bits));
  out->push_back(bits);
  uint64_t rng_state[4];
  s.rng.SaveState(rng_state);
  for (uint64_t word : rng_state) out->push_back(word);
}

void RandomizedRankTracker::RestoreSiteState(
    int site, const std::vector<uint64_t>& blob) {
  if (blob.size() != 14) {
    std::fprintf(stderr, "RandomizedRankTracker: bad snapshot blob size\n");
    std::abort();
  }
  const uint64_t* data = blob.data();
  std::memcpy(&round_.inv_p, &data[0], sizeof(round_.inv_p));
  round_.chunk_size = data[1];
  round_.block_size = data[2];
  round_.num_leaves = static_cast<uint32_t>(data[3]);
  round_.height = static_cast<int>(data[4]);
  coarse_->RestoreSite(site, data + 5);
  SiteState& s = sites_[static_cast<size_t>(site)];
  double inv_log;
  std::memcpy(&inv_log, &data[9], sizeof(inv_log));
  s.tail_skip.RestoreRaw(data[8], inv_log);
  s.rng.RestoreState(data + 10);
  // Rebuild the (empty-at-snapshot) derived state for the restored
  // round's tree shape.
  s.arrivals_in_chunk = 0;
  s.arrivals_in_leaf = 0;
  s.current_leaf = 0;
  size_t levels = static_cast<size_t>(round_.height) + 1;
  s.nodes.clear();
  s.nodes.resize(levels);
  s.pool.clear();
  s.pool.resize(levels);
  s.nodes_ready = false;
  s.pull_slack = 0;
  s.leaf_seed_armed = false;
  s.ladder.Reset(levels);
  s.run.clear();
}

void RandomizedRankTracker::ReplayCrashArrive(int site, uint64_t value) {
  ReplayPort port{this};
  ProcessArrival(site, value, port);
}

void RandomizedRankTracker::ReplayCrashRitual(int site, uint64_t n_bar) {
  // Per-site half of OnBroadcast: new round parameters, fresh instance,
  // skip redraw — identical RNG draws. The coordinator half (round
  // counter, broadcast charge, other sites' restarts) is the
  // coordinator's.
  round_ = options_.RoundParamsFor(n_bar);
  StartFreshInstance(&sites_[static_cast<size_t>(site)]);
  UpdateSpace(site);
}

}  // namespace rank
}  // namespace disttrack
