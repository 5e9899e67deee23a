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

RandomizedRankTracker::RandomizedRankTracker(
    const RandomizedRankOptions& options)
    : options_(options),
      meter_(options.num_sites),
      space_(options.num_sites),
      sites_(static_cast<size_t>(options.num_sites)),
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
  double hh = std::max(1, height_);
  return std::pow(2.0, -level) / std::sqrt(hh);
}

void RandomizedRankTracker::RecomputeRoundParams(uint64_t n_bar) {
  double root_k = std::sqrt(static_cast<double>(options_.num_sites));
  inv_p_ = std::max(1.0, options_.epsilon * static_cast<double>(n_bar) /
                             (options_.confidence_factor * root_k));
  chunk_size_ = std::max<uint64_t>(
      1, n_bar / static_cast<uint64_t>(options_.num_sites));
  block_size_ = std::max<uint64_t>(1, static_cast<uint64_t>(inv_p_));
  block_size_ = std::min(block_size_, chunk_size_);
  num_leaves_ = static_cast<uint32_t>(CeilDiv(chunk_size_, block_size_));
  height_ = CeilLog2(num_leaves_);
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
  size_t levels = static_cast<size_t>(height_) + 1;
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
  if (options_.use_shared_ladder) {
    // Round and chunk boundaries discard in-flight tree state (completed
    // leaves are covered by shipped summaries, the tail by its frozen
    // samples); unpulled ladder data goes with it.
    s->ladder.Reset(levels);
  }
  if (crash_replay_ && detached_replay_) {
    // Detached site process: no journaled instances to walk and nothing
    // is ever stored into idata in replay mode, so one scratch instance
    // serves every round/chunk transition (keeps the long-lived site at
    // O(1) instance memory).
    if (s->owned_instances.empty()) s->owned_instances.emplace_back();
    s->idata = &s->owned_instances.back();
    s->idata->inv_p = inv_p_;
  } else if (crash_replay_) {
    // The coordinator-side instance storage survived the crash: advance
    // the replay cursor through the instances the original execution
    // created instead of appending duplicates.
    ++replay_cursor_;
    if (replay_cursor_ >= s->owned_instances.size()) {
      std::fprintf(stderr,
                   "RandomizedRankTracker: crash replay created more "
                   "instances than the original execution\n");
      std::abort();
    }
    s->idata = &s->owned_instances[replay_cursor_];
    if (s->idata->inv_p != inv_p_) {
      std::fprintf(stderr,
                   "RandomizedRankTracker: crash replay diverged — "
                   "instance %zu round p mismatch\n", replay_cursor_);
      std::abort();
    }
  } else {
    s->owned_instances.emplace_back();
    s->idata = &s->owned_instances.back();
    s->idata->inv_p = inv_p_;
  }
  if (options_.use_skip_sampling) {
    // Rounds change p, which invalidates outstanding skips; chunk
    // boundaries don't, but a redraw is exact either way (independence of
    // unconsumed coins) and keeps the transition logic in one place.
    s->tail_skip.Reset(1.0 / inv_p_, &s->rng);
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
  // Mid-batch, every site's buffered eventless run belongs to the closing
  // round: feed it into the current nodes (which the restart below then
  // discards, exactly as the scalar path discards mid-leaf state — those
  // arrivals stay covered by the frozen residual samples).
  if (in_batch_) FlushBufferedRuns();
  // Completed leaves of the closing round are already covered by shipped
  // summaries, and the in-progress tails stay covered by their frozen
  // residual samples; sites just restart with fresh parameters.
  RecomputeRoundParams(n_bar);
  for (int i = 0; i < options_.num_sites; ++i) {
    StartFreshInstance(&sites_[static_cast<size_t>(i)]);
    UpdateSpace(i);
  }
  if (in_batch_) RearmAll();
}

RandomizedRankTracker::StoredSummary RandomizedRankTracker::TakeStored(
    SiteState* s) {
  if (s->stored_pool.empty()) return StoredSummary{};
  StoredSummary stored = std::move(s->stored_pool.back());
  s->stored_pool.pop_back();
  stored.values.clear();
  stored.segments.clear();
  return stored;
}

void RandomizedRankTracker::RecycleStored(SiteState* s,
                                          StoredSummary&& stored) {
  if (s->stored_pool.size() < 256) {
    s->stored_pool.push_back(std::move(stored));
  }
}

void RandomizedRankTracker::Upload(int site, uint64_t words) {
  if (crash_replay_) return;  // the pre-crash execution already charged it
  if (shard_mode_) {
    ShardSink& sink = shard_sinks_[static_cast<size_t>(site)];
    ++sink.messages;
    sink.words += std::max<uint64_t>(1, words);
  } else if (defer_uploads_) {
    // Plain batch in flight: accumulate and post in bulk at batch end.
    PendingUpload& pending = pending_uploads_[static_cast<size_t>(site)];
    ++pending.messages;
    pending.words += std::max<uint64_t>(1, words);
  } else {
    // disttrack-lint: allow(meter-tap) -- charge-helper: every caller
    // pairs this charge with its own frame emit (EmitSummaryFrame /
    // EmitResidualFrame immediately at the call site); the helper
    // itself has no message payload to tap.
    meter_.RecordUpload(site, words);
  }
}

void RandomizedRankTracker::FlushDeferredUploads() {
  for (int i = 0; i < options_.num_sites; ++i) {
    PendingUpload& pending = pending_uploads_[static_cast<size_t>(i)];
    if (pending.messages == 0) continue;
    // disttrack-lint: allow(meter-tap) -- batch-fold: the scalar path
    // charges per message; this replays one batch's deferred per-site
    // charges in bulk with max(1, payload) already applied, and the
    // deferral is off whenever a tap or replay needs per-message order.
    meter_.RecordUploadBulk(i, pending.messages, pending.words);
    pending.messages = 0;
    pending.words = 0;
  }
}

void RandomizedRankTracker::CoarseArriveOne(int site) {
  if (crash_replay_) {
    // Site-local coarse advance, frame re-emission, and — when the
    // journal says this arrival's report triggered a broadcast — the
    // per-site half of the round ritual, at the exact point the original
    // execution performed it (before this arrival's value feeds the
    // tree). No n', meter, or round writes: the coordinator kept those.
    uint64_t delta = coarse_->ArriveLocal(site);
    if (delta > 0 && tap_ != nullptr) {
      sim::wire::Message msg;
      msg.type = sim::wire::MsgType::kCoarseReport;
      msg.site = site;
      msg.epoch = coarse_->round();
      msg.a = delta;
      msg.paper_words = 1;
      tap_->OnMessage(std::move(msg));
    }
    if (replay_mid_n_bar_ != nullptr) {
      if (delta == 0) {
        std::fprintf(stderr,
                     "RandomizedRankTracker: journaled mid-arrival "
                     "broadcast at an arrival with no coarse report\n");
        std::abort();
      }
      uint64_t n_bar = *replay_mid_n_bar_;
      replay_mid_n_bar_ = nullptr;
      ReplayCrashRitual(site, n_bar);
    }
    return;
  }
  if (shard_mode_) {
    if (uint64_t delta = coarse_->ArriveLocal(site)) {
      shard_sinks_[static_cast<size_t>(site)].coarse_deltas.push_back(delta);
    }
  } else {
    coarse_->Arrive(site);
  }
}

void RandomizedRankTracker::FlushNode(int site, SiteState* s, int level,
                                      uint32_t node_start,
                                      uint32_t end_leaf) {
  s->nodes_ready = false;
  if (level == 0 && options_.use_shared_ladder &&
      options_.use_batch_compaction) {
    // Node-less leaf flush: cascade the leaf window straight from the
    // borrowed ladder views into the wire buffer with the armed seed's
    // coins — no node ingest, no Reset, no pool churn. Identical stored
    // content, serialized words, and RNG stream as the node-based flush.
    size_t total = s->ladder.Pull(0, &s->view_scratch);
    s->leaf_seed_armed = false;  // consumed (or dropped) with this leaf
    if (total == 0) return;
    if (tap_ == nullptr && !crash_replay_) {
      // Arena flush: the summary compacts straight into the instance's
      // shared leaf arena (CompactSortedViewsToWire appends; segment
      // ends are absolute) and is addressed by a LeafRef — no
      // per-summary vectors, no pool churn, O(1) chunk-end prune. Taps
      // and replay keep the StoredSummary path below so wire frames stay
      // byte-for-byte identical.
      InstanceData& data = *s->idata;
      auto values_begin = static_cast<uint32_t>(data.leaf_values.size());
      auto seg_begin = static_cast<uint32_t>(data.leaf_segments.size());
      uint64_t words = summaries::CompactSortedViewsToWire(
          LevelEps(0), s->leaf_seed, s->view_scratch.data(),
          s->view_scratch.size(), total, &s->leaf_scratch,
          &s->leaf_scratch2, &data.leaf_values, &data.leaf_segments);
      data.leaf_refs.push_back(
          LeafRef{node_start, end_leaf, values_begin, seg_begin,
                  static_cast<uint32_t>(data.leaf_segments.size())});
      Upload(site, words);
      return;
    }
    StoredSummary stored = TakeStored(s);
    stored.first_leaf = node_start;
    stored.end_leaf = end_leaf;
    uint64_t words = summaries::CompactSortedViewsToWire(
        LevelEps(0), s->leaf_seed, s->view_scratch.data(),
        s->view_scratch.size(), total, &s->leaf_scratch, &s->leaf_scratch2,
        &stored.values, &stored.segments);
    Upload(site, words);
    EmitSummaryFrame(site, stored, words);
    if (crash_replay_) {
      RecycleStored(s, std::move(stored));  // original already stored it
    } else {
      s->idata->summaries.push_back(std::move(stored));
    }
    return;
  }
  auto& node = s->nodes[static_cast<size_t>(level)];
  if (node == nullptr) return;
  if (options_.use_shared_ladder) {
    // Drain the node's remaining ladder window and export in one fused
    // step: a final sub-threshold window merges straight from the
    // borrowed ladder storage into the wire buffer, never materializing
    // in the node (which is pooled and Reset() right after). Same stored
    // content and serialized words as pull-then-export, one to two full
    // copies cheaper per flush.
    size_t total =
        s->ladder.Pull(static_cast<size_t>(level), &s->view_scratch);
    if (node->m() == 0 && total == 0) {
      s->pool[static_cast<size_t>(level)].push_back(std::move(node));
      return;
    }
    StoredSummary stored = TakeStored(s);
    stored.first_leaf = node_start;
    stored.end_leaf = end_leaf;
    uint64_t words = node->InsertViewsAndExport(
        s->view_scratch.data(), s->view_scratch.size(), total,
        &stored.values, &stored.segments);
    Upload(site, words);
    EmitSummaryFrame(site, stored, words);
    if (crash_replay_) {
      RecycleStored(s, std::move(stored));
    } else {
      s->idata->summaries.push_back(std::move(stored));
    }
    s->pool[static_cast<size_t>(level)].push_back(std::move(node));
    return;
  }
  if (node->m() == 0) {
    s->pool[static_cast<size_t>(level)].push_back(std::move(node));
    return;
  }
  // Site -> coordinator: the serialized summary.
  uint64_t words = node->SerializedWords();
  Upload(site, words);

  StoredSummary stored = TakeStored(s);
  stored.first_leaf = node_start;
  stored.end_leaf = end_leaf;
  node->ExportLevels(&stored.values, &stored.segments);
  EmitSummaryFrame(site, stored, words);
  if (crash_replay_) {
    RecycleStored(s, std::move(stored));
  } else {
    s->idata->summaries.push_back(std::move(stored));
  }
  s->pool[static_cast<size_t>(level)].push_back(std::move(node));
}

void RandomizedRankTracker::UpdateSpace(int site) {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t words = 9;  // counters, ids, round parameters, skip countdown
  for (const auto& node : s.nodes) {
    if (node != nullptr) words += node->SpaceWords();
  }
  // The ladder buffers at most the largest level's pull window — the
  // staging memory it removed from the h+1 nodes, charged once.
  words += s.ladder.SpaceWords();
  space_.Set(site, words);
}

void RandomizedRankTracker::EnsureNodes(SiteState* s) {
  if (s->nodes_ready) return;
  for (int level = 0; level <= height_; ++level) {
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
  // Exact feeds pull exactly when staging the same data would have
  // tripped the level's compaction threshold, so both paths compact the
  // identical multiset at the identical points and stay bit-identical
  // (the singleton granularity makes the trigger exact).
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
  if (first_level > height_) {
    s->pull_slack = ~uint64_t{0};
    return;
  }
  const uint64_t top_capacity =
      s->nodes[static_cast<size_t>(height_)]->buffer_capacity();
  uint64_t slack = ~uint64_t{0};
  for (int level = first_level; level <= height_; ++level) {
    uint64_t pending = s->ladder.pending(static_cast<size_t>(level));
    auto& node = s->nodes[static_cast<size_t>(level)];
    uint64_t capacity = node->buffer_capacity();
    uint64_t quantum = 1;
    if (lazy) {
      quantum = level < 40 ? block_size_ << level : top_capacity;
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

inline void RandomizedRankTracker::ProcessArrival(int site, uint64_t value) {
  CoarseArriveOne(site);
  SiteState& s = sites_[static_cast<size_t>(site)];

  if (chunk_size_ == 1) {
    // Degenerate early-round geometry (n̄ < ~2k): one leaf, one node, one
    // element per instance. The tree would build the identical
    // single-item summary at far higher cost; ship it directly. The
    // tail-channel coin is still consumed (p = 1 here, so the forward
    // always fires and its sample is immediately covered by the shipped
    // summary — exactly what the node path's leaf-completion prune does).
    bool fwd = options_.use_skip_sampling ? s.tail_skip.Next(&s.rng)
                                          : s.rng.Bernoulli(1.0 / inv_p_);
    if (fwd) {
      Upload(site, 2);
      EmitResidualFrame(site, 0, value);
    }
    Upload(site, 3);  // single-item summary: value + header
    StoredSummary stored = TakeStored(&s);
    stored.first_leaf = 0;
    stored.end_leaf = 1;
    stored.values.push_back(value);
    stored.segments.emplace_back(1, 1);
    EmitSummaryFrame(site, stored, 3);
    if (crash_replay_) {
      RecycleStored(&s, std::move(stored));
    } else {
      s.idata->summaries.push_back(std::move(stored));
    }
    StartFreshInstance(&s);
    return;
  }

  // Feed the active node at every level of algorithm C's tree.
  if (options_.use_shared_ladder) {
    // One append serves all levels: the value lands in the ladder as a
    // one-element straggler run and each level pulls it when its own
    // compaction threshold comes due.
    EnsureNodes(&s);
    s.ladder.AppendValue(value);
    PumpLevels(&s, 1);
    s.ladder.Consolidate();
  } else {
    for (int level = 0; level <= height_; ++level) {
      auto& node = s.nodes[static_cast<size_t>(level)];
      if (node == nullptr) node = AcquireNode(&s, level);
      node->Insert(value);
    }
  }

  bool completes_leaf = s.arrivals_in_leaf + 1 >= block_size_ ||
                        s.arrivals_in_chunk + 1 >= chunk_size_;

  // In-progress tail channel: forward with probability p, tagged with the
  // leaf index.
  bool forward = options_.use_skip_sampling
                     ? s.tail_skip.Next(&s.rng)
                     : s.rng.Bernoulli(1.0 / inv_p_);
  if (forward) {
    Upload(site, 2);
    EmitResidualFrame(site, s.current_leaf, value);
    // A sample of a leaf this very arrival completes would be dropped by
    // the completion prune below before any estimate can read it; charge
    // the upload but skip the vector churn. (The frame still travels: the
    // coordinator replica stores it and prunes it on the covering
    // summary's arrival — same estimator-visible range.)
    if (!completes_leaf && !crash_replay_) {
      s.idata->residuals.push_back(ResidualSample{s.current_leaf, value});
    }
  }

  ++s.arrivals_in_leaf;
  ++s.arrivals_in_chunk;
  bool chunk_done = s.arrivals_in_chunk >= chunk_size_;
  bool leaf_done = s.arrivals_in_leaf >= block_size_ || chunk_done;

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
    for (int level = 0; level <= height_; ++level) {
      uint32_t node_start = (s.current_leaf >> level) << level;
      uint32_t node_end = std::min<uint32_t>(
          node_start + (1u << level), num_leaves_);
      if (completed_end == node_end || chunk_done) {
        if (chunk_done && level < height_) {
          // Every node completes at the chunk's last leaf, and the
          // top-level summary (shipped below) covers the whole chunk —
          // the coordinator would discard the lower summaries on arrival
          // (see the dyadic-cover pruning after this loop), so don't
          // build or ship them. The estimate is unchanged and the
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
          FlushNode(site, &s, level, node_start, completed_end);
        }
      }
    }
    // Completed leaves are now covered by summaries: their tail samples
    // are redundant and dropped (the paper's estimator only uses samples
    // from the in-progress block). Residuals arrive in leaf order, so the
    // drop is a constant-time advance of the live-range offset.
    auto& residuals = s.idata->residuals;
    size_t& begin = s.idata->residual_begin;
    while (begin < residuals.size() &&
           residuals[begin].leaf < completed_end) {
      ++begin;
    }
    if (chunk_done) {
      // The top-level summary now covers the whole chunk; lower summaries
      // are redundant for the dyadic cover and are dropped.
      auto& data = *s.idata;
      auto top = std::find_if(data.summaries.begin(), data.summaries.end(),
                              [completed_end](const StoredSummary& stored) {
                                return stored.first_leaf == 0 &&
                                       stored.end_leaf == completed_end;
                              });
      if (top != data.summaries.end()) {
        StoredSummary keep = std::move(*top);
        for (auto& dropped : data.summaries) {
          RecycleStored(&s, std::move(dropped));
        }
        data.summaries.clear();
        data.summaries.push_back(std::move(keep));
        // Every arena leaf summary is covered by the kept top summary;
        // the whole prune is three O(1) clears. (When the top summary
        // itself lives in the arena — height 0 — the find_if above
        // misses and the single covering ref stays.)
        data.leaf_values.clear();
        data.leaf_segments.clear();
        data.leaf_refs.clear();
      }
      StartFreshInstance(&s);
    } else {
      ++s.current_leaf;
      s.arrivals_in_leaf = 0;
    }
  }
}

inline void RandomizedRankTracker::ArriveOne(int site, uint64_t value) {
  ++n_;
  ProcessArrival(site, value);
}

void RandomizedRankTracker::Arrive(int site, uint64_t value) {
  sim::CheckSiteInRange(site, options_.num_sites);
  ArriveOne(site, value);
}

void RandomizedRankTracker::ShardEpochBegin(uint64_t arrivals_in_epoch) {
  if (shard_sinks_.empty()) {
    shard_sinks_.resize(static_cast<size_t>(options_.num_sites));
  }
  // Nothing inside a shard epoch reads n_ (mirrors the batch engine).
  n_ += arrivals_in_epoch;
  shard_mode_ = true;
}

// One site's epoch slice on a worker thread: the per-site projection of
// the serial event-countdown engine. The site's run boundaries are the
// same in both executions — its own events (leaf/chunk completions,
// coarse reports) plus the epoch ends, which are exactly the points where
// the serial engine resyncs (checkpoint batch ends and broadcasts) — so
// the sort/ladder/compaction schedule, and with it the site's RNG
// consumption, is identical and the replay stays bit-exact.
// disttrack-lint: allow(site-check) -- shard-internal: every id was
// validated by SiteGrouper (CheckSiteInRange aborts) before the epoch
// was partitioned onto workers; the worker replays a pre-checked span.
void RandomizedRankTracker::ShardArriveRun(int site, const uint64_t* keys,
                                           size_t count) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  size_t pos = 0;
  while (pos < count) {
    uint64_t gap = NextEventGap(site);
    uint64_t eventless =
        std::min<uint64_t>(gap - 1, static_cast<uint64_t>(count - pos));
    if (eventless > 0) {
      s.run.assign(keys + pos, keys + pos + eventless);
      FeedRun(site, &s.run, eventless);
      s.run.clear();
      pos += static_cast<size_t>(eventless);
    }
    if (pos >= count) break;
    ProcessArrival(site, keys[pos]);
    ++pos;
  }
}

void RandomizedRankTracker::ShardEpochEnd() {
  shard_mode_ = false;
  for (int i = 0; i < options_.num_sites; ++i) {
    ShardSink& sink = shard_sinks_[static_cast<size_t>(i)];
    for (uint64_t delta : sink.coarse_deltas) {
      coarse_->ApplyDeferredReport(i, delta);
    }
    sink.coarse_deltas.clear();
    if (sink.messages > 0) {
      // disttrack-lint: allow(meter-tap) -- shard-fold: the serial
      // path charges and taps per message; the fold replays the
      // epoch's deferred charges in bulk, and taps never run on the
      // sharded path (only the serial runtimes install one).
      meter_.RecordUploadBulk(i, sink.messages, sink.words);
      sink.messages = 0;
      sink.words = 0;
    }
  }
}

uint64_t RandomizedRankTracker::NextEventGap(int site) const {
  const SiteState& s = sites_[static_cast<size_t>(site)];
  // Next event: the arrival that completes the current leaf (or chunk —
  // its boundary coincides with a leaf boundary via leaf_done) or the
  // next coarse report. Tail-channel coin successes are not events: the
  // whole run sits in one leaf, so FeedRun walks the skip chain through
  // the buffered values itself — same draws at the same arrivals, same
  // residuals, with runs twice as long.
  uint64_t gap = std::min(block_size_ - s.arrivals_in_leaf,
                          chunk_size_ - s.arrivals_in_chunk);
  gap = std::min(gap, coarse_->arrivals_until_report(site));
  // The countdown would clamp a larger stride anyway; clamping here keeps
  // the shard run loop cutting runs at the same arrivals.
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

// Retires `count` buffered arrivals at `site` that are known to be
// eventless: every active tree level absorbs the run in one InsertBatch,
// the leaf/chunk counters advance, the tail coins are consumed failures,
// and the coarse tracker advances in bulk. By construction count is
// strictly below every event gap, so no leaf completes, no tail forward
// fires, and no coarse report (hence no broadcast) can fire here.
void RandomizedRankTracker::FeedRun(int site, std::vector<uint64_t>* run,
                                    uint64_t count) {
  if (count == 0) return;
  uint64_t* values = run->data();
  SiteState& s = sites_[static_cast<size_t>(site)];
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
      Upload(site, 2);
      EmitResidualFrame(site, s.current_leaf, values[pos]);
      s.idata->residuals.push_back(
          ResidualSample{s.current_leaf, values[pos]});
      ++pos;
    }
  }
  // Every level of the tree absorbs the same run, so sort it once, in
  // place (the buffer is discarded right after). With the shared ladder
  // the run is then also copied and consolidated once, and each level
  // pulls borrowed views of the merged sequence at its own compaction
  // cadence; the staging path instead hands every level its own copy to
  // re-merge. Short runs (large k, dense events) go through the
  // branch-light small-run sorter; the sorted result is identical.
  SortRun(values, static_cast<size_t>(count));
  if (options_.use_shared_ladder) {
    EnsureNodes(&s);
    // Callers hand over exactly the run (the event arrival was popped),
    // so the buffer moves into the ladder instead of being copied.
    s.ladder.AppendSortedVector(run);
    PumpLevels(&s, count);
    s.ladder.Consolidate();
  } else {
    for (int level = 0; level <= height_; ++level) {
      auto& node = s.nodes[static_cast<size_t>(level)];
      if (node == nullptr) node = AcquireNode(&s, level);
      node->InsertSortedBatch(values, static_cast<size_t>(count));
    }
  }
  s.arrivals_in_leaf += count;
  s.arrivals_in_chunk += count;
  // Tail coins were consumed by the walk above. The run is strictly below
  // every event gap, so on the shard path the coarse advance cannot cross
  // the site's report threshold.
  if (shard_mode_) {
    coarse_->AdvanceLocalNoReport(site, count);
  } else {
    coarse_->ArriveRun(site, count);
  }
}

void RandomizedRankTracker::FlushBufferedRuns() {
  for (int i = 0; i < options_.num_sites; ++i) {
    SiteState& s = sites_[static_cast<size_t>(i)];
    FeedRun(i, &s.run, s.run.size());
    s.run.clear();
  }
}

// The countdown for `site` hit zero: its run buffer holds the buffered
// eventless arrivals (possibly carried over from earlier chunks of the
// batch) plus the event arrival's value. Feed the eventless prefix in
// bulk, clear the buffer (a broadcast fired by the event arrival must see
// nothing outstanding here), then process the event arrival exactly as
// the scalar path would.
void RandomizedRankTracker::HandleEventArrival(int site) {
  countdown_.TakeEventPrefix(site);
  SiteState& s = sites_[static_cast<size_t>(site)];
  uint64_t event_value = s.run.back();
  s.run.pop_back();  // the buffer now holds exactly the eventless prefix
  FeedRun(site, &s.run, s.run.size());
  s.run.clear();
  ProcessArrival(site, event_value);
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

// One site's span of a certified broadcast-free chunk. Mirrors the
// countdown engine's per-site projection exactly: eventless arrivals
// accumulate in the site's run buffer (fed at the next event or the
// batch-end flush — the same boundaries the countdown engine feeds at,
// so the ladder/compaction schedule and the site's RNG consumption are
// identical), and each event arrival replays the scalar path.
void RandomizedRankTracker::GroupedSpan(int site, const uint64_t* keys,
                                        size_t count) {
  SiteState& s = sites_[static_cast<size_t>(site)];
  size_t pos = 0;
  while (pos < count) {
    // Arrivals until the site's next event, net of what is already
    // buffered (the authoritative counters advance only at feed time).
    uint64_t to_event = NextEventGap(site) - s.run.size();
    uint64_t avail = count - pos;
    if (avail < to_event) {
      s.run.insert(s.run.end(), keys + pos, keys + pos + avail);
      return;
    }
    s.run.insert(s.run.end(), keys + pos, keys + pos + (to_event - 1));
    pos += static_cast<size_t>(to_event);
    uint64_t event_value = keys[pos - 1];
    FeedRun(site, &s.run, s.run.size());
    s.run.clear();
    ProcessArrival(site, event_value);
  }
}

void RandomizedRankTracker::ArriveBatch(const sim::Arrival* arrivals,
                                        size_t count) {
  if (!options_.use_skip_sampling || !options_.use_batch_compaction) {
    // Per-element feed: the historical path (and the only exact one when
    // tail coins are drawn per arrival).
    for (size_t i = 0; i < count; ++i) {
      sim::CheckSiteInRange(arrivals[i].site, options_.num_sites);
      ArriveOne(arrivals[i].site, arrivals[i].key);
    }
    return;
  }
  // n_ is advanced up front; nothing inside the batch reads it.
  n_ += count;
  // Amortize the per-leaf meter charges: no tap or replay is attached
  // (shard epochs never enter here), so message order inside the batch is
  // unobservable and the charges fold into one bulk post per site.
  defer_uploads_ = tap_ == nullptr && !crash_replay_;
  if (!options_.use_site_grouping) {
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
          GroupedSpan(span.site, span.data, span.length);
        }
        grouped_chunk_active_ = false;
      } else {
        CountdownChunk(arrivals + pos, len);
      }
      pos += len;
    }
  }
  FlushBufferedRuns();
  defer_uploads_ = false;
  FlushDeferredUploads();
}

double RandomizedRankTracker::SummaryRankBelow(const StoredSummary& summary,
                                               uint64_t x) {
  uint64_t below = 0;
  uint32_t begin = 0;
  for (const auto& [weight, end] : summary.segments) {
    auto first = summary.values.begin() + begin;
    auto last = summary.values.begin() + end;
    below += weight * static_cast<uint64_t>(std::lower_bound(first, last, x) -
                                            first);
    begin = end;
  }
  return static_cast<double>(below);
}

double RandomizedRankTracker::LeafRankBelow(const InstanceData& data,
                                            const LeafRef& ref, uint64_t x) {
  // Arena-resident twin of SummaryRankBelow: the ref's segment slice
  // carries absolute end offsets into the shared value array.
  uint64_t below = 0;
  uint32_t begin = ref.values_begin;
  for (uint32_t si = ref.seg_begin; si < ref.seg_end; ++si) {
    const auto& [weight, end] = data.leaf_segments[si];
    auto first = data.leaf_values.begin() + begin;
    auto last = data.leaf_values.begin() + end;
    below += weight * static_cast<uint64_t>(std::lower_bound(first, last, x) -
                                            first);
    begin = end;
  }
  return static_cast<double>(below);
}

double RandomizedRankTracker::EstimateRank(uint64_t value) const {
  double est = 0;
  for (const SiteState& site_state : sites_) {
    for (const InstanceData& data : site_state.owned_instances) {
      // Greedy maximal dyadic cover of the completed-leaf prefix, over
      // the owned summaries and the arena leaf refs together. Refs are
      // in leaf order, so they are consumed by one monotone index; on a
      // range tie the ref wins, matching the StoredSummary-only scan
      // (which kept the level-0 summary, pushed first) so both storage
      // layouts sum the identical ranges in the identical order.
      uint32_t cursor = 0;
      size_t ref_i = 0;
      for (;;) {
        const StoredSummary* best = nullptr;
        for (const StoredSummary& stored : data.summaries) {
          if (stored.first_leaf == cursor &&
              (best == nullptr || stored.end_leaf > best->end_leaf)) {
            best = &stored;
          }
        }
        while (ref_i < data.leaf_refs.size() &&
               data.leaf_refs[ref_i].first_leaf < cursor) {
          ++ref_i;
        }
        const LeafRef* ref = ref_i < data.leaf_refs.size() &&
                                     data.leaf_refs[ref_i].first_leaf ==
                                         cursor
                                 ? &data.leaf_refs[ref_i]
                                 : nullptr;
        if (ref != nullptr &&
            (best == nullptr || ref->end_leaf >= best->end_leaf)) {
          est += LeafRankBelow(data, *ref, value);
          cursor = ref->end_leaf;
          continue;
        }
        if (best == nullptr) break;
        est += SummaryRankBelow(*best, value);
        cursor = best->end_leaf;
      }
      // In-progress tail: unbiased sample estimate at this round's p.
      uint64_t below = 0;
      for (size_t i = data.residual_begin; i < data.residuals.size(); ++i) {
        if (data.residuals[i].value < value) ++below;
      }
      est += static_cast<double>(below) * data.inv_p;
    }
  }
  return est;
}

// --- Wire layer / crash recovery -----------------------------------------

void RandomizedRankTracker::EmitSummaryFrame(int site,
                                             const StoredSummary& stored,
                                             uint64_t words) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = sim::wire::MsgType::kRankSummary;
  msg.site = site;
  msg.epoch = coarse_->round();
  msg.a = stored.first_leaf;
  msg.b = stored.end_leaf;
  msg.values = stored.values;
  msg.segments = stored.segments;
  msg.paper_words = words;
  tap_->OnMessage(std::move(msg));
}

void RandomizedRankTracker::EmitResidualFrame(int site, uint32_t leaf,
                                              uint64_t value) {
  if (tap_ == nullptr) return;
  sim::wire::Message msg;
  msg.type = sim::wire::MsgType::kRankResidual;
  msg.site = site;
  msg.epoch = coarse_->round();
  msg.a = leaf;
  msg.b = value;
  msg.paper_words = 2;
  tap_->OnMessage(std::move(msg));
}

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
  std::memcpy(&bits, &inv_p_, sizeof(bits));
  out->push_back(bits);
  out->push_back(chunk_size_);
  out->push_back(block_size_);
  out->push_back(num_leaves_);
  out->push_back(static_cast<uint64_t>(height_));
  coarse_->SerializeSite(site, out);
  out->push_back(s.owned_instances.size() - 1);
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
  if (blob.size() != 15) {
    std::fprintf(stderr, "RandomizedRankTracker: bad snapshot blob size\n");
    std::abort();
  }
  const uint64_t* data = blob.data();
  std::memcpy(&inv_p_, &data[0], sizeof(inv_p_));
  chunk_size_ = data[1];
  block_size_ = data[2];
  num_leaves_ = static_cast<uint32_t>(data[3]);
  height_ = static_cast<int>(data[4]);
  coarse_->RestoreSite(site, data + 5);
  size_t instance_index = static_cast<size_t>(data[8]);
  SiteState& s = sites_[static_cast<size_t>(site)];
  double inv_log;
  std::memcpy(&inv_log, &data[10], sizeof(inv_log));
  s.tail_skip.RestoreRaw(data[9], inv_log);
  s.rng.RestoreState(data + 11);
  // Rebuild the (empty-at-snapshot) derived state for the restored
  // round's tree shape.
  s.arrivals_in_chunk = 0;
  s.arrivals_in_leaf = 0;
  s.current_leaf = 0;
  size_t levels = static_cast<size_t>(height_) + 1;
  s.nodes.clear();
  s.nodes.resize(levels);
  s.pool.clear();
  s.pool.resize(levels);
  s.nodes_ready = false;
  s.pull_slack = 0;
  s.leaf_seed_armed = false;
  s.ladder.Reset(levels);
  s.run.clear();
  if (instance_index >= s.owned_instances.size()) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: snapshot instance index out of "
                 "range\n");
    std::abort();
  }
  replay_cursor_ = instance_index;
  s.idata = &s.owned_instances[instance_index];
}

void RandomizedRankTracker::BeginCrashReplay(int site) {
  std::memcpy(&replay_saved_inv_p_bits_, &inv_p_,
              sizeof(replay_saved_inv_p_bits_));
  replay_saved_chunk_size_ = chunk_size_;
  replay_saved_block_size_ = block_size_;
  replay_saved_num_leaves_ = num_leaves_;
  replay_saved_height_ = height_;
  crash_replay_ = true;
  replay_site_ = site;
  replay_mid_n_bar_ = nullptr;
}

void RandomizedRankTracker::EndCrashReplay() {
  uint64_t bits = 0;
  std::memcpy(&bits, &inv_p_, sizeof(bits));
  if (bits != replay_saved_inv_p_bits_ ||
      chunk_size_ != replay_saved_chunk_size_ ||
      block_size_ != replay_saved_block_size_ ||
      num_leaves_ != replay_saved_num_leaves_ ||
      height_ != replay_saved_height_) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: crash replay did not restore the "
                 "round parameters\n");
    std::abort();
  }
  SiteState& s = sites_[static_cast<size_t>(replay_site_)];
  if (replay_cursor_ + 1 != s.owned_instances.size() ||
      s.idata != &s.owned_instances[replay_cursor_]) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: crash replay instance cursor out "
                 "of step\n");
    std::abort();
  }
  crash_replay_ = false;
  replay_site_ = -1;
}

void RandomizedRankTracker::ReplayCrashArrive(
    int site, uint64_t value, const uint64_t* mid_ritual_n_bar) {
  replay_mid_n_bar_ = mid_ritual_n_bar;
  ProcessArrival(site, value);
  if (replay_mid_n_bar_ != nullptr) {
    std::fprintf(stderr,
                 "RandomizedRankTracker: journaled mid-arrival broadcast "
                 "was not consumed\n");
    std::abort();
  }
}

void RandomizedRankTracker::ReplayCrashRitual(int site, uint64_t n_bar) {
  // Per-site half of OnBroadcast: new round parameters, fresh instance
  // (cursor-advancing during replay), skip redraw — identical RNG draws.
  // The coordinator half (round counter, broadcast charge, other sites'
  // restarts) already happened in the pre-crash execution.
  RecomputeRoundParams(n_bar);
  StartFreshInstance(&sites_[static_cast<size_t>(site)]);
  UpdateSpace(site);
}

}  // namespace rank
}  // namespace disttrack
