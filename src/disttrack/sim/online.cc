#include "disttrack/sim/online.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace disttrack {
namespace sim {

namespace {

// Upper bound on one internally processed chunk: SiteGrouper histograms
// and span lengths are 32-bit, so oversized pushes are sliced before
// grouping (slicing only adds run cuts at the slice boundaries, which is
// the documented push-boundary semantics anyway).
constexpr size_t kMaxChunk = size_t{1} << 30;

}  // namespace

// --------------------------------------------------------------------------
// OnlineCountSession

OnlineCountSession::OnlineCountSession(ParallelCluster* cluster,
                                       CountTrackerInterface* tracker)
    : cluster_(cluster),
      tracker_(tracker),
      ingest_(tracker->shard_ingest()),
      num_sites_(tracker->meter().num_sites()) {
  if (ingest_ != nullptr) {
    snapshots_.resize(static_cast<size_t>(num_sites_));
  }
}

void OnlineCountSession::PushSites(const uint16_t* sites, size_t count) {
  if (count == 0) return;
  if (ingest_ == nullptr) {
    tracker_->ArriveSites(sites, count);
    return;
  }
  cluster_->replay_threads_ =
      cluster_->auto_threads_ ? std::min(cluster_->threads_, num_sites_)
                              : cluster_->threads_;
  while (count > 0) {
    size_t len = std::min(count, kMaxChunk);
    // Speculate: snapshot the touched sites, run the push as one shard
    // epoch, and let the trial fold decide whether it was broadcast-free
    // (it almost always is — broadcasts are O(k logN) over the whole
    // stream).
    grouper_.CountSites(sites, len, num_sites_);
    const std::vector<SiteGrouper::Span>& spans = grouper_.spans();
    for (const SiteGrouper::Span& span : spans) {
      ingest_->ShardSnapshotSite(span.site,
                                 &snapshots_[static_cast<size_t>(span.site)]);
    }
    ingest_->ShardEpochBegin(len);
    cluster_->RunEpochTasks(
        static_cast<int>(spans.size()), len, [&](int task) {
          const SiteGrouper::Span& span = spans[static_cast<size_t>(task)];
          ingest_->ShardArriveRun(span.site, span.length);
        });
    if (!ingest_->ShardTryEpochEnd()) {
      // The push would broadcast. Unwind the speculation — restore every
      // touched site's private state (counters, skip countdown, RNG,
      // coarse half), drop the sinks, rewind the truth advance — and
      // re-deliver the push serially, where reports and the broadcast
      // ritual run exactly as the reference execution.
      for (const SiteGrouper::Span& span : spans) {
        ingest_->ShardRestoreSite(span.site,
                                  snapshots_[static_cast<size_t>(span.site)]);
      }
      ingest_->ShardAbortEpoch(len);
      ++rollbacks_;
      tracker_->ArriveSites(sites, len);
    }
    sites += len;
    count -= len;
  }
}

// --------------------------------------------------------------------------
// OnlineKeyedSession

OnlineKeyedSession::OnlineKeyedSession(ParallelCluster* cluster,
                                       FrequencyTrackerInterface* tracker)
    : cluster_(cluster),
      frequency_(tracker),
      ingest_(tracker->shard_ingest()),
      num_sites_(tracker->meter().num_sites()) {
  if (ingest_ != nullptr) {
    coarse_ = ingest_->shard_coarse();
    certifier_.Reset(*coarse_);
  }
}

OnlineKeyedSession::OnlineKeyedSession(ParallelCluster* cluster,
                                       RankTrackerInterface* tracker)
    : cluster_(cluster),
      rank_(tracker),
      ingest_(tracker->shard_ingest()),
      num_sites_(tracker->meter().num_sites()) {
  if (ingest_ != nullptr) {
    coarse_ = ingest_->shard_coarse();
    certifier_.Reset(*coarse_);
  }
}

void OnlineKeyedSession::SerialArrive(int site, uint64_t key) {
  if (frequency_ != nullptr) {
    frequency_->Arrive(site, key);
  } else {
    rank_->Arrive(site, key);
  }
}

void OnlineKeyedSession::SerialBatch(const Arrival* arrivals, size_t count) {
  if (frequency_ != nullptr) {
    frequency_->ArriveBatch(arrivals, count);
  } else {
    rank_->ArriveBatch(arrivals, count);
  }
}

// disttrack-lint: allow(site-check) -- both branches validate downstream:
// the serial fallback enters the tracker's ArriveBatch (which checks),
// and PushImpl routes every chunk through SiteGrouper::ScatterBySite.
void OnlineKeyedSession::Push(const Arrival* arrivals, size_t count) {
  if (count == 0) return;
  if (ingest_ == nullptr) {
    SerialBatch(arrivals, count);
    return;
  }
  cluster_->replay_threads_ =
      cluster_->auto_threads_ ? std::min(cluster_->threads_, num_sites_)
                              : cluster_->threads_;
  while (count > 0) {
    size_t len = std::min(count, kMaxChunk);
    PushImpl(arrivals, len);
    arrivals += len;
    count -= len;
  }
}

void OnlineKeyedSession::PushImpl(const Arrival* arrivals, size_t count) {
  // ScatterBySite also validates site ids (abort on out-of-range),
  // upholding the shared delivery-path contract.
  grouper_.ScatterBySite(arrivals, count, num_sites_);
  if (certifier_.ExtendByHistogram(grouper_.histogram())) {
    // Certified broadcast-free: the whole push extends the open epoch.
    // Sinks keep accumulating — no barrier until a broadcast or a
    // Sync(), so consecutive certified pushes never stall the pool.
    RunEpoch(count);
    return;
  }
  // The push broadcasts somewhere. Walk it once in stream order on the
  // projected state: each CommitUntilBroadcast certifies the segment up
  // to the next broadcast arrival, which becomes the epoch's final
  // extension; then fold, deliver the broadcast arrival serially
  // (ritual/round logic unchanged), re-seed, and go on from the arrival
  // after it. A segment reaching the end of the push is the certified
  // tail, which leaves the epoch open.
  size_t boundary = certifier_.CommitUntilBroadcast(arrivals, count);
  if (boundary >= count) {
    std::fprintf(stderr,
                 "OnlineKeyedSession: refused chunk has no broadcast "
                 "arrival — the certifier is inconsistent\n");
    std::abort();
  }
  for (;;) {
    if (boundary > 0) {
      grouper_.ScatterBySite(arrivals, boundary, num_sites_);
      RunEpoch(boundary);
    }
    if (boundary == count) return;
    Sync();
    SerialArrive(arrivals[boundary].site, arrivals[boundary].key);
    ++epoch_splits_;
    certifier_.Reset(*coarse_);
    arrivals += boundary + 1;
    count -= boundary + 1;
    boundary = certifier_.CommitUntilBroadcast(arrivals, count);
  }
}

void OnlineKeyedSession::RunEpoch(size_t count) {
  ingest_->ShardEpochBegin(count);
  epoch_open_ = true;
  const std::vector<SiteGrouper::Span>& spans = grouper_.spans();
  cluster_->RunEpochTasks(static_cast<int>(spans.size()), count,
                          [&](int task) {
                            const SiteGrouper::Span& span =
                                spans[static_cast<size_t>(task)];
                            ingest_->ShardArriveRun(span.site, span.data,
                                                    span.length);
                          });
}

void OnlineKeyedSession::Sync() {
  if (!epoch_open_) return;
  ingest_->ShardEpochEnd();
  epoch_open_ = false;
}

}  // namespace sim
}  // namespace disttrack
