// The constant-factor count tracker of §2.1 ("Dealing with a decreasing p"):
// every site reports its local count when it doubles; the coordinator
// re-broadcasts the global sum n' whenever it has at least doubled since the
// last broadcast. The broadcast value n̄ satisfies n̄ <= n < 4n̄ at all
// times, divides the execution into O(logN) rounds, and costs O(k logN)
// communication in total.
//
// All three randomized trackers (count, frequency, rank) are built on this
// component: the broadcast both refreshes their sampling probability p and
// delimits their rounds.

#ifndef DISTTRACK_COUNT_COARSE_TRACKER_H_
#define DISTTRACK_COUNT_COARSE_TRACKER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {
struct Arrival;
}  // namespace sim

namespace count {

class EpochCertifier;

/// max(1, 2 n̄): the reported sum n' at which the coordinator broadcasts.
/// The one encoding of the §2.1 broadcast limit; every broadcast test in
/// the tree goes through it.
inline uint64_t BroadcastLimit(uint64_t n_bar) {
  return 2 * n_bar > 1 ? 2 * n_bar : 1;
}

/// Site half of the coarse tracker: the exact local count and its report
/// thresholds. Reports fire on the 1st, 2nd, 4th, ... arrival, so
/// `next_report` is always a power of two and `last_reported` the one
/// before it (0 before the first report).
struct CoarseSite {
  uint64_t count = 0;          // exact local count n_i
  uint64_t next_report = 1;    // report when count reaches this (doubles)
  uint64_t last_reported = 0;  // n'_i at the coordinator

  /// The site-report step: one arrival; returns the n' delta of the
  /// report it fires (0 = no report due).
  uint64_t Arrive() {
    ++count;
    if (count < next_report) return 0;
    uint64_t delta = count - last_reported;
    last_reported = count;
    next_report = count * 2;
    return delta;
  }

  /// Summed n' delta of every report `h` further arrivals would fire,
  /// without advancing. Reports telescope, so it is the last threshold
  /// reached (the floor power of two of the final count) minus the value
  /// reported so far.
  uint64_t ReportDeltaAfter(uint64_t h) const {
    uint64_t final_count = count + h;
    if (final_count < next_report) return 0;
    return (uint64_t{1} << (63 - __builtin_clzll(final_count))) -
           last_reported;
  }

  /// Advances by `h` arrivals, committing every report they fire.
  void Advance(uint64_t h) {
    count += h;
    if (count >= next_report) {
      last_reported = uint64_t{1} << (63 - __builtin_clzll(count));
      next_report = last_reported * 2;
    }
  }
};

/// Coordinator half of the coarse tracker: the running sum n' of reports
/// and the last broadcast n̄. CoarseTracker owns one; the wire replicas
/// (sim/replica.h) and the service coordinator rebuild one from delivered
/// kCoarseReport frames alone.
struct CoarseMirror {
  uint64_t n_prime = 0;
  uint64_t n_bar = 0;
  uint64_t round = 0;

  /// True iff a report adding `delta` to n' would broadcast.
  bool WouldBroadcast(uint64_t delta) const {
    return n_prime + delta >= BroadcastLimit(n_bar);
  }

  /// Applies one coarse report delta; true iff it triggers a broadcast.
  bool ApplyReport(uint64_t delta) {
    n_prime += delta;
    if (n_prime < BroadcastLimit(n_bar)) return false;
    n_bar = n_prime;
    ++round;
    return true;
  }
};

/// True iff delivering histogram[i] (+ carry[i], see
/// CoarseTracker::BatchCannotBroadcast) further arrivals to each site i
/// of `sites` cannot make `coordinator` broadcast, under any
/// interleaving; `*pending` receives the summed n' delta. Shared by
/// BatchCannotBroadcast and EpochCertifier::ExtendByHistogram.
inline bool ProjectBroadcastFree(const std::vector<CoarseSite>& sites,
                                 const CoarseMirror& coordinator,
                                 const uint32_t* histogram,
                                 const uint64_t* carry, uint64_t* pending) {
  uint64_t delta = 0;
  for (size_t i = 0; i < sites.size(); ++i) {
    uint64_t h = histogram[i];
    if (h == 0) continue;
    if (carry != nullptr) h += carry[i];
    delta += sites[i].ReportDeltaAfter(h);
    if (coordinator.WouldBroadcast(delta)) return false;
  }
  *pending = delta;
  return !coordinator.WouldBroadcast(delta);
}

/// Maintains n̄, a factor-4 approximation of n, with O(k logN) traffic.
class CoarseTracker {
 public:
  /// Invoked immediately after each broadcast, with the new round index
  /// (1-based) and the new n̄. Observers typically recompute p and perform
  /// the round-transition ritual of their protocol.
  using BroadcastObserver = std::function<void(uint64_t round, uint64_t n_bar)>;

  /// Traffic is charged to `meter` (not owned; must outlive the tracker).
  CoarseTracker(int num_sites, sim::CommMeter* meter);

  /// Registers an observer; observers fire in registration order.
  void AddObserver(BroadcastObserver observer);

  /// One element arrives at `site`; may trigger an upload and a broadcast.
  void Arrive(int site);

  /// Advances `site` by `count` arrivals in bulk, firing every report and
  /// broadcast at exactly the local counts where per-element Arrive() calls
  /// would have fired them. Reports double in spacing, so a run of m
  /// arrivals costs O(log m) work plus events — this is the coarse-tracker
  /// half of the batched fast path.
  void ArriveRun(int site, uint64_t count);

  /// Arrivals at `site` before its next report fires (always >= 1). Batch
  /// engines use this to bound how far they may advance without observing
  /// an event.
  uint64_t arrivals_until_report(int site) const {
    const CoarseSite& s = local_[static_cast<size_t>(site)];
    return s.next_report - s.count;
  }

  /// True iff one more arrival at `site` fires a report that broadcasts.
  bool ArriveBroadcasts(int site) const {
    CoarseSite next = local_[static_cast<size_t>(site)];
    uint64_t delta = next.Arrive();
    return delta > 0 && coordinator_.WouldBroadcast(delta);
  }

  /// True iff a batch delivering `histogram[i]` arrivals to site i cannot
  /// trigger a broadcast — under ANY interleaving of the sites. This is
  /// the safety gate of the site-grouped delivery engines
  /// (common/site_group.h), and it is EXACT for carry-free batches:
  ///
  /// A site's reports fire at fixed local counts (the power-of-two
  /// doubling thresholds), so the set of reports the batch produces — and
  /// each report's n' delta — depends only on the per-site totals, never
  /// on the interleaving. The batch's final n' is therefore computable up
  /// front: each crossing site's last report value is the largest power
  /// of two <= count_i + h_i. A broadcast needs n' >= max(1, 2 n̄) at
  /// some report; n' is nondecreasing and only moves at reports, so the
  /// batch broadcasts iff the final n' reaches the threshold.
  ///
  /// `carry[i]`, when non-null, counts arrivals already delivered to
  /// site i but not yet advanced through this tracker (the rank engine
  /// buffers eventless runs across chunk boundaries); they may be fed
  /// during the batch, so a site receiving new arrivals is projected
  /// over histogram[i] + carry[i]. A site with histogram[i] == 0 is not
  /// touched by the batch at all — its carry stays unfed and is ignored.
  /// With carry the test is an upper bound (the batch may end before
  /// feeding everything), which can only cause a harmless fallback.
  bool BatchCannotBroadcast(const uint32_t* histogram,
                            const uint64_t* carry = nullptr) const {
    uint64_t pending = 0;
    return ProjectBroadcastFree(local_, coordinator_, histogram, carry,
                                &pending);
  }

  // --- Shard-epoch support (sim/shard.h) ---------------------------------
  // During shard ingest a worker thread owns a site and may advance only
  // its site-local half (count / report thresholds); the coordinator half
  // (n', n̄, broadcasts, the meter) is updated at the epoch barrier by the
  // driver thread, via deferred report deltas. Safe to call concurrently
  // for DISTINCT sites only.

  /// Advances `site` by `count` arrivals known to contain no report
  /// (requires count < arrivals_until_report(site); aborts otherwise).
  void AdvanceLocalNoReport(int site, uint64_t count);

  /// One arrival at `site` during shard ingest: advances the local count
  /// and, when the report threshold is reached, updates the site-local
  /// report state and returns the n' delta the deferred report carries
  /// (0 = no report due). The caller buffers the delta and applies it via
  /// ApplyDeferredReport at the epoch barrier.
  uint64_t ArriveLocal(int site);

  /// Applies one deferred report at an epoch barrier (driver thread
  /// only): charges the upload and folds the delta into n'. Aborts if the
  /// broadcast condition fires — the online sessions certify every epoch
  /// broadcast-free and deliver each broadcast-triggering arrival through
  /// the serial Arrive() path instead, so a deferred report can never
  /// legitimately trip it.
  void ApplyDeferredReport(int site, uint64_t delta);

  // --- Wire layer / crash recovery ---------------------------------------

  /// Installs a message tap (sim/wire.h): every coarse report and every
  /// broadcast is mirrored as a typed message. nullptr disables.
  void set_wire_tap(sim::wire::WireTap* tap) { tap_ = tap; }

  /// Serializes one site's local half (count, next_report, last_reported)
  /// into `*out` (appended). The coordinator half (n', n̄, round) is not
  /// site state and is never part of a site snapshot.
  void SerializeSite(int site, std::vector<uint64_t>* out) const;

  /// Restores a site's local half from SerializeSite output at `data`.
  /// Returns the number of words consumed.
  size_t RestoreSite(int site, const uint64_t* data);

  /// Last broadcast value (0 before the first element arrives).
  uint64_t n_bar() const { return coordinator_.n_bar; }

  /// Number of broadcasts so far == current round index.
  uint64_t round() const { return coordinator_.round; }

  /// The coordinator's running sum of last-reported site counts; satisfies
  /// n' <= n < 2n'.
  uint64_t n_prime() const { return coordinator_.n_prime; }

  /// The coordinator half (n', n̄, round).
  const CoarseMirror& coordinator() const { return coordinator_; }

  /// Exact local count of one site (site-side state).
  uint64_t local_count(int site) const;

  int num_sites() const { return static_cast<int>(local_.size()); }

 private:
  friend class EpochCertifier;

  // Slow path of Arrive(): charge the upload of a report carrying
  // `delta`, refresh n', and broadcast if n' has at least doubled since
  // the last broadcast.
  void ReportAndMaybeBroadcast(int site, uint64_t delta);

  sim::CommMeter* meter_;
  sim::wire::WireTap* tap_ = nullptr;
  std::vector<CoarseSite> local_;
  std::vector<BroadcastObserver> observers_;
  CoarseMirror coordinator_;
};

/// Rolling broadcast-safety certifier: the online generalization of
/// BatchCannotBroadcast for streams with no workload pre-knowledge
/// (sim/online.h). Seeded from the live tracker, it mirrors each site's
/// projected (count, next_report, last_reported) triple and the projected
/// n' over every arrival certified so far, and answers — exactly —
/// whether one more chunk can extend the current broadcast-free epoch.
/// n̄ (and with it the broadcast limit) is frozen while the epoch is open
/// by construction: an epoch ends, and the certifier is re-seeded, at
/// every broadcast.
class EpochCertifier {
 public:
  /// Seeds projections from `tracker`'s live site state. Every arrival
  /// certified before the Reset must already have been delivered (or be
  /// sitting, fully ingested, in shard sinks whose coarse deltas the
  /// projections anticipated — the fold cannot change them). O(k).
  void Reset(const CoarseTracker& tracker);

  /// Exact epoch-extension test: true iff delivering histogram[i] further
  /// arrivals to site i — on top of everything certified so far — still
  /// cannot trigger a broadcast under any interleaving; the projections
  /// then advance past the chunk. False leaves the certifier untouched.
  /// The exactness argument is BatchCannotBroadcast's, applied to the
  /// projected state: reports fire at fixed local counts, so the chunk's
  /// report set depends only on per-site totals, and n' is nondecreasing,
  /// so the final total reaching the limit is equivalent to some prefix
  /// reaching it.
  bool ExtendByHistogram(const uint32_t* histogram);

  /// Scan mode for a chunk ExtendByHistogram refused: walks the arrivals
  /// in stream order on the projected state, committing reports exactly
  /// as the serial coordinator would, and returns the index of the first
  /// arrival whose report trips the broadcast condition. That arrival is
  /// NOT committed — the caller delivers it through the serial Arrive()
  /// path (where the broadcast actually fires) and then Resets. Returns
  /// `count` when no broadcast fires: the whole chunk is then certified
  /// (never right after a refusal; after a Reset it certifies the tail of
  /// a refused push).
  size_t CommitUntilBroadcast(const sim::Arrival* arrivals, size_t count);

  int num_sites() const { return static_cast<int>(sites_.size()); }

  /// Projected n' over everything certified so far (diagnostics/tests).
  uint64_t projected_n_prime() const { return coordinator_.n_prime; }

 private:
  std::vector<CoarseSite> sites_;
  CoarseMirror coordinator_;  // n̄ frozen at the last Reset
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_COARSE_TRACKER_H_
