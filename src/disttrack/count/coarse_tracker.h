// The constant-factor count tracker of §2.1 ("Dealing with a decreasing p"):
// every site reports its local count when it doubles; the coordinator
// re-broadcasts the global sum n' whenever it has at least doubled since the
// last broadcast. The broadcast value n̄ satisfies n̄ <= n < 4n̄ at all
// times, divides the execution into O(logN) rounds, and costs O(k logN)
// communication in total.
//
// All three randomized trackers (count, frequency, rank) are built on this
// component: the broadcast both refreshes their sampling probability p and
// delimits their rounds. Their replay ports (sim::SiteCore's hosted
// sites) share its replayed arrival, ReplayArrive, so the site's
// kCoarseReport frame is written here once.

#ifndef DISTTRACK_COUNT_COARSE_TRACKER_H_
#define DISTTRACK_COUNT_COARSE_TRACKER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace count {

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
    uint64_t delta = 0;
    for (size_t i = 0; i < local_.size(); ++i) {
      uint64_t h = histogram[i];
      if (h == 0) continue;
      if (carry != nullptr) h += carry[i];
      delta += local_[i].ReportDeltaAfter(h);
      if (coordinator_.WouldBroadcast(delta)) return false;
    }
    return !coordinator_.WouldBroadcast(delta);
  }

  /// Advances `site` by `count` arrivals known to contain no report
  /// (requires count < arrivals_until_report(site); aborts otherwise).
  /// The run loops of the batch engines retire eventless stretches here.
  void AdvanceLocalNoReport(int site, uint64_t count);

  // --- Wire layer / crash recovery ---------------------------------------

  /// The replay half of Arrive(), for a site whose coordinator lives
  /// elsewhere (sim::SiteCore): advances `site` site-locally and emits its
  /// kCoarseReport frame through this tracker's tap, with no n', round or
  /// meter write. The coordinator's decision, and with it any ritual,
  /// comes back reentrantly from the tap.
  void ReplayArrive(int site);

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

  /// Exact local count of one site (site-side state).
  uint64_t local_count(int site) const;

  int num_sites() const { return static_cast<int>(local_.size()); }

 private:
  // Slow path of Arrive(): charge the upload of a report carrying
  // `delta`, refresh n', and broadcast if n' has at least doubled since
  // the last broadcast.
  void ReportAndMaybeBroadcast(int site, uint64_t delta);
  // Emits `site`'s kCoarseReport frame carrying `delta` to the tap.
  void EmitReport(int site, uint64_t delta);

  sim::CommMeter* meter_;
  sim::wire::WireTap* tap_ = nullptr;
  std::vector<CoarseSite> local_;
  std::vector<BroadcastObserver> observers_;
  CoarseMirror coordinator_;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_COARSE_TRACKER_H_
