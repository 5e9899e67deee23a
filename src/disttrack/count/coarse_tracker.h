// The constant-factor count tracker of §2.1 ("Dealing with a decreasing p"):
// every site reports its local count when it doubles; the coordinator
// re-broadcasts the global sum n' whenever it has at least doubled since the
// last broadcast. The broadcast value n̄ satisfies n̄ <= n < 4n̄ at all
// times, divides the execution into O(logN) rounds, and costs O(k logN)
// communication in total.
//
// All three randomized trackers (count, frequency, rank) are built on this
// component: the broadcast both refreshes their sampling probability p and
// delimits their rounds. Each of their site classes holds one CoarseSite
// and hands its reports to a coordinator port: in process the port calls
// CoarseTracker::Report, in a hosted site (sim::HostedSite) it only emits
// the kCoarseReport frame (TapCoarsePort).

#ifndef DISTTRACK_COUNT_COARSE_TRACKER_H_
#define DISTTRACK_COUNT_COARSE_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>
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
  /// Words of Save / Restore.
  static constexpr size_t kWords = 3;

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

  /// Arrivals before the next report fires (always >= 1). Batch engines
  /// use this to bound how far they may advance without observing an
  /// event.
  uint64_t arrivals_until_report() const { return next_report - count; }

  /// Advances by `n` arrivals known to contain no report (requires
  /// n < arrivals_until_report(); aborts otherwise). The run loops of the
  /// batch engines retire eventless stretches here.
  void AdvanceNoReport(uint64_t n) {
    if (n >= arrivals_until_report()) {
      std::fprintf(stderr,
                   "CoarseSite: eventless advance of %llu crosses the "
                   "report threshold\n",
                   static_cast<unsigned long long>(n));
      std::abort();
    }
    count += n;
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

  void Save(uint64_t out[kWords]) const {
    out[0] = count;
    out[1] = next_report;
    out[2] = last_reported;
  }
  void Restore(const uint64_t in[kWords]) {
    count = in[0];
    next_report = in[1];
    last_reported = in[2];
  }
};

/// The site half of a CoarseSite owner's coordinator port, for a site
/// whose coordinator lives elsewhere (sim::HostedSite): a report only
/// emits its kCoarseReport frame; the coordinator's decision, and with it
/// any ritual, comes back reentrantly from the tap. Each site class's
/// TapPort derives from it.
struct TapCoarsePort {
  sim::wire::WireTap* tap = nullptr;
  void CoarseReport(int site, uint64_t delta) const {
    sim::wire::Emit(tap, sim::wire::MsgType::kCoarseReport, site, 0, delta);
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

/// Maintains n̄, a factor-4 approximation of n, with O(k logN) traffic:
/// the coordinator half. The sites' halves are CoarseSites, held by their
/// owners.
class CoarseTracker {
 public:
  /// Invoked immediately after each broadcast, with the new round index
  /// (1-based) and the new n̄. Observers typically recompute p and perform
  /// the round-transition ritual of their protocol.
  using BroadcastObserver = std::function<void(uint64_t round, uint64_t n_bar)>;

  /// Traffic is charged to `meter` (not owned; must outlive the tracker).
  explicit CoarseTracker(sim::CommMeter* meter) : meter_(meter) {}

  /// Registers an observer; observers fire in registration order.
  void AddObserver(BroadcastObserver observer) {
    observers_.push_back(std::move(observer));
  }

  /// One element arrives at `site`, whose site half is `*local`; may
  /// trigger an upload and a broadcast.
  void Arrive(int site, CoarseSite* local) {
    if (uint64_t delta = local->Arrive()) Report(site, delta);
  }

  /// Site `site`'s report carrying `delta`: charges the upload, refreshes
  /// n', and broadcasts if n' has at least doubled since the last
  /// broadcast (first broadcast at the very first report).
  void Report(int site, uint64_t delta);

  /// True iff a report adding `delta` to n' would broadcast.
  bool WouldBroadcast(uint64_t delta) const {
    return coordinator_.WouldBroadcast(delta);
  }

  /// True iff a batch delivering `histogram[i]` arrivals to site i, whose
  /// site half is CoarseOf(sites[i]), cannot trigger a broadcast — under
  /// ANY interleaving of the sites. This is the safety gate of the
  /// site-grouped delivery engines (common/site_group.h), and it is EXACT
  /// for carry-free batches:
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
  /// site i but not yet advanced through its site half (the rank engine
  /// buffers eventless runs across chunk boundaries); they may be fed
  /// during the batch, so a site receiving new arrivals is projected
  /// over histogram[i] + carry[i]. A site with histogram[i] == 0 is not
  /// touched by the batch at all — its carry stays unfed and is ignored.
  /// With carry the test is an upper bound (the batch may end before
  /// feeding everything), which can only cause a harmless fallback.
  template <typename Sites>
  bool BatchCannotBroadcast(const Sites& sites, const uint32_t* histogram,
                            const uint64_t* carry = nullptr) const {
    uint64_t delta = 0;
    for (size_t i = 0; i < sites.size(); ++i) {
      uint64_t h = histogram[i];
      if (h == 0) continue;
      if (carry != nullptr) h += carry[i];
      delta += CoarseOf(sites[i]).ReportDeltaAfter(h);
      if (coordinator_.WouldBroadcast(delta)) return false;
    }
    return !coordinator_.WouldBroadcast(delta);
  }

  /// Installs a message tap (sim/wire.h): every coarse report and every
  /// broadcast is mirrored as a typed message. nullptr disables.
  void set_wire_tap(sim::wire::WireTap* tap) { tap_ = tap; }

  /// Last broadcast value (0 before the first element arrives).
  uint64_t n_bar() const { return coordinator_.n_bar; }

  /// Number of broadcasts so far == current round index.
  uint64_t round() const { return coordinator_.round; }

  /// The coordinator's running sum of last-reported site counts; satisfies
  /// n' <= n < 2n'.
  uint64_t n_prime() const { return coordinator_.n_prime; }

 private:
  static const CoarseSite& CoarseOf(const CoarseSite& site) { return site; }
  template <typename Site>
  static const CoarseSite& CoarseOf(const Site& site) {
    return site.coarse();
  }

  sim::CommMeter* meter_;
  sim::wire::WireTap* tap_ = nullptr;
  std::vector<BroadcastObserver> observers_;
  CoarseMirror coordinator_;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_COARSE_TRACKER_H_
