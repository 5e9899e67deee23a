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
//
// The broadcast is also the only thing that couples sites, so the three
// trackers' one batch engine lives here too: CoarseTracker::DeliverChunks
// runs every chunk site-grouped up to its first broadcast.

#ifndef DISTTRACK_COUNT_COARSE_TRACKER_H_
#define DISTTRACK_COUNT_COARSE_TRACKER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>
#include <vector>

#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/protocol.h"
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

  /// Arrivals before the next report fires (always >= 1). The batch
  /// engine uses this to bound how far it may advance without observing
  /// an event.
  uint64_t arrivals_until_report() const { return next_report - count; }

  /// Advances by `n` arrivals known to contain no report (requires
  /// n < arrivals_until_report(); aborts otherwise). The span loops of the
  /// batch engine retire eventless stretches here.
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
  /// ANY interleaving of the sites. This is the O(k) safety test of the
  /// site-grouped batch engine (DeliverChunks), and it is EXACT:
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
  /// buffers eventless runs across chunk boundaries). Carry is always
  /// short of the site's next report, and a site feeds it before any
  /// arrival of its own that reports, so a site receiving new arrivals is
  /// projected over histogram[i] + carry[i]; a site with
  /// histogram[i] == 0 reports nothing, and its carry is ignored. The
  /// test stays exact (site_group_test replays it).
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

  /// Index of the first arrival of `input[0, len)` whose coarse report
  /// broadcasts, or `len` when none does: the chunk replayed in stream
  /// order on copies of the sites' halves (each advanced by its `carry`,
  /// as in BatchCannotBroadcast) and of the coordinator half. Site ids
  /// must already be range-checked. DeliverChunks cuts a chunk here.
  template <typename Sites, typename Input>
  size_t BroadcastFreePrefix(const Sites& sites, const Input* input,
                             size_t len,
                             const uint64_t* carry = nullptr) const {
    std::vector<CoarseSite> local(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
      local[i] = CoarseOf(sites[i]);
      if (carry != nullptr) local[i].AdvanceNoReport(carry[i]);
    }
    CoarseMirror mirror = coordinator_;
    for (size_t i = 0; i < len; ++i) {
      uint64_t delta = local[SiteOf(input[i])].Arrive();
      if (delta != 0 && mirror.ApplyReport(delta)) return i;
    }
    return len;
  }

  /// The batch engine of the randomized trackers. Delivers
  /// `input[0, count)` in chunks of at most `chunk` arrivals: `group(in,
  /// len)` permutes arrivals into per-site spans (common/site_group.h)
  /// and returns their histogram, `run()` runs the spans of the last
  /// grouping. A chunk BatchCannotBroadcast certifies runs grouped whole.
  /// Any other is cut at each of its broadcasting arrivals, found by
  /// BroadcastFreePrefix scans: the stretch before each runs grouped, and
  /// the arrival itself runs alone — a one-arrival chunk is already in
  /// stream order, so it is the one place a broadcast may fire. Per-site
  /// coin streams are site-local and every other coordinator effect is an
  /// order-insensitive sum, so the result is bit-identical to per-element
  /// delivery. `carry` is as in BatchCannotBroadcast, re-read after each
  /// `group` call; a broadcast must leave it zero (rank feeds every
  /// buffered run before the report that broadcasts).
  template <typename Sites, typename Input, typename Group, typename Run>
  void DeliverChunks(const Sites& sites, const Input* input, size_t count,
                     size_t chunk, const uint64_t* carry, Group&& group,
                     Run&& run) {
    auto run_certified = [&] {
      grouped_chunk_ = true;
      run();
      grouped_chunk_ = false;
    };
    for (size_t pos = 0; pos < count;) {
      const size_t end = pos + std::min(chunk, count - pos);
      if (BatchCannotBroadcast(sites, group(input + pos, end - pos), carry)) {
        run_certified();
        pos = end;
        continue;
      }
      // One scan per stretch instead of one regrouping of the rest per
      // broadcast: early in a stream, broadcasts come dense.
      for (const uint64_t* c = carry; pos < end; c = nullptr) {
        size_t cut = BroadcastFreePrefix(sites, input + pos, end - pos, c);
        if (cut > 0) {
          group(input + pos, cut);
          run_certified();
          pos += cut;
        }
        if (pos < end) {
          group(input + pos, 1);
          run();
          ++pos;
        }
      }
    }
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
  static size_t SiteOf(const sim::Arrival& arrival) {
    return static_cast<size_t>(arrival.site);
  }
  static size_t SiteOf(uint16_t site) { return site; }
  static const CoarseSite& CoarseOf(const CoarseSite& site) { return site; }
  template <typename Site>
  static const CoarseSite& CoarseOf(const Site& site) {
    return site.coarse();
  }

  sim::CommMeter* meter_;
  sim::wire::WireTap* tap_ = nullptr;
  std::vector<BroadcastObserver> observers_;
  CoarseMirror coordinator_;
  // Set while DeliverChunks runs a certified chunk: a broadcast then
  // means the arrivals were already reordered across it, and Report
  // aborts instead of letting the replay silently diverge.
  bool grouped_chunk_ = false;
};

}  // namespace count
}  // namespace disttrack

#endif  // DISTTRACK_COUNT_COARSE_TRACKER_H_
