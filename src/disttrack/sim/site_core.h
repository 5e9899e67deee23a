// A site of the §1.1 model, without a transport: the one implementation
// behind both the service's site process (service/site_runtime.h, which
// wraps it in a socket, the join handshake, snapshot files and a crash
// switch) and the fault-injected replay (robust_cluster.h, which hosts k
// of them over seeded lossy links). It is the site-side mirror of
// CoordinatorCore.
//
// The core hosts one SiteHalf (one tracker site class behind its tap-only
// port) and one sequenced channel each way: a
// ReliableSender for the uplink, whose frames leave through the owner's
// SiteLink, and a ReliableReceiver for the downlink. Every frame the half
// emits is stamped with the latest round the site has applied and staged
// on the uplink at its §1.1 send instant.
//
// The core draws a grant's keys in blocks of kGrantBlock. A count or
// frequency site runs each block through its site class's one site step,
// ArriveRun, the step the in-process batch engine runs, so it is
// bit-identical to its tracker fed per element or per grant alike,
// whatever the block size. A rank site (RankSite::kHostedPerArrival)
// still takes each arrival through Arrive, so it stays bit-identical to
// its tracker fed per element, which is what the serial replays of a
// grant journal run. The site's position is its own exact local count.
//
// Downlink frames are handled in sequence order, and only while the site
// waits for one:
//
//   * idle, up to the next kGrant, which the owner runs with RunGrant;
//   * parked on a coarse report, up to its decision. A kBroadcast whose
//     c names the report applies the ritual reentrantly, at the exact
//     program point the serial tracker runs it (the trackers emit the
//     report before consuming any p-dependent randomness); a
//     kNoBroadcast whose a names it just resolves the wait. While parked
//     the core asks the link for more frames (SiteLink::PumpDown).
//
// Frames behind an unrun grant wait for that run: in lockstep they
// follow it. So a restored site can take the whole re-sent journal
// suffix at once, and every grant, decision and ritual lands where it
// landed the first time. Each applied kBroadcast stages a kRitualAck;
// kShutdown stops the site.
//
// A ritual emits thinning corrections, never a coarse report, so a site
// applying another site's broadcast never parks: at most one site of a
// fleet is parked at any time. The fault harness asserts it.

#ifndef DISTTRACK_SIM_SITE_CORE_H_
#define DISTTRACK_SIM_SITE_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {

/// One site of a tracker, kind-erased. Only site-local state exists here
/// (counters, RNG/skip streams, the coarse thresholds, the site's copy of
/// the round parameters); every protocol frame leaves through the wire
/// tap, and the coordinator's state (n', rounds, meter, estimator
/// aggregates) lives elsewhere.
class SiteHalf {
 public:
  virtual ~SiteHalf() = default;

  /// Installs the frame sink. Every protocol message of this site is
  /// delivered to the tap at its §1.1 send instant, including frames
  /// emitted from inside ApplyRitual (thinning corrections).
  virtual void set_wire_tap(wire::WireTap* tap) = 0;

  /// `n` arrivals of this site's stream, keyed `keys[0, n)` (item /
  /// value / ignored), all absorbed when it returns.
  virtual void ArriveRun(const uint64_t* keys, size_t n) = 0;

  /// One arrival. For per-arrival drivers (perfbench's frame recorder);
  /// the site protocol runs grants through ArriveRun.
  void Arrive(uint64_t key) { ArriveRun(&key, 1); }

  /// Per-site half of the round ritual for a broadcast carrying n̄.
  /// Callable between arrivals or reentrantly from the tap's
  /// kCoarseReport delivery.
  virtual void ApplyRitual(uint64_t n_bar) = 0;

  /// Arrivals absorbed: the site's exact local count, the reporting
  /// arrival included inside a parked report.
  virtual uint64_t arrivals() const = 0;

  virtual bool SnapshotReady() const = 0;
  virtual void Serialize(std::vector<uint64_t>* out) const = 0;
  /// False (state untouched) on a blob that is not a snapshot of this
  /// kind of site, or one of a site that absorbed other than `arrivals`
  /// arrivals.
  [[nodiscard]] virtual bool Restore(const std::vector<uint64_t>& blob,
                                     uint64_t arrivals) = 0;
};

/// One site class (count::CountSite, frequency::FrequencySite,
/// rank::RankSite) behind its TapPort: the port turns every message into
/// a frame on the tap and owns whatever step scratch the site borrows
/// in process. The three site classes share these signatures, so one
/// template hosts them all. `Base` lets the service derive its own
/// SiteHalf type (service/site_half.h).
template <typename Site, typename Base = SiteHalf>
class HostedSite final : public Base {
 public:
  HostedSite(const typename Site::Options& options, int site)
      : options_(options), id_(site), site_(options_, site) {}
  void set_wire_tap(wire::WireTap* tap) override { port_.tap = tap; }
  void ArriveRun(const uint64_t* keys, size_t n) override {
    if constexpr (Site::kHostedPerArrival) {
      for (size_t i = 0; i < n; ++i) site_.Arrive(keys[i], port_);
    } else {
      site_.ArriveRun(keys, n, port_);
    }
  }
  void ApplyRitual(uint64_t n_bar) override { site_.Ritual(n_bar, port_); }
  uint64_t arrivals() const override { return site_.coarse().count; }
  bool SnapshotReady() const override { return site_.SnapshotReady(); }
  void Serialize(std::vector<uint64_t>* out) const override {
    site_.Serialize(out);
  }
  bool Restore(const std::vector<uint64_t>& blob,
               uint64_t arrivals) override {
    Site probe(options_, id_);  // a refused blob leaves site_ untouched
    return probe.Restore(blob) && probe.coarse().count == arrivals &&
           site_.Restore(blob);
  }

 private:
  const typename Site::Options options_;
  const int id_;
  Site site_;
  typename Site::TapPort port_;
};

/// The owner's transport under a SiteCore.
class SiteLink {
 public:
  virtual ~SiteLink() = default;
  /// Transmits one staged uplink frame (a first transmission, or a
  /// restored site regenerating a frame at its original sequence number).
  virtual void SendUp(const std::vector<uint8_t>& frame) = 0;
  /// Called while the core is parked on a coarse report: hands the next
  /// downlink frames to SiteCore::Receive. False if no more will come.
  virtual bool PumpDown() = 0;
};

class SiteCore : private wire::WireTap {
 public:
  /// A site's durable state: the half's blob plus the channel cursors
  /// that splice a restored site back into the coordinator's sequence
  /// spaces.
  struct Snapshot {
    std::vector<uint64_t> blob;   ///< SiteHalf::Serialize output
    uint64_t site_arrivals = 0;   ///< arrivals absorbed into the blob
    uint64_t up_next_seq = 1;     ///< uplink sender cursor
    uint64_t down_watermark = 0;  ///< downlink frames handled
    uint64_t round = 0;           ///< latest broadcast round applied
  };

  /// `link` must outlive the core.
  SiteCore(int site, std::unique_ptr<SiteHalf> half, SiteLink* link);

  SiteCore(const SiteCore&) = delete;
  SiteCore& operator=(const SiteCore&) = delete;

  /// Accepts one downlink frame at sequence number `seq` (kAck carries
  /// the coordinator's cumulative uplink ack and has no seq) and handles
  /// whatever the site is waiting for.
  void Receive(uint64_t seq, wire::Message msg);

  /// Whether a kGrant is waiting to be run.
  bool granted() const { return grant_ > 0; }

  /// Keys RunGrant draws ahead of the site: the grant runs through
  /// ArriveRun in blocks of this many arrivals.
  static constexpr size_t kGrantBlock = 256;

  /// Runs the waiting grant: its arrivals, keyed `key(position)`, through
  /// the half's ArriveRun one block at a time (a block's keys are all
  /// drawn before any of its arrivals runs), then stages kGrantDone and
  /// handles the frames queued behind the grant. A site that fails
  /// mid-grant stops at the end of the block.
  template <typename KeyFn>
  void RunGrant(KeyFn&& key) {
    const uint64_t granted = grant_;
    const uint64_t start = position();
    grant_ = 0;
    running_ = true;
    uint64_t keys[kGrantBlock];
    for (uint64_t ran = 0; ran < granted && live();) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(kGrantBlock, granted - ran));
      for (size_t i = 0; i < n; ++i) keys[i] = key(start + ran + i);
      half_->ArriveRun(keys, n);
      ran += n;
    }
    running_ = false;
    wire::Message done;
    done.type = wire::MsgType::kGrantDone;
    done.a = position();
    Stage(std::move(done));
    Drain();
  }

  /// Stages one sequenced uplink frame, stamped with this site and the
  /// latest round applied. Returns its seq (0 once the site has failed
  /// or shut down: nothing is sent then).
  uint64_t Stage(wire::Message msg);

  /// Stops the site with `what` as the reason (the first reason sticks).
  void Fail(const std::string& what);

  /// Idle with nothing queued, and the half at a snapshot point.
  bool SnapshotReady() const;
  Snapshot TakeSnapshot() const;
  /// Restores a fresh core to `snapshot`. False, with the core left
  /// fresh, if the half refuses the blob: not a snapshot of this kind of
  /// site, or one whose count disagrees with `site_arrivals`.
  [[nodiscard]] bool Restore(const Snapshot& snapshot);

  /// Tick the uplink sender stages and retransmits at.
  void set_tick(uint64_t now) { tick_ = now; }
  /// Appends the uplink frames due for retransmission to `*out`.
  void DueRetransmits(std::vector<std::vector<uint8_t>>* out) {
    up_.DueRetransmits(tick_, out);
  }
  bool up_idle() const { return up_.idle(); }
  uint64_t retransmissions() const { return up_.retransmissions(); }
  uint64_t duplicates() const { return down_.duplicates(); }

  /// Arrivals the site has absorbed (SiteHalf::arrivals).
  uint64_t position() const { return half_->arrivals(); }
  uint64_t up_next_seq() const { return up_.next_seq(); }
  uint64_t down_watermark() const { return down_.watermark(); }
  bool live() const { return !failed_ && !shutdown_; }
  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

 private:
  // WireTap: a frame of the hosted half. A coarse report parks the half
  // here until its decision.
  void OnMessage(wire::Message&& msg) override;

  // Handles queued downlink frames while the site waits for one.
  void Drain();
  void Handle(uint64_t seq, wire::Message msg);

  int site_;
  std::unique_ptr<SiteHalf> half_;
  SiteLink* link_;
  uint64_t tick_ = 0;
  ReliableSender up_;
  ReliableReceiver down_;
  std::deque<std::pair<uint64_t, wire::Message>> inbox_;  ///< (seq, frame)

  uint64_t round_ = 0;     ///< latest broadcast round applied
  uint64_t grant_ = 0;     ///< arrivals of the waiting grant (0: none)
  uint64_t parked_ = 0;    ///< uplink seq of the undecided report (0: none)
  bool running_ = false;
  bool shutdown_ = false;
  bool failed_ = false;
  std::string error_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_SITE_CORE_H_
