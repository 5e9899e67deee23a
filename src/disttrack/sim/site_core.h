// A site of the §1.1 model, without a transport: the one implementation
// behind both the service's site process (service/site_runtime.h, which
// wraps it in a socket, the join handshake, snapshot files and a crash
// switch) and the fault-injected replay (robust_cluster.h, which hosts k
// of them over seeded lossy links). It is the site-side mirror of
// CoordinatorCore.
//
// The core hosts one SiteHalf (one tracker site, driven through the
// trackers' replay port) and one sequenced channel each way: a
// ReliableSender for the uplink, whose frames leave through the owner's
// SiteLink, and a ReliableReceiver for the downlink. Every frame the half
// emits is stamped with the latest round the site has applied and staged
// on the uplink at its §1.1 send instant.
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

/// One site of a tracker, as a kind-erased host over the trackers'
/// replay port (ReplayCrashArrive / ReplayCrashRitual and the site
/// snapshots). The port advances only site-local state (counters,
/// RNG/skip streams, coarse thresholds) and re-emits every protocol frame
/// through the wire tap, writing nothing the coordinator holds (n',
/// rounds, meter, estimator aggregates).
class SiteHalf {
 public:
  virtual ~SiteHalf() = default;

  /// Installs the frame sink. Every protocol message of this site is
  /// delivered to the tap at its §1.1 send instant, including frames
  /// emitted from inside ApplyRitual (thinning corrections).
  virtual void set_wire_tap(wire::WireTap* tap) = 0;

  /// One arrival of this site's stream (key: item / value / ignored).
  virtual void Arrive(uint64_t key) = 0;

  /// Per-site half of the round ritual for a broadcast carrying n̄.
  /// Callable between arrivals or reentrantly from the tap's
  /// kCoarseReport delivery.
  virtual void ApplyRitual(uint64_t n_bar) = 0;

  virtual bool SnapshotReady() const = 0;
  virtual void Serialize(std::vector<uint64_t>* out) const = 0;
  virtual void Restore(const std::vector<uint64_t>& blob) = 0;
};

/// One site of a whole k-site tracker. The three trackers share the
/// replay port's signatures, so one template hosts them all. `Base` lets
/// the service derive its own SiteHalf type (service/site_half.h).
template <typename Tracker, typename Base = SiteHalf>
class TrackerSite final : public Base {
 public:
  template <typename Options>
  TrackerSite(const Options& options, int site)
      : tracker_(options), site_(site) {}
  void set_wire_tap(wire::WireTap* tap) override { tracker_.set_wire_tap(tap); }
  void Arrive(uint64_t key) override { tracker_.ReplayCrashArrive(site_, key); }
  void ApplyRitual(uint64_t n_bar) override {
    tracker_.ReplayCrashRitual(site_, n_bar);
  }
  bool SnapshotReady() const override {
    return tracker_.SiteSnapshotReady(site_);
  }
  void Serialize(std::vector<uint64_t>* out) const override {
    tracker_.SerializeSiteState(site_, out);
  }
  void Restore(const std::vector<uint64_t>& blob) override {
    tracker_.RestoreSiteState(site_, blob);
  }

 private:
  Tracker tracker_;
  int site_;
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

  /// Runs the waiting grant: one arrival per granted unit, keyed
  /// `key(position)`, then stages kGrantDone and handles the frames
  /// queued behind the grant.
  template <typename KeyFn>
  void RunGrant(KeyFn&& key) {
    uint64_t granted = grant_;
    grant_ = 0;
    running_ = true;
    for (uint64_t i = 0; i < granted && live(); ++i) {
      half_->Arrive(key(position_));
      ++position_;
    }
    running_ = false;
    wire::Message done;
    done.type = wire::MsgType::kGrantDone;
    done.a = position_;
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
  /// Restores a fresh core to `snapshot`.
  void Restore(const Snapshot& snapshot);

  /// Tick the uplink sender stages and retransmits at.
  void set_tick(uint64_t now) { tick_ = now; }
  /// Appends the uplink frames due for retransmission to `*out`.
  void DueRetransmits(std::vector<std::vector<uint8_t>>* out) {
    up_.DueRetransmits(tick_, out);
  }
  bool up_idle() const { return up_.idle(); }
  uint64_t retransmissions() const { return up_.retransmissions(); }
  uint64_t duplicates() const { return down_.duplicates(); }

  uint64_t position() const { return position_; }
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

  uint64_t position_ = 0;  ///< arrivals absorbed
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
