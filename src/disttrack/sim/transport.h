// Injectable transport seam between the sites and the coordinator
// (tentpole of the robustness PR).
//
// The direct-call sim of cluster.h assumes the perfectly reliable
// channels of §1.1. This layer models the channels explicitly so faults
// can be injected deterministically:
//
//   FaultyLink        one directed link; applies seeded drop / duplicate /
//                     delay-reorder decisions to every frame offered;
//   ReliableSender    per-link sequence numbers + unacked buffer +
//                     capped-exponential-backoff retransmission
//                     (common/backoff.h);
//   ReliableReceiver  in-order delivery with a reorder buffer and
//                     sequence-number dedup (idempotent application);
//   FaultPlan         the full fault schedule — link fault rates, site
//                     crash points, coordinator restarts — derived
//                     deterministically from one seed.
//
// The coordinator's halves of the reliable channels (an uplink receiver
// and a downlink sender per site) live in sim::CoordinatorCore
// (coordinator_core.h), which the service daemon runs over TCP as well;
// the daemon never retransmits, so only the robust replay drives the
// backoff.
//
// Time is a logical tick counter private to one arrival's delivery: the
// robust cluster pumps links until quiescence before the next arrival,
// which realizes the §1.1 contract ("all communication triggered by that
// arrival completes before Arrive() returns") even under faults — faults
// stretch delivery *within* an arrival but never across arrivals. That is
// the property that makes bit-identical fault recovery achievable at all.
//
// Everything here is deterministic from (plan, seed): links draw fault
// decisions from private xoshiro streams keyed by (plan seed, link id),
// backoff has no jitter, and tick advancement is lockstep.

#ifndef DISTTRACK_SIM_TRANSPORT_H_
#define DISTTRACK_SIM_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "disttrack/common/backoff.h"
#include "disttrack/common/random.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {

/// A deterministic fault schedule. Link-level faults are i.i.d. per frame
/// from per-link seeded streams; crash/restart events fire at global
/// arrival indices (processed at arrival boundaries, after the previous
/// arrival's traffic has quiesced).
struct FaultPlan {
  uint64_t seed = 0;

  double drop_rate = 0.0;       ///< P(frame lost in flight)
  double duplicate_rate = 0.0;  ///< P(frame delivered twice)
  double reorder_rate = 0.0;    ///< P(frame delayed so later frames overtake)
  int max_delay_ticks = 0;      ///< extra delivery delay drawn in [1, max]

  struct SiteCrash {
    uint64_t global_arrival = 0;  ///< crash before this 0-based arrival
    int site = 0;
  };
  std::vector<SiteCrash> site_crashes;

  /// Coordinator restarts before these 0-based global arrival indices:
  /// replica soft state is discarded and rebuilt from the epoch journal.
  std::vector<uint64_t> coordinator_restarts;

  /// Per-site snapshot cadence (every this many arrivals at the site).
  uint64_t snapshot_every = 64;

  bool HasLinkFaults() const {
    return drop_rate > 0 || duplicate_rate > 0 || reorder_rate > 0 ||
           max_delay_ticks > 0;
  }

  /// Derives a complete storm schedule from one seed: moderate random
  /// link fault rates, 1-2 site crashes in the middle half of the
  /// workload, a coordinator restart for half the seeds, and a random
  /// snapshot cadence. Deterministic: equal arguments, equal plan.
  static FaultPlan FromSeed(uint64_t seed, uint64_t total_arrivals,
                            int num_sites);
};

/// One directed link. Frames offered to Send() are (deterministically)
/// dropped, duplicated, or delayed, then delivered in (due tick, send
/// order) order. The link counts every byte actually placed on the wire —
/// including dropped frames (they were transmitted) and fault-layer
/// duplicates — so the conservation identity
///   bytes_offered == wire + retransmit + overhead (meter channels)
/// can be asserted exactly; Send() returns the duplicate bytes it added
/// so the caller can charge them to the retransmit channel.
class FaultyLink {
 public:
  /// `plan` must outlive the link. `link_id` keys this link's private
  /// fault stream (same plan + same id => same decisions).
  FaultyLink(const FaultPlan* plan, uint64_t link_id);

  /// Offers a frame at tick `now`. Returns the bytes added by a
  /// fault-layer duplicate (0 or frame size).
  uint64_t Send(std::vector<uint8_t> frame, uint64_t now);

  /// Moves every frame due at or before `now` into `*out` (appended in
  /// delivery order). Returns true if anything was delivered.
  bool Deliver(uint64_t now, std::vector<std::vector<uint8_t>>* out);

  bool idle() const { return queue_.empty(); }

  /// Total bytes offered to the wire (drops and duplicates included).
  uint64_t bytes_offered() const { return bytes_offered_; }

 private:
  struct InFlight {
    std::vector<uint8_t> frame;
    uint64_t due = 0;
    uint64_t order = 0;
  };

  void Enqueue(std::vector<uint8_t> frame, uint64_t due);

  const FaultPlan* plan_;
  Rng rng_;
  std::vector<InFlight> queue_;
  uint64_t next_order_ = 0;
  uint64_t bytes_offered_ = 0;
};

/// Sender half of a reliable directed channel: assigns sequence numbers,
/// keeps unacked frames, and schedules retransmissions on capped
/// exponential backoff.
class ReliableSender {
 public:
  explicit ReliableSender(ExponentialBackoff backoff = ExponentialBackoff())
      : backoff_(backoff) {}

  /// Assigns the next sequence number to `msg`, records the encoded frame
  /// as unacked, and returns (seq, frame bytes to transmit now).
  uint64_t Stage(const wire::Message& msg, uint64_t now,
                 std::vector<uint8_t>* frame_out);

  /// Cumulative ack: retires every pending frame with seq <= `cum_seq`.
  void Ack(uint64_t cum_seq);

  /// Appends the frames due for retransmission at `now` to `*out` and
  /// re-arms their backoff. Returns the total bytes appended.
  uint64_t DueRetransmits(uint64_t now, std::vector<std::vector<uint8_t>>* out);

  bool idle() const { return unacked_.empty(); }
  uint64_t next_seq() const { return next_seq_; }
  uint64_t retransmissions() const { return retransmissions_; }

  /// Crash/restart resets: forget soft state and continue from `seq`.
  void Reset(uint64_t next_seq) {
    next_seq_ = next_seq;
    unacked_.clear();
  }

 private:
  struct Pending {
    std::vector<uint8_t> frame;
    uint32_t attempts = 0;
    uint64_t next_retransmit = 0;
  };

  ExponentialBackoff backoff_;
  uint64_t next_seq_ = 1;
  uint64_t retransmissions_ = 0;
  std::map<uint64_t, Pending> unacked_;
};

/// Receiver half: in-order delivery with dedup. Frames below the
/// watermark are duplicates (dropped, but still acked — the ack may have
/// been lost); frames ahead of it wait in a reorder buffer.
class ReliableReceiver {
 public:
  /// Accepts a decoded frame. In-order messages (possibly draining the
  /// reorder buffer) are appended to `*deliver`; returns true if the
  /// frame was new (not a duplicate).
  bool Accept(uint64_t seq, wire::Message msg,
              std::vector<wire::Message>* deliver);

  /// Highest sequence number delivered in order (the cumulative ack).
  uint64_t watermark() const { return next_expected_ - 1; }

  uint64_t duplicates() const { return duplicates_; }

  /// Crash/restart resets: expect `watermark + 1` next, drop buffered
  /// out-of-order frames (the sender will retransmit them).
  void Reset(uint64_t watermark) {
    next_expected_ = watermark + 1;
    reorder_.clear();
  }

 private:
  uint64_t next_expected_ = 1;
  uint64_t duplicates_ = 0;
  std::map<uint64_t, wire::Message> reorder_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_TRANSPORT_H_
