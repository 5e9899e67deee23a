// The coordinator of the §1.1 model, without a transport: the one
// implementation behind both the service daemon (service/coordinator.h,
// which wraps it in sockets, joins, lockstep grants and queries) and the
// fault-injected replay (robust_cluster.h, which wraps it in seeded
// lossy links).
//
// Per site it owns one sequenced channel each way: a ReliableReceiver
// for the uplink (in-order delivery, sequence-number dedup — what makes
// a crashed site's replay idempotent) and a ReliableSender for the
// downlink, whose frames are journaled so a site that comes back can be
// caught up. Every frame the uplink delivers is applied to the one hosted
// replica (sim/replica.h) and charged to the §1.1 paper ledger, and every
// delivered coarse report is answered with the coordinator's decision: a
// kBroadcast to every site if it moved the coarse round, else a
// kNoBroadcast to the reporter. The core decides; a tracker's own
// broadcast is never forwarded.
//
// A site is attached or detached. Frames staged for a detached site are
// journaled only; Attach(site, watermark) restarts its downlink sender
// past `watermark` and re-sends the journal suffix. Staged frames leave
// through a DownlinkSink that says whether a frame is a first
// transmission or a resend. Sender backoff runs on a caller-set tick, so
// retransmission is the caller's choice (DueRetransmits); the daemon's
// TCP channels never call it.

#ifndef DISTTRACK_SIM_COORDINATOR_CORE_H_
#define DISTTRACK_SIM_COORDINATOR_CORE_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "disttrack/sim/replica.h"
#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {

/// Where the core's staged downlink frames leave. `resend` is false for
/// a frame's first transmission and true for a catch-up re-send.
class DownlinkSink {
 public:
  virtual ~DownlinkSink() = default;
  virtual void Send(int site, const std::vector<uint8_t>& frame,
                    bool resend) = 0;
};

class CoordinatorCore {
 public:
  /// §1.1 paper ledger: one message + PaperWordCharge words per applied
  /// uplink data frame, k messages + k words per broadcast decision.
  /// Deduplicated frames and service-plane frames charge nothing.
  struct Ledger {
    uint64_t paper_messages = 0, paper_words = 0;
    uint64_t broadcasts = 0, decisions = 0;
  };

  /// Hosts the replica for the given tracker kind. Every site starts
  /// detached. `sink` must outlive the core.
  CoordinatorCore(const count::RandomizedCountOptions& o, DownlinkSink* sink)
      : CoordinatorCore(o.num_sites, sink, CountReplica(o)) {}
  CoordinatorCore(const frequency::RandomizedFrequencyOptions& o,
                  DownlinkSink* sink)
      : CoordinatorCore(o.num_sites, sink, FrequencyReplica(o)) {}
  CoordinatorCore(const rank::RandomizedRankOptions& o, DownlinkSink* sink)
      : CoordinatorCore(o.num_sites, sink, RankReplica(o)) {}

  /// Accepts one uplink frame of `site` at sequence number `seq` and
  /// applies every frame it delivers in order (replica, ledger, coarse
  /// decision), appending each to `*applied`. Returns false when the
  /// replica refuses a frame: that frame and the ones after it are not
  /// applied, and the caller should drop the link.
  bool Receive(int site, uint64_t seq, wire::Message msg,
               std::vector<wire::Message>* applied);

  /// Journals one sequenced downlink frame for `site`, and sends it now
  /// if the site is attached.
  void Stage(int site, wire::Message msg);

  /// Cumulative downlink ack from `site`.
  void Ack(int site, uint64_t cum_seq) { Chan(site).down.Ack(cum_seq); }

  /// Appends `site`'s downlink frames due for retransmission at the
  /// current tick to `*out`.
  void DueRetransmits(int site, std::vector<std::vector<uint8_t>>* out) {
    Chan(site).down.DueRetransmits(tick_, out);
  }

  /// Reconnects `site`, which has applied its downlink through
  /// `down_watermark` (<= journal_size(site)): the sender continues
  /// at the next seq, and the journal suffix is re-sent in order.
  void Attach(int site, uint64_t down_watermark);

  /// Disconnects `site`: unacked downlink frames and out-of-order uplink
  /// frames are dropped (the peers re-send them after Attach).
  void Detach(int site);

  /// Tick the downlink senders stage and retransmit at.
  void set_tick(uint64_t now) { tick_ = now; }

  uint64_t up_watermark(int site) const { return Chan(site).up.watermark(); }
  uint64_t journal_size(int site) const { return Chan(site).journal.size(); }
  /// Downlink seq of the last kBroadcast staged to `site` (0: none).
  uint64_t last_broadcast(int site) const { return Chan(site).last_broadcast; }
  bool down_idle(int site) const { return Chan(site).down.idle(); }
  uint64_t duplicates() const;       ///< uplink frames dropped by dedup
  uint64_t retransmissions() const;  ///< downlink backoff resends

  const Ledger& ledger() const { return ledger_; }

  /// The hosted replica's coarse mirror (n', n̄, round).
  const CoarseMirror& coarse() const;
  /// The hosted replica's estimate for `query` (ignored by count).
  double Estimate(uint64_t query) const;
  /// The hosted replica, or null for another tracker kind.
  const FrequencyReplica* frequency() const {
    return std::get_if<FrequencyReplica>(&replica_);
  }
  const RankReplica* rank() const { return std::get_if<RankReplica>(&replica_); }

 private:
  struct Channel {
    ReliableReceiver up;
    ReliableSender down;
    std::vector<wire::Message> journal;  ///< downlink seq i+1 at index i
    uint64_t last_broadcast = 0;
    bool attached = false;
  };

  using Replica = std::variant<CountReplica, FrequencyReplica, RankReplica>;

  CoordinatorCore(int num_sites, DownlinkSink* sink, Replica replica);

  Channel& Chan(int site) { return channels_[static_cast<size_t>(site)]; }
  const Channel& Chan(int site) const {
    return channels_[static_cast<size_t>(site)];
  }
  bool Apply(int site, const wire::Message& msg, uint64_t up_seq);
  void Decide(int site, bool broadcasts, uint64_t up_seq);
  void Transmit(int site, const wire::Message& msg, bool resend);

  int num_sites_;
  DownlinkSink* sink_;
  uint64_t tick_ = 0;
  std::vector<Channel> channels_;
  Ledger ledger_;
  Replica replica_;
};

}  // namespace sim
}  // namespace disttrack

#endif  // DISTTRACK_SIM_COORDINATOR_CORE_H_
