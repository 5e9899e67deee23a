#include "disttrack/sim/robust_cluster.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "disttrack/sim/coordinator_core.h"

namespace disttrack {
namespace sim {

namespace {

// Geometric checkpoint schedule factor (cluster.h's default).
constexpr double kCheckpointFactor = 1.5;

// Abort bound on one quiescence pump. A correct run quiesces in a few
// ticks per arrival; hitting the cap means frames stopped making progress
// (a transport bug, not a fault — faults always retransmit).
constexpr uint64_t kTickCap = 1000000;

// Per-site channel topology (link ids are site * 4 + kind):
//   kind 0  up_data    site -> coordinator   data frames
//   kind 1  up_ack     coordinator -> site   cumulative acks for up_data
//   kind 2  down_data  coordinator -> site   decision frames
//   kind 3  down_ack   site -> coordinator   cumulative acks for down_data
// Data links carry reliable channels (a ReliableSender / ReliableReceiver
// pair; the coordinator's halves live in the CoordinatorCore); ack links
// are fire-and-forget (a lost ack is recovered by the next ack or by the
// sender's retransmit). The sites' backoff matches the core's: its
// initial delay must exceed the 2-tick send+ack round trip, or a
// fault-free run would retransmit.
constexpr int kUpData = 0;
constexpr int kUpAck = 1;
constexpr int kDownData = 2;
constexpr int kDownAck = 3;
constexpr uint64_t kBackoffInitial = 4;
constexpr uint64_t kBackoffCap = 64;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Frame-content equality for the crash-replay cross-check. The epoch tag
/// is excluded on purpose: a replayed frame is re-stamped with the
/// *current* round (the coordinator kept the round state through the
/// site's crash), while the journaled original carries the round at its
/// first emission. Everything the estimators consume must match exactly.
bool SameMessageIgnoringEpoch(const wire::Message& a, const wire::Message& b) {
  return a.type == b.type && a.site == b.site && a.a == b.a && a.b == b.b &&
         a.c == b.c && a.paper_words == b.paper_words &&
         a.values == b.values && a.segments == b.segments;
}

// --- What differs between the three trackers -------------------------------

void Deliver(count::RandomizedCountTracker* t, const Arrival& a) {
  t->Arrive(a.site);
}
template <typename Tracker>
void Deliver(Tracker* t, const Arrival& a) {
  t->Arrive(a.site, a.key);
}
double Estimate(const count::RandomizedCountTracker& t, uint64_t) {
  return t.EstimateCount();
}
double Estimate(const frequency::RandomizedFrequencyTracker& t,
                uint64_t item) {
  return t.EstimateFrequency(item);
}
double Estimate(const rank::RandomizedRankTracker& t, uint64_t value) {
  return t.EstimateRank(value);
}

/// Whether `arrival` counts toward the checkpoint truth for `query`.
using TruthFn = bool (*)(const Arrival& arrival, uint64_t query);

// --- Engine ---------------------------------------------------------------

template <typename Tracker, typename Options>
class Engine : public wire::WireTap, public DownlinkSink {
 public:
  Engine(const Options& options, const Workload& workload, uint64_t query,
         const RobustOptions& robust, TruthFn counts)
      : options_(options),
        workload_(workload),
        query_(query),
        counts_(counts),
        plan_(robust.plan),
        k_(options.num_sites),
        tracker_(options),
        up_send_(static_cast<size_t>(k_),
                 ReliableSender(ExponentialBackoff(kBackoffInitial,
                                                   kBackoffCap))),
        down_recv_(static_cast<size_t>(k_)),
        site_count_(static_cast<size_t>(k_), 0),
        key_log_(static_cast<size_t>(k_)),
        up_journal_(static_cast<size_t>(k_)),
        snapshots_(static_cast<size_t>(k_)),
        snapshot_pending_(static_cast<size_t>(k_), 0) {
    if (plan_.snapshot_every == 0) plan_.snapshot_every = 1;
    links_.reserve(static_cast<size_t>(k_) * 4);
    for (uint64_t id = 0; id < static_cast<uint64_t>(k_) * 4; ++id) {
      links_.emplace_back(&plan_, id);
    }
    core_ = std::make_unique<CoordinatorCore>(options_, this);
    for (int s = 0; s < k_; ++s) core_->Attach(s, 0);
    tracker_.set_wire_tap(this);
  }

  RobustReport Run() {
    for (int s = 0; s < k_; ++s) TakeSnapshot(s);

    for (const FaultPlan::SiteCrash& crash : plan_.site_crashes) {
      if (crash.site < 0 || crash.site >= k_) {
        Fail("fault plan crashes an out-of-range site");
      }
    }

    std::vector<uint64_t> schedule =
        CheckpointCounts(workload_.size(), kCheckpointFactor);
    size_t ckpt_idx = 0;
    uint64_t truth = 0;

    for (uint64_t g = 0; g < workload_.size() && report_.ok; ++g) {
      // Fault events fire at arrival boundaries: this arrival's site
      // crashes first, in plan order, then its coordinator restarts.
      for (const FaultPlan::SiteCrash& crash : plan_.site_crashes) {
        if (crash.global_arrival == g && report_.ok) {
          CrashAndRecover(crash.site);
        }
      }
      for (uint64_t restart : plan_.coordinator_restarts) {
        if (restart == g && report_.ok) RestartCoordinator();
      }
      if (!report_.ok) break;

      const Arrival& arrival = workload_[g];
      int s = arrival.site;
      current_site_ = s;
      ++site_count_[static_cast<size_t>(s)];
      key_log_[static_cast<size_t>(s)].push_back(arrival.key);
      Deliver(&tracker_, arrival);
      Pump();
      if (!report_.ok) break;

      // Quiescent: the coordinator has applied every frame and taken every
      // decision, so its ledger and round must be the tracker's.
      const CoordinatorCore::Ledger& ledger = core_->ledger();
      if (ledger.paper_messages != tracker_.meter().TotalMessages() ||
          ledger.paper_words != tracker_.meter().TotalWords()) {
        Fail("coordinator ledger diverged from the paper meter");
      } else if (core_->coarse().round != broadcast_records_.size()) {
        Fail("coordinator round diverged after quiescence");
      }
      if (counts_(arrival, query_)) ++truth;

      if (site_count_[static_cast<size_t>(s)] % plan_.snapshot_every == 0) {
        snapshot_pending_[static_cast<size_t>(s)] = 1;
      }
      if (snapshot_pending_[static_cast<size_t>(s)] &&
          tracker_.SiteSnapshotReady(s)) {
        TakeSnapshot(s);
        snapshot_pending_[static_cast<size_t>(s)] = 0;
      }

      if (report_.ok && ckpt_idx < schedule.size() &&
          schedule[ckpt_idx] == g + 1) {
        double est = Estimate(tracker_, query_);
        double rep = core_->Estimate(query_);
        if (!SameBits(est, rep)) {
          Fail("coordinator estimate diverged from tracker");
        }
        report_.checkpoints.push_back(RobustCheckpoint{
            g + 1, est, rep, static_cast<double>(truth)});
        ++ckpt_idx;
      }
    }

    Finish();
    return std::move(report_);
  }

  // WireTap: the tracker hands over each metered message at its §1.1 send
  // instant; stage it on the site's reliable channel and offer it to the
  // link. The tracker's own broadcast is only recorded: the coordinator
  // core decides and sends broadcasts, and the sites check each one
  // against these records.
  void OnMessage(wire::Message&& msg) override {
    if (!report_.ok) return;
    if (msg.site < 0) {
      if (recovering_) {
        Fail("crash replay emitted a broadcast");
        return;
      }
      broadcast_records_.push_back(
          BroadcastRecord{msg.b, current_site_, site_count_});
      return;
    }
    int s = msg.site;
    std::vector<uint8_t> frame;
    uint64_t seq = up_send_[static_cast<size_t>(s)].Stage(msg, now_, &frame);
    auto& journal = up_journal_[static_cast<size_t>(s)];
    if (recovering_) {
      // A replayed frame re-uses its original sequence number (the sender
      // was reset to the snapshot's next_seq and the replay regenerates
      // the identical frame sequence); it must match the journaled
      // original and is charged as recovery retransmission.
      if (seq > journal.size() ||
          !SameMessageIgnoringEpoch(msg, journal[static_cast<size_t>(seq) -
                                                 1])) {
        Fail("crash replay re-emitted a frame that differs from the journal");
        return;
      }
      report_.retransmit_bytes += frame.size();
    } else {
      journal.push_back(std::move(msg));
      report_.wire_bytes += frame.size();
    }
    Offer(s, kUpData, std::move(frame), &report_.retransmit_bytes);
  }

 private:
  struct BroadcastRecord {
    uint64_t n_bar = 0;
    int trigger_site = -1;
    // site_pos[i]: arrivals site i had completed or begun when the
    // broadcast fired. The driver increments site_count before Arrive, so
    // for the trigger site this counts the in-progress arrival.
    std::vector<uint64_t> site_pos;
  };

  struct SiteSnapshot {
    std::vector<uint64_t> blob;
    uint64_t site_arrivals = 0;
    uint64_t up_next_seq = 1;
    uint64_t down_watermark = 0;
    size_t broadcast_count = 0;
  };

  void Fail(const char* what) {
    if (!report_.ok) return;
    report_.ok = false;
    report_.error = what;
  }

  void Finish() {
    for (const FaultyLink& link : links_) {
      report_.link_bytes_offered += link.bytes_offered();
    }
    report_.retransmissions += core_->retransmissions();
    report_.frames_deduped += core_->duplicates();
    for (const ReliableSender& up : up_send_) {
      report_.retransmissions += up.retransmissions();
    }
    for (const ReliableReceiver& down : down_recv_) {
      report_.frames_deduped += down.duplicates();
    }
    report_.paper_words = tracker_.meter().TotalWords();
    report_.paper_messages = tracker_.meter().TotalMessages();
    if (report_.link_bytes_offered != report_.wire_bytes +
                                          report_.retransmit_bytes +
                                          report_.overhead_bytes) {
      Fail("link bytes diverged from the frame accounting");
    }
  }

  // Offers `frame` to `site`'s `kind` link at the current tick; a
  // fault-layer duplicate's bytes are charged to `*dup_bytes`.
  void Offer(int site, int kind, std::vector<uint8_t> frame,
             uint64_t* dup_bytes) {
    *dup_bytes += links_[static_cast<size_t>(site * 4 + kind)].Send(
        std::move(frame), now_);
  }

  // DownlinkSink: the core's decision frames (and catch-up re-sends) go
  // out on the site's down_data link.
  void Send(int site, const std::vector<uint8_t>& frame,
            bool resend) override {
    (resend ? report_.retransmit_bytes : report_.wire_bytes) += frame.size();
    Offer(site, kDownData, frame, &report_.retransmit_bytes);
  }

  // Acks and hellos: transport overhead, outside both data channels.
  void SendControl(int site, int kind, wire::MsgType type, uint64_t a) {
    wire::Message msg;
    msg.type = type;
    msg.site = site;
    msg.a = a;
    std::vector<uint8_t> frame;
    wire::EncodeFrame(msg, 0, &frame);
    report_.overhead_bytes += frame.size();
    Offer(site, kind, std::move(frame), &report_.overhead_bytes);
  }

  // The site's side of a delivered decision: its tracker already ran any
  // broadcast ritual in place, so it checks that the coordinator's
  // broadcast is the one the tracker performed (records are kept in
  // round order, round r at index r - 1).
  void CheckDecision(const wire::Message& msg) {
    if (msg.type == wire::MsgType::kNoBroadcast) return;
    size_t round = static_cast<size_t>(msg.a);
    if (msg.type != wire::MsgType::kBroadcast || round == 0 ||
        round > broadcast_records_.size() ||
        broadcast_records_[round - 1].n_bar != msg.b) {
      Fail("coordinator decision diverged from the tracker's broadcasts");
    }
  }

  // Delivers one decoded frame that arrived on `site`'s `kind` link.
  void Arrived(int site, int kind, wire::Message msg, uint64_t seq) {
    std::vector<wire::Message> delivered;
    switch (kind) {
      case kUpData:
        if (!core_->Receive(site, seq, std::move(msg), &delivered)) {
          Fail("coordinator refused a tracker frame");
        }
        delivery_order_.insert(delivery_order_.end(), delivered.size(),
                               site);
        SendControl(site, kUpAck, wire::MsgType::kAck,
                    core_->up_watermark(site));
        break;
      case kUpAck:
        up_send_[static_cast<size_t>(site)].Ack(msg.a);
        return;
      case kDownData: {
        ReliableReceiver& down = down_recv_[static_cast<size_t>(site)];
        down.Accept(seq, std::move(msg), &delivered);
        for (const wire::Message& d : delivered) CheckDecision(d);
        SendControl(site, kDownAck, wire::MsgType::kAck, down.watermark());
        break;
      }
      case kDownAck:
        core_->Ack(site, msg.a);
        return;
    }
    report_.frames_delivered += delivered.size();
  }

  void Pump() {
    std::vector<std::vector<uint8_t>> frames;
    uint64_t start = now_;
    while (report_.ok) {
      core_->set_tick(++now_);
      for (int s = 0; s < k_ && report_.ok; ++s) {
        for (int kind = 0; kind < 4 && report_.ok; ++kind) {
          frames.clear();
          links_[static_cast<size_t>(s * 4 + kind)].Deliver(now_, &frames);
          for (size_t i = 0; i < frames.size() && report_.ok; ++i) {
            wire::Message msg;
            uint64_t seq = 0;
            if (!wire::DecodeFrame(frames[i].data(), frames[i].size(), &msg,
                                   &seq)) {
              Fail("undecodable frame on a fault-injected link");
            } else if (msg.type != wire::MsgType::kHello) {
              Arrived(s, kind, std::move(msg), seq);
            }
          }
        }
        // Backoff retransmits of both data channels.
        frames.clear();
        up_send_[static_cast<size_t>(s)].DueRetransmits(now_, &frames);
        size_t up_frames = frames.size();
        core_->DueRetransmits(s, &frames);
        for (size_t i = 0; i < frames.size(); ++i) {
          report_.retransmit_bytes += frames[i].size();
          Offer(s, i < up_frames ? kUpData : kDownData, std::move(frames[i]),
                &report_.retransmit_bytes);
        }
      }
      bool idle = true;
      for (const FaultyLink& link : links_) idle = idle && link.idle();
      for (int s = 0; s < k_ && idle; ++s) {
        idle = up_send_[static_cast<size_t>(s)].idle() && core_->down_idle(s);
      }
      if (idle) break;
      if (now_ - start > kTickCap) {
        Fail("transport failed to quiesce within the tick cap");
      }
    }
  }

  void TakeSnapshot(int site) {
    SiteSnapshot& snap = snapshots_[static_cast<size_t>(site)];
    snap.blob.clear();
    tracker_.SerializeSiteState(site, &snap.blob);
    snap.site_arrivals = site_count_[static_cast<size_t>(site)];
    snap.up_next_seq = up_send_[static_cast<size_t>(site)].next_seq();
    snap.down_watermark = down_recv_[static_cast<size_t>(site)].watermark();
    snap.broadcast_count = broadcast_records_.size();
  }

  void CrashAndRecover(int site) {
    const SiteSnapshot& snap = snapshots_[static_cast<size_t>(site)];
    ++report_.site_recoveries;
    recovering_ = true;

    // The crash wipes the site's volatile state: tracker-side private
    // state back to the snapshot, uplink sender soft state (unacked
    // buffer + next seq), downlink delivery watermark. The coordinator
    // detaches the site and keeps its journals, replica and uplink dedup
    // watermark; dedup is what makes the replay idempotent.
    core_->Detach(site);
    tracker_.BeginCrashReplay(site);
    tracker_.RestoreSiteState(site, snap.blob);
    up_send_[static_cast<size_t>(site)].Reset(snap.up_next_seq);
    down_recv_[static_cast<size_t>(site)].Reset(snap.down_watermark);

    // Reconnect handshake: watermark exchange, pure transport overhead.
    SendControl(site, kUpData, wire::MsgType::kHello, snap.up_next_seq - 1);
    SendControl(site, kDownData, wire::MsgType::kHello,
                core_->journal_size(site));

    // Re-attaching re-sends the decisions the site lost, from the core's
    // journal, with their original sequence numbers.
    core_->Attach(site, snap.down_watermark);
    Pump();
    if (!report_.ok) return;
    if (down_recv_[static_cast<size_t>(site)].watermark() !=
        core_->journal_size(site)) {
      Fail("crashed site failed to catch up on decisions");
      return;
    }

    // Replay the site's lost arrivals, interleaved with the round rituals
    // other sites' broadcasts imposed on it, in original order. Every
    // frame the replay re-emits is content-checked against the journal
    // (OnMessage) and deduplicated by the coordinator's receiver.
    size_t rec_idx = snap.broadcast_count;
    const size_t rec_end = broadcast_records_.size();
    const auto& keys = key_log_[static_cast<size_t>(site)];
    const uint64_t j_end = site_count_[static_cast<size_t>(site)];
    for (uint64_t j = snap.site_arrivals; report_.ok; ++j) {
      while (rec_idx < rec_end &&
             broadcast_records_[rec_idx].trigger_site != site &&
             broadcast_records_[rec_idx]
                     .site_pos[static_cast<size_t>(site)] <= j) {
        tracker_.ReplayCrashRitual(site, broadcast_records_[rec_idx].n_bar);
        ++rec_idx;
      }
      if (j == j_end) break;
      const uint64_t* mid = nullptr;
      uint64_t mid_n_bar = 0;
      if (rec_idx < rec_end &&
          broadcast_records_[rec_idx].trigger_site == site &&
          broadcast_records_[rec_idx]
                  .site_pos[static_cast<size_t>(site)] == j + 1) {
        mid_n_bar = broadcast_records_[rec_idx].n_bar;
        mid = &mid_n_bar;
        ++rec_idx;
      }
      tracker_.ReplayCrashArrive(site, keys[static_cast<size_t>(j)], mid);
      Pump();
    }
    if (!report_.ok) return;
    if (rec_idx != rec_end) {
      Fail("crash replay left journaled broadcasts unapplied");
      return;
    }
    tracker_.EndCrashReplay();
    recovering_ = false;

    // The recovered state is the live state: refresh the snapshot when
    // the tracker allows it so later crashes replay from here.
    if (tracker_.SiteSnapshotReady(site)) {
      TakeSnapshot(site);
      snapshot_pending_[static_cast<size_t>(site)] = 0;
    }
  }

  void RestartCoordinator() {
    ++report_.coordinator_restarts;
    double before = core_->Estimate(query_);
    report_.frames_deduped += core_->duplicates();
    report_.retransmissions += core_->retransmissions();
    // Soft state dies; the delivery-order journal is the persistent
    // store. A fresh core re-applies it with every site detached, so its
    // decisions are journaled, not sent, and re-attaching each site at
    // its downlink watermark re-sends only what the site has not applied.
    core_ = std::make_unique<CoordinatorCore>(options_, this);
    core_->set_tick(now_);
    std::vector<size_t> applied(static_cast<size_t>(k_), 0);
    std::vector<wire::Message> delivered;
    for (int s : delivery_order_) {
      size_t i = applied[static_cast<size_t>(s)]++;
      core_->Receive(s, i + 1, up_journal_[static_cast<size_t>(s)][i],
                     &delivered);
    }
    for (int s = 0; s < k_ && report_.ok; ++s) {
      uint64_t watermark = down_recv_[static_cast<size_t>(s)].watermark();
      if (watermark != core_->journal_size(s)) {
        Fail("rebuilt downlink journal diverged from the sites'");
      }
      SendControl(s, kDownData, wire::MsgType::kHello, watermark);
      core_->Attach(s, watermark);
    }
    Pump();
    if (!report_.ok) return;
    if (!SameBits(before, core_->Estimate(query_))) {
      Fail("journal rebuild diverged from the live coordinator");
    } else if (core_->coarse().round != broadcast_records_.size()) {
      Fail("rebuilt coordinator round diverged");
    }
  }

  Options options_;
  const Workload& workload_;
  uint64_t query_;
  TruthFn counts_;
  FaultPlan plan_;
  int k_;

  Tracker tracker_;
  std::unique_ptr<CoordinatorCore> core_;

  // Site halves of the reliable channels; the core holds the others.
  std::vector<FaultyLink> links_;
  std::vector<ReliableSender> up_send_;
  std::vector<ReliableReceiver> down_recv_;

  uint64_t now_ = 0;
  int current_site_ = -1;
  bool recovering_ = false;

  std::vector<uint64_t> site_count_;
  std::vector<std::vector<uint64_t>> key_log_;
  std::vector<std::vector<wire::Message>> up_journal_;  // by seq - 1
  std::vector<int> delivery_order_;  // site of each frame the core applied
  std::vector<BroadcastRecord> broadcast_records_;
  std::vector<SiteSnapshot> snapshots_;
  std::vector<char> snapshot_pending_;

  RobustReport report_;
};

}  // namespace

RobustReport RobustReplayCount(const count::RandomizedCountOptions& options,
                               const Workload& workload,
                               const RobustOptions& robust) {
  return Engine<count::RandomizedCountTracker, count::RandomizedCountOptions>(
             options, workload, 0, robust,
             [](const Arrival&, uint64_t) { return true; })
      .Run();
}

RobustReport RobustReplayFrequency(
    const frequency::RandomizedFrequencyOptions& options,
    const Workload& workload, uint64_t query_item,
    const RobustOptions& robust) {
  return Engine<frequency::RandomizedFrequencyTracker,
                frequency::RandomizedFrequencyOptions>(
             options, workload, query_item, robust,
             [](const Arrival& a, uint64_t item) { return a.key == item; })
      .Run();
}

RobustReport RobustReplayRank(const rank::RandomizedRankOptions& options,
                              const Workload& workload, uint64_t query_value,
                              const RobustOptions& robust) {
  return Engine<rank::RandomizedRankTracker, rank::RandomizedRankOptions>(
             options, workload, query_value, robust,
             [](const Arrival& a, uint64_t value) { return a.key < value; })
      .Run();
}

}  // namespace sim
}  // namespace disttrack
