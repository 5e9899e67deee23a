#include "disttrack/sim/robust_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>

#include "disttrack/common/math_util.h"
#include "disttrack/sim/replica.h"

namespace disttrack {
namespace sim {

namespace {

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

// --- Tracker adapters -----------------------------------------------------

struct CountAdapter {
  using Tracker = count::RandomizedCountTracker;
  using Options = count::RandomizedCountOptions;
  using Replica = CountReplica;
  static void Deliver(Tracker* t, const Arrival& a) { t->Arrive(a.site); }
  static double Estimate(const Tracker& t, uint64_t) {
    return t.EstimateCount();
  }
  static void Truth(const Arrival&, uint64_t, uint64_t* acc) { ++*acc; }
};

struct FrequencyAdapter {
  using Tracker = frequency::RandomizedFrequencyTracker;
  using Options = frequency::RandomizedFrequencyOptions;
  using Replica = FrequencyReplica;
  static void Deliver(Tracker* t, const Arrival& a) {
    t->Arrive(a.site, a.key);
  }
  static double Estimate(const Tracker& t, uint64_t query) {
    return t.EstimateFrequency(query);
  }
  static void Truth(const Arrival& a, uint64_t query, uint64_t* acc) {
    if (a.key == query) ++*acc;
  }
};

struct RankAdapter {
  using Tracker = rank::RandomizedRankTracker;
  using Options = rank::RandomizedRankOptions;
  using Replica = RankReplica;
  static void Deliver(Tracker* t, const Arrival& a) {
    t->Arrive(a.site, a.key);
  }
  static double Estimate(const Tracker& t, uint64_t query) {
    return t.EstimateRank(query);
  }
  static void Truth(const Arrival& a, uint64_t query, uint64_t* acc) {
    if (a.key < query) ++*acc;
  }
};

// --- Engine ---------------------------------------------------------------

// Per-site channel topology (link ids are site * 4 + kind):
//   kind 0  up_data    site -> coordinator   data frames
//   kind 1  up_ack     coordinator -> site   cumulative acks for up_data
//   kind 2  down_data  coordinator -> site   broadcast frames
//   kind 3  down_ack   site -> coordinator   cumulative acks for down_data
// Data links carry reliable channels (ReliableSender / ReliableReceiver);
// ack links are fire-and-forget (a lost ack is recovered by the next ack
// or by the sender's retransmit). The backoff's initial delay must exceed
// the 2-tick send+ack round trip, or a fault-free run would retransmit.
constexpr int kUpData = 0;
constexpr int kUpAck = 1;
constexpr int kDownData = 2;
constexpr int kDownAck = 3;
constexpr uint64_t kBackoffInitial = 4;
constexpr uint64_t kBackoffCap = 64;

template <typename Adapter>
class Engine : public wire::WireTap {
 public:
  Engine(const typename Adapter::Options& options, const Workload& workload,
         uint64_t query, const RobustOptions& robust)
      : options_(options),
        workload_(workload),
        query_(query),
        robust_(robust),
        plan_(robust.plan),
        k_(options.num_sites),
        tracker_(options),
        replica_(options),
        meter_(options.num_sites),
        site_count_(static_cast<size_t>(k_), 0),
        key_log_(static_cast<size_t>(k_)),
        up_journal_(static_cast<size_t>(k_)),
        down_journal_(static_cast<size_t>(k_)),
        snapshots_(static_cast<size_t>(k_)),
        snapshot_pending_(static_cast<size_t>(k_), 0) {
    if (plan_.snapshot_every == 0) plan_.snapshot_every = 1;
    links_.reserve(static_cast<size_t>(k_) * 4);
    for (int s = 0; s < k_; ++s) {
      for (int kind = 0; kind < 4; ++kind) {
        links_.emplace_back(&plan_, static_cast<uint64_t>(s * 4 + kind));
      }
    }
    ExponentialBackoff backoff(kBackoffInitial, kBackoffCap);
    up_send_.assign(static_cast<size_t>(k_), ReliableSender(backoff));
    down_send_.assign(static_cast<size_t>(k_), ReliableSender(backoff));
    up_recv_.assign(static_cast<size_t>(k_), ReliableReceiver());
    down_recv_.assign(static_cast<size_t>(k_), ReliableReceiver());
    tracker_.set_wire_tap(this);
  }

  RobustReport Run() {
    for (int s = 0; s < k_; ++s) TakeSnapshot(s);

    std::vector<FaultPlan::SiteCrash> crashes = plan_.site_crashes;
    std::stable_sort(crashes.begin(), crashes.end(),
                     [](const FaultPlan::SiteCrash& a,
                        const FaultPlan::SiteCrash& b) {
                       return a.global_arrival < b.global_arrival;
                     });
    std::vector<uint64_t> restarts = plan_.coordinator_restarts;
    std::sort(restarts.begin(), restarts.end());
    for (const auto& crash : crashes) {
      if (crash.site < 0 || crash.site >= k_) {
        return Abort("fault plan crashes an out-of-range site");
      }
    }

    std::vector<uint64_t> schedule =
        CheckpointCounts(workload_.size(), robust_.checkpoint_factor);
    size_t crash_idx = 0;
    size_t restart_idx = 0;
    size_t ckpt_idx = 0;
    uint64_t truth = 0;

    for (uint64_t g = 0; g < workload_.size() && report_.ok; ++g) {
      while (crash_idx < crashes.size() &&
             crashes[crash_idx].global_arrival == g && report_.ok) {
        CrashAndRecover(crashes[crash_idx].site);
        ++crash_idx;
      }
      while (restart_idx < restarts.size() && restarts[restart_idx] == g &&
             report_.ok) {
        RestartCoordinator();
        ++restart_idx;
      }
      if (!report_.ok) break;

      const Arrival& arrival = workload_[g];
      current_site_ = arrival.site;
      ++site_count_[static_cast<size_t>(arrival.site)];
      key_log_[static_cast<size_t>(arrival.site)].push_back(arrival.key);
      arrival_paper_words_ = 0;
      uint64_t words_before = tracker_.meter().TotalWords();

      Adapter::Deliver(&tracker_, arrival);
      Pump();
      if (!report_.ok) break;

      if (tracker_.meter().TotalWords() - words_before !=
          arrival_paper_words_) {
        return Abort("frame word charges diverged from the paper meter");
      }
      if (replica_.round() != broadcast_records_.size()) {
        return Abort("replica round diverged after quiescence");
      }
      Adapter::Truth(arrival, query_, &truth);

      int s = arrival.site;
      if (site_count_[static_cast<size_t>(s)] % plan_.snapshot_every == 0) {
        snapshot_pending_[static_cast<size_t>(s)] = 1;
      }
      if (snapshot_pending_[static_cast<size_t>(s)] &&
          tracker_.SiteSnapshotReady(s)) {
        TakeSnapshot(s);
        snapshot_pending_[static_cast<size_t>(s)] = 0;
      }

      if (ckpt_idx < schedule.size() && schedule[ckpt_idx] == g + 1) {
        double est = Adapter::Estimate(tracker_, query_);
        double rep = replica_.Estimate(query_);
        if (!SameBits(est, rep)) {
          return Abort("replica estimate diverged from tracker");
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
  // instant; stage it on the reliable channel and offer it to the link.
  void OnMessage(wire::Message&& msg) override {
    if (!report_.ok) return;
    if (msg.site < 0) {
      if (recovering_) {
        Fail("crash replay emitted a broadcast");
        return;
      }
      arrival_paper_words_ += wire::PaperWordCharge(msg, k_);
      broadcast_records_.push_back(
          BroadcastRecord{msg.a, msg.b, current_site_, site_count_});
      for (int s = 0; s < k_; ++s) {
        std::vector<uint8_t> frame;
        down_send_[static_cast<size_t>(s)].Stage(msg, now_, &frame);
        down_journal_[static_cast<size_t>(s)].push_back(msg);
        meter_.RecordWireFrame(frame.size());
        uint64_t dup = links_[LinkId(s, kDownData)].Send(std::move(frame),
                                                         now_);
        if (dup) meter_.RecordRetransmit(dup);
      }
      return;
    }
    int s = msg.site;
    std::vector<uint8_t> frame;
    uint64_t seq = up_send_[static_cast<size_t>(s)].Stage(msg, now_, &frame);
    if (recovering_) {
      // A replayed frame re-uses its original sequence number (the sender
      // was reset to the snapshot's next_seq and the replay regenerates
      // the identical frame sequence); it must match the journaled
      // original and is charged as recovery retransmission.
      const auto& journal = up_journal_[static_cast<size_t>(s)];
      if (seq > journal.size() ||
          !SameMessageIgnoringEpoch(msg, journal[static_cast<size_t>(seq) -
                                                 1])) {
        Fail("crash replay re-emitted a frame that differs from the journal");
        return;
      }
      meter_.RecordRetransmit(frame.size());
    } else {
      arrival_paper_words_ += wire::PaperWordCharge(msg, k_);
      meter_.RecordWireFrame(frame.size());
    }
    uint64_t dup = links_[LinkId(s, kUpData)].Send(std::move(frame), now_);
    if (dup) meter_.RecordRetransmit(dup);
  }

 private:
  struct BroadcastRecord {
    uint64_t round = 0;
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

  size_t LinkId(int site, int kind) const {
    return static_cast<size_t>(site) * 4 + static_cast<size_t>(kind);
  }

  void Fail(const char* what) {
    if (!report_.ok) return;
    report_.ok = false;
    report_.error = what;
  }

  RobustReport Abort(const char* what) {
    Fail(what);
    Finish();
    return std::move(report_);
  }

  void Finish() {
    report_.wire_bytes = meter_.wire().bytes;
    report_.retransmit_bytes = meter_.retransmit().bytes;
    report_.overhead_bytes = meter_.wire_overhead().bytes;
    report_.link_bytes_offered = 0;
    for (const FaultyLink& link : links_) {
      report_.link_bytes_offered += link.bytes_offered();
    }
    report_.retransmissions = 0;
    for (int s = 0; s < k_; ++s) {
      report_.retransmissions +=
          up_send_[static_cast<size_t>(s)].retransmissions() +
          down_send_[static_cast<size_t>(s)].retransmissions();
      report_.frames_deduped +=
          up_recv_[static_cast<size_t>(s)].duplicates() +
          down_recv_[static_cast<size_t>(s)].duplicates();
    }
    report_.paper_words = tracker_.meter().TotalWords();
    report_.paper_messages = tracker_.meter().TotalMessages();
    if (report_.ok &&
        report_.link_bytes_offered !=
            report_.wire_bytes + report_.retransmit_bytes +
                report_.overhead_bytes) {
      Fail("link bytes diverged from meter frame accounting");
    }
  }

  void SendControl(int site, int kind, wire::MsgType type, uint64_t a) {
    wire::Message msg;
    msg.type = type;
    msg.site = site;
    msg.a = a;
    std::vector<uint8_t> frame;
    wire::EncodeFrame(msg, 0, &frame);
    meter_.RecordWireOverhead(frame.size());
    uint64_t dup = links_[LinkId(site, kind)].Send(std::move(frame), now_);
    if (dup) meter_.RecordWireOverhead(dup);
  }

  void ApplyUplink(int site, const wire::Message& msg) {
    auto& journal = up_journal_[static_cast<size_t>(site)];
    journal.push_back(msg);
    global_journal_.push_back(msg);
    uint64_t round_before = replica_.round();
    replica_.Apply(msg);
    if (replica_.round() != round_before) {
      // Derived broadcast: cross-check against the tap-side record.
      if (replica_.round() != round_before + 1 ||
          replica_.round() > broadcast_records_.size()) {
        Fail("replica derived a broadcast the tracker never performed");
        return;
      }
      const BroadcastRecord& rec =
          broadcast_records_[static_cast<size_t>(replica_.round()) - 1];
      if (rec.round != replica_.round() || rec.n_bar != replica_.n_bar()) {
        Fail("replica broadcast diverged from the tracker's");
      }
    }
  }

  void Pump() {
    std::vector<std::vector<uint8_t>> frames;
    std::vector<wire::Message> delivered;
    uint64_t start = now_;
    while (report_.ok) {
      ++now_;
      for (int s = 0; s < k_ && report_.ok; ++s) {
        for (int kind = 0; kind < 4; ++kind) {
          frames.clear();
          if (!links_[LinkId(s, kind)].Deliver(now_, &frames)) continue;
          for (auto& raw : frames) {
            wire::Message msg;
            uint64_t seq = 0;
            if (!wire::DecodeFrame(raw.data(), raw.size(), &msg, &seq)) {
              Fail("undecodable frame on a fault-injected link");
              break;
            }
            switch (kind) {
              case kUpData: {
                if (msg.type == wire::MsgType::kHello) break;
                delivered.clear();
                up_recv_[static_cast<size_t>(s)].Accept(seq, std::move(msg),
                                                        &delivered);
                for (const wire::Message& m : delivered) ApplyUplink(s, m);
                report_.frames_delivered += delivered.size();
                SendControl(s, kUpAck, wire::MsgType::kAck,
                            up_recv_[static_cast<size_t>(s)].watermark());
                break;
              }
              case kUpAck:
                up_send_[static_cast<size_t>(s)].Ack(msg.a);
                break;
              case kDownData: {
                if (msg.type == wire::MsgType::kHello) break;
                delivered.clear();
                down_recv_[static_cast<size_t>(s)].Accept(
                    seq, std::move(msg), &delivered);
                uint64_t wm =
                    down_recv_[static_cast<size_t>(s)].watermark();
                uint64_t base = wm - delivered.size();
                for (size_t i = 0; i < delivered.size(); ++i) {
                  // The site applies nothing (the tracker already ran the
                  // broadcast ritual in place); verify the frame matches
                  // the coordinator's journal copy bit for bit.
                  const auto& journal =
                      down_journal_[static_cast<size_t>(s)];
                  size_t idx = static_cast<size_t>(base + i);
                  if (idx >= journal.size() ||
                      !SameMessageIgnoringEpoch(delivered[i],
                                                journal[idx]) ||
                      delivered[i].epoch != journal[idx].epoch) {
                    Fail("delivered broadcast diverged from the journal");
                    break;
                  }
                }
                report_.frames_delivered += delivered.size();
                SendControl(s, kDownAck, wire::MsgType::kAck, wm);
                break;
              }
              case kDownAck:
                down_send_[static_cast<size_t>(s)].Ack(msg.a);
                break;
            }
            if (!report_.ok) break;
          }
        }
        frames.clear();
        if (up_send_[static_cast<size_t>(s)].DueRetransmits(now_, &frames)) {
          for (auto& raw : frames) {
            meter_.RecordRetransmit(raw.size());
            uint64_t dup =
                links_[LinkId(s, kUpData)].Send(std::move(raw), now_);
            if (dup) meter_.RecordRetransmit(dup);
          }
        }
        frames.clear();
        if (down_send_[static_cast<size_t>(s)].DueRetransmits(now_,
                                                              &frames)) {
          for (auto& raw : frames) {
            meter_.RecordRetransmit(raw.size());
            uint64_t dup =
                links_[LinkId(s, kDownData)].Send(std::move(raw), now_);
            if (dup) meter_.RecordRetransmit(dup);
          }
        }
      }
      if (!report_.ok) break;
      bool idle = true;
      for (const FaultyLink& link : links_) idle = idle && link.idle();
      for (int s = 0; s < k_ && idle; ++s) {
        idle = up_send_[static_cast<size_t>(s)].idle() &&
               down_send_[static_cast<size_t>(s)].idle();
      }
      if (idle) break;
      if (now_ - start > robust_.tick_cap) {
        Fail("transport failed to quiesce within the tick cap");
        break;
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
    // buffer + next seq), downlink delivery watermark. Coordinator-side
    // state — the journal, the replica, the uplink dedup watermark —
    // survives by design; dedup is what makes the replay idempotent.
    tracker_.BeginCrashReplay(site);
    tracker_.RestoreSiteState(site, snap.blob);
    up_send_[static_cast<size_t>(site)].Reset(snap.up_next_seq);
    down_recv_[static_cast<size_t>(site)].Reset(snap.down_watermark);

    // Reconnect handshake: watermark exchange, pure transport overhead.
    SendControl(site, kUpData, wire::MsgType::kHello, snap.up_next_seq - 1);
    SendControl(site, kDownData, wire::MsgType::kHello,
                down_journal_[static_cast<size_t>(site)].size());

    // Re-deliver the broadcasts the site lost, from the coordinator's
    // journal, with their original sequence numbers.
    const auto& down_journal = down_journal_[static_cast<size_t>(site)];
    uint64_t live_next =
        down_send_[static_cast<size_t>(site)].next_seq();
    if (live_next != down_journal.size() + 1) {
      Fail("down channel sequence diverged from the journal");
      return;
    }
    down_send_[static_cast<size_t>(site)].Reset(snap.down_watermark + 1);
    for (uint64_t seq = snap.down_watermark + 1; seq <= down_journal.size();
         ++seq) {
      std::vector<uint8_t> frame;
      down_send_[static_cast<size_t>(site)].Stage(
          down_journal[static_cast<size_t>(seq) - 1], now_, &frame);
      meter_.RecordRetransmit(frame.size());
      uint64_t dup =
          links_[LinkId(site, kDownData)].Send(std::move(frame), now_);
      if (dup) meter_.RecordRetransmit(dup);
    }
    Pump();
    if (!report_.ok) return;
    if (down_recv_[static_cast<size_t>(site)].watermark() !=
        down_journal.size()) {
      Fail("crashed site failed to catch up on broadcasts");
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
    for (uint64_t j = snap.site_arrivals; j < j_end && report_.ok; ++j) {
      while (rec_idx < rec_end &&
             broadcast_records_[rec_idx].trigger_site != site &&
             broadcast_records_[rec_idx]
                     .site_pos[static_cast<size_t>(site)] <= j) {
        tracker_.ReplayCrashRitual(site, broadcast_records_[rec_idx].n_bar);
        ++rec_idx;
      }
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
    while (rec_idx < rec_end &&
           broadcast_records_[rec_idx].trigger_site != site &&
           broadcast_records_[rec_idx]
                   .site_pos[static_cast<size_t>(site)] <= j_end) {
      tracker_.ReplayCrashRitual(site, broadcast_records_[rec_idx].n_bar);
      ++rec_idx;
    }
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
    double before = replica_.Estimate(query_);
    // Soft state dies; the epoch journal is the persistent store. Rebuild
    // the replica by re-applying the journal in original delivery order,
    // and re-derive the channel positions from the per-site journals.
    replica_ = typename Adapter::Replica(options_);
    for (const wire::Message& msg : global_journal_) replica_.Apply(msg);
    for (int s = 0; s < k_; ++s) {
      up_recv_[static_cast<size_t>(s)].Reset(
          up_journal_[static_cast<size_t>(s)].size());
      down_send_[static_cast<size_t>(s)].Reset(
          down_journal_[static_cast<size_t>(s)].size() + 1);
      SendControl(s, kDownData, wire::MsgType::kHello,
                  down_journal_[static_cast<size_t>(s)].size());
    }
    Pump();
    if (!report_.ok) return;
    double after = replica_.Estimate(query_);
    if (!SameBits(before, after)) {
      Fail("journal rebuild diverged from the live replica");
      return;
    }
    if (replica_.round() != broadcast_records_.size()) {
      Fail("rebuilt replica round diverged");
    }
  }

  typename Adapter::Options options_;
  const Workload& workload_;
  uint64_t query_;
  RobustOptions robust_;
  FaultPlan plan_;
  int k_;

  typename Adapter::Tracker tracker_;
  typename Adapter::Replica replica_;
  CommMeter meter_;  // wire channels only; the tracker's meter stays §1.1

  std::vector<FaultyLink> links_;
  std::vector<ReliableSender> up_send_;
  std::vector<ReliableSender> down_send_;
  std::vector<ReliableReceiver> up_recv_;
  std::vector<ReliableReceiver> down_recv_;

  uint64_t now_ = 0;
  int current_site_ = -1;
  bool recovering_ = false;
  uint64_t arrival_paper_words_ = 0;

  std::vector<uint64_t> site_count_;
  std::vector<std::vector<uint64_t>> key_log_;
  std::vector<std::vector<wire::Message>> up_journal_;    // by seq - 1
  std::vector<std::vector<wire::Message>> down_journal_;  // by seq - 1
  std::vector<wire::Message> global_journal_;  // delivery order
  std::vector<BroadcastRecord> broadcast_records_;
  std::vector<SiteSnapshot> snapshots_;
  std::vector<char> snapshot_pending_;

  RobustReport report_;
};

}  // namespace

RobustReport RobustReplayCount(const count::RandomizedCountOptions& options,
                               const Workload& workload,
                               const RobustOptions& robust) {
  return Engine<CountAdapter>(options, workload, 0, robust).Run();
}

RobustReport RobustReplayFrequency(
    const frequency::RandomizedFrequencyOptions& options,
    const Workload& workload, uint64_t query_item,
    const RobustOptions& robust) {
  return Engine<FrequencyAdapter>(options, workload, query_item, robust)
      .Run();
}

RobustReport RobustReplayRank(const rank::RandomizedRankOptions& options,
                              const Workload& workload, uint64_t query_value,
                              const RobustOptions& robust) {
  return Engine<RankAdapter>(options, workload, query_value, robust).Run();
}

}  // namespace sim
}  // namespace disttrack
