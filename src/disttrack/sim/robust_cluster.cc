#include "disttrack/sim/robust_cluster.h"

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>

#include "disttrack/sim/coordinator_core.h"
#include "disttrack/sim/site_core.h"

namespace disttrack {
namespace sim {

namespace {

// Geometric checkpoint schedule factor (cluster.h's default).
constexpr double kCheckpointFactor = 1.5;

// Abort bound on one quiescence pump (or one run's parked pumping). A
// correct run quiesces in a few ticks per frame; hitting the cap means
// frames stopped making progress (a transport bug, not a fault — faults
// always retransmit).
constexpr uint64_t kTickCap = 1000000;

// Per-site channel topology (link ids are site * 4 + kind):
//   kind 0  up_data    site -> coordinator   sequenced site frames
//   kind 1  up_ack     coordinator -> site   cumulative acks for up_data
//   kind 2  down_data  coordinator -> site   sequenced grants, decisions
//   kind 3  down_ack   site -> coordinator   cumulative acks for down_data
// Data links carry the reliable channels whose halves live in the two
// cores; ack links are fire-and-forget (a lost ack is recovered by the
// next ack or by the sender's retransmit).
constexpr int kUpData = 0;
constexpr int kUpAck = 1;
constexpr int kDownData = 2;
constexpr int kDownAck = 3;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Frame-content equality for the differential checks. The epoch tag is
/// excluded on purpose: a site stamps the last round it applied (a
/// restored site, none yet), the oracle the coordinator's round at
/// emission. Everything the estimators consume must match exactly.
bool SameMessageIgnoringEpoch(const wire::Message& a, const wire::Message& b) {
  return a.type == b.type && a.site == b.site && a.a == b.a && a.b == b.b &&
         a.c == b.c && a.paper_words == b.paper_words &&
         a.values == b.values && a.segments == b.segments;
}

/// A site's grant-done reports and ritual acks are service-plane traffic,
/// as are the grants (see Send). How many grants a run takes depends on
/// where the plan splits it, so their first transmissions count as
/// overhead, with acks and hellos.
bool ServicePlane(const wire::Message& msg) {
  return msg.type == wire::MsgType::kGrantDone ||
         msg.type == wire::MsgType::kRitualAck;
}

wire::Message GrantFrame(int site, uint64_t length) {
  wire::Message grant;
  grant.type = wire::MsgType::kGrant;
  grant.site = site;
  grant.a = length;
  return grant;
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
         const FaultPlan& plan, TruthFn counts)
      : options_(options),
        workload_(workload),
        query_(query),
        counts_(counts),
        plan_(plan),
        k_(options.num_sites),
        oracle_(options),
        ends_(static_cast<size_t>(k_)),
        keys_(static_cast<size_t>(k_)),
        site_count_(static_cast<size_t>(k_), 0),
        expected_(static_cast<size_t>(k_)),
        up_journal_(static_cast<size_t>(k_)),
        snapshots_(static_cast<size_t>(k_)),
        snapshot_pending_(static_cast<size_t>(k_), 0) {
    if (plan_.snapshot_every == 0) plan_.snapshot_every = 1;
    links_.reserve(static_cast<size_t>(k_) * 4);
    for (uint64_t id = 0; id < static_cast<uint64_t>(k_) * 4; ++id) {
      links_.emplace_back(&plan_, id);
    }
    // Each site's stream, read by position as a site process derives it.
    for (const Arrival& arrival : workload_) {
      CheckSiteInRange(arrival.site, k_);
      keys_[static_cast<size_t>(arrival.site)].push_back(arrival.key);
    }
    core_ = std::make_unique<CoordinatorCore>(options_, this);
    for (int s = 0; s < k_; ++s) {
      ends_[static_cast<size_t>(s)].engine = this;
      ends_[static_cast<size_t>(s)].site = s;
      sites_.push_back(NewSite(s));
      core_->Attach(s, 0);
    }
    oracle_.set_wire_tap(this);
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

    uint64_t g = 0;
    while (g < workload_.size() && report_.ok) {
      // Fault events fire at arrival boundaries: the crashes planned at
      // this arrival first, in plan order, then coordinator restarts.
      for (const FaultPlan::SiteCrash& crash : plan_.site_crashes) {
        if (crash.global_arrival == g && report_.ok) {
          CrashAndRecover(crash.site);
        }
      }
      for (uint64_t restart : plan_.coordinator_restarts) {
        if (restart == g && report_.ok) RestartCoordinator();
      }
      if (!report_.ok) break;

      // One run: the same site's arrivals up to the next checkpoint or
      // fault event.
      const int s = workload_[g].site;
      uint64_t limit = workload_.size();
      if (ckpt_idx < schedule.size() && schedule[ckpt_idx] < limit) {
        limit = schedule[ckpt_idx];
      }
      uint64_t end = g + 1;
      while (end < limit && workload_[end].site == s && !FaultAt(end)) ++end;

      // The oracle runs it first, so the frames and broadcasts the site
      // and the core must produce are on record.
      for (uint64_t i = g; i < end; ++i) {
        Deliver(&oracle_, workload_[i]);
        if (counts_(workload_[i], query_)) ++truth;
      }
      const uint64_t every = plan_.snapshot_every;
      const uint64_t before = site_count_[static_cast<size_t>(s)];
      site_count_[static_cast<size_t>(s)] += end - g;
      Grant(s, end - g);
      Pump(s);
      if (!report_.ok) break;

      // Quiescent: the coordinator has applied every frame and taken every
      // decision, so its ledger and round must be the oracle's.
      const CoordinatorCore::Ledger& ledger = core_->ledger();
      if (ledger.paper_messages != oracle_.meter().TotalMessages() ||
          ledger.paper_words != oracle_.meter().TotalWords()) {
        Fail("coordinator ledger diverged from the oracle's paper meter");
      } else if (core_->coarse().round != broadcasts_.size()) {
        Fail("coordinator round diverged from the oracle's");
      }
      for (const std::unique_ptr<SiteCore>& site : sites_) {
        if (site->failed()) Fail(site->error());
      }

      if (before / every != site_count_[static_cast<size_t>(s)] / every) {
        snapshot_pending_[static_cast<size_t>(s)] = 1;
      }
      if (snapshot_pending_[static_cast<size_t>(s)] &&
          sites_[static_cast<size_t>(s)]->SnapshotReady()) {
        TakeSnapshot(s);
      }

      if (report_.ok && ckpt_idx < schedule.size() &&
          schedule[ckpt_idx] == end) {
        double est = Estimate(oracle_, query_);
        double rep = core_->Estimate(query_);
        if (!SameBits(est, rep)) {
          Fail("coordinator estimate diverged from the oracle's");
        }
        report_.checkpoints.push_back(
            RobustCheckpoint{end, est, rep, static_cast<double>(truth)});
        ++ckpt_idx;
      }
      g = end;
    }

    Finish();
    return std::move(report_);
  }

  // WireTap of the oracle: record each site's frames and each broadcast.
  void OnMessage(wire::Message&& msg) override {
    if (msg.site < 0) {
      broadcasts_.push_back(msg.b);
    } else {
      expected_[static_cast<size_t>(msg.site)].push_back(std::move(msg));
    }
  }

 private:
  // A site's transport: its frames go out on its up_data link, and while
  // parked it pumps the links one tick at a time.
  struct SiteEnd final : SiteLink {
    Engine* engine = nullptr;
    int site = 0;
    void SendUp(const std::vector<uint8_t>& frame) override {
      engine->SendUp(site, frame);
    }
    bool PumpDown() override { return engine->PumpParked(); }
  };

  // One entry of the coordinator's order journal: the next uplink frame
  // of `site` the core applied (grant == 0), or a kGrant staged to it.
  struct OrderEntry {
    int site = 0;
    uint64_t grant = 0;
  };

  void Fail(const std::string& what) {
    if (!report_.ok) return;
    report_.ok = false;
    report_.error = what;
  }

  bool FaultAt(uint64_t g) const {
    for (const FaultPlan::SiteCrash& crash : plan_.site_crashes) {
      if (crash.global_arrival == g) return true;
    }
    for (uint64_t restart : plan_.coordinator_restarts) {
      if (restart == g) return true;
    }
    return false;
  }

  std::unique_ptr<SiteCore> NewSite(int site) {
    using Hosted = HostedSite<typename Tracker::Site>;
    auto core = std::make_unique<SiteCore>(
        site, std::make_unique<Hosted>(options_, site),
        &ends_[static_cast<size_t>(site)]);
    core->set_tick(now_);
    return core;
  }

  // A site core's channel counters join the report when it dies.
  void Retire(const SiteCore& site) {
    report_.retransmissions += site.retransmissions();
    report_.frames_deduped += site.duplicates();
  }

  void Finish() {
    for (const FaultyLink& link : links_) {
      report_.link_bytes_offered += link.bytes_offered();
    }
    report_.retransmissions += core_->retransmissions();
    report_.frames_deduped += core_->duplicates();
    for (const std::unique_ptr<SiteCore>& site : sites_) Retire(*site);
    report_.paper_words = oracle_.meter().TotalWords();
    report_.paper_messages = oracle_.meter().TotalMessages();
    for (const std::deque<wire::Message>& expected : expected_) {
      if (!expected.empty()) Fail("a site never sent a frame the oracle did");
    }
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

  // A site's staged frame. Its first transmission must be the oracle's
  // next frame for that site (service-plane frames aside); a seq sent
  // before is a restored site regenerating what it lost, and must match
  // its first transmission.
  void SendUp(int site, const std::vector<uint8_t>& frame) {
    wire::Message msg;
    uint64_t seq = 0;
    wire::DecodeFrame(frame.data(), frame.size(), &msg, &seq);
    std::vector<wire::Message>& journal =
        up_journal_[static_cast<size_t>(site)];
    if (seq <= journal.size()) {
      if (!SameMessageIgnoringEpoch(msg,
                                    journal[static_cast<size_t>(seq) - 1])) {
        Fail("recovered site re-emitted a frame unlike its first one");
      }
      report_.retransmit_bytes += frame.size();
    } else if (ServicePlane(msg)) {
      report_.overhead_bytes += frame.size();
      journal.push_back(std::move(msg));
    } else {
      std::deque<wire::Message>& expected =
          expected_[static_cast<size_t>(site)];
      if (expected.empty() ||
          !SameMessageIgnoringEpoch(msg, expected.front())) {
        Fail("site frame diverged from the oracle's");
      } else {
        expected.pop_front();
      }
      report_.wire_bytes += frame.size();
      journal.push_back(std::move(msg));
    }
    Offer(site, kUpData, frame, &report_.retransmit_bytes);
  }

  // DownlinkSink: the core's grants and decisions (and catch-up re-sends)
  // go out on the site's down_data link.
  void Send(int site, const std::vector<uint8_t>& frame,
            bool resend) override {
    uint64_t* channel = &report_.wire_bytes;
    if (resend) {
      channel = &report_.retransmit_bytes;
    } else if (granting_) {
      channel = &report_.overhead_bytes;
    }
    *channel += frame.size();
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

  // Every kBroadcast handed to a site must be one the oracle made
  // (recorded in round order, round r at index r - 1).
  void CheckBroadcast(const wire::Message& msg) {
    size_t round = static_cast<size_t>(msg.a);
    if (round == 0 || round > broadcasts_.size() ||
        broadcasts_[round - 1] != msg.b) {
      Fail("coordinator broadcast diverged from the oracle's");
    }
  }

  // Delivers one decoded frame that arrived on `site`'s `kind` link.
  void Arrived(int site, int kind, wire::Message msg, uint64_t seq) {
    SiteCore& end = *sites_[static_cast<size_t>(site)];
    switch (kind) {
      case kUpData: {
        std::vector<wire::Message> applied;
        if (!core_->Receive(site, seq, std::move(msg), &applied)) {
          Fail("coordinator refused a site frame");
        }
        order_.insert(order_.end(), applied.size(), OrderEntry{site, 0});
        report_.frames_delivered += applied.size();
        return;
      }
      case kUpAck:
        end.Receive(seq, std::move(msg));
        return;
      case kDownData: {
        if (msg.type == wire::MsgType::kBroadcast) CheckBroadcast(msg);
        uint64_t watermark = end.down_watermark();
        end.Receive(seq, std::move(msg));
        report_.frames_delivered += end.down_watermark() - watermark;
        return;
      }
      case kDownAck:
        core_->Ack(site, msg.a);
        return;
    }
  }

  // One tick: every link delivers what is due, each data link's receiver
  // acks what arrived (one cumulative ack per tick, duplicates included:
  // the earlier ack may have been lost), then both data channels offer
  // their due backoff retransmits.
  void Step() {
    std::vector<std::vector<uint8_t>> frames;
    core_->set_tick(++now_);
    for (const std::unique_ptr<SiteCore>& site : sites_) site->set_tick(now_);
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
        if (frames.empty() || !report_.ok) continue;
        if (kind == kUpData) {
          SendControl(s, kUpAck, wire::MsgType::kAck, core_->up_watermark(s));
        } else if (kind == kDownData) {
          SendControl(s, kDownAck, wire::MsgType::kAck,
                      sites_[static_cast<size_t>(s)]->down_watermark());
        }
      }
      frames.clear();
      sites_[static_cast<size_t>(s)]->DueRetransmits(&frames);
      size_t up_frames = frames.size();
      core_->DueRetransmits(s, &frames);
      for (size_t i = 0; i < frames.size(); ++i) {
        report_.retransmit_bytes += frames[i].size();
        Offer(s, i < up_frames ? kUpData : kDownData, std::move(frames[i]),
              &report_.retransmit_bytes);
      }
    }
  }

  bool Idle() const {
    for (const FaultyLink& link : links_) {
      if (!link.idle()) return false;
    }
    for (int s = 0; s < k_; ++s) {
      if (!sites_[static_cast<size_t>(s)]->up_idle() || !core_->down_idle(s)) {
        return false;
      }
    }
    return true;
  }

  // Steps until everything is delivered and acked, running each grant
  // `site` (-1: none) receives meanwhile: a run's one grant, or every lost
  // one the core re-sends to a recovered site.
  void Pump(int site) {
    pump_start_ = now_;
    while (report_.ok) {
      if (site >= 0 && sites_[static_cast<size_t>(site)]->granted()) {
        const std::vector<uint64_t>& keys = keys_[static_cast<size_t>(site)];
        sites_[static_cast<size_t>(site)]->RunGrant(
            [&keys](uint64_t position) {
              return position < keys.size() ? keys[position] : 0;
            });
        continue;
      }
      if (Idle()) break;
      Step();
      if (now_ - pump_start_ > kTickCap) {
        Fail("transport failed to quiesce within the tick cap");
      }
    }
    if (site >= 0 && report_.ok &&
        sites_[static_cast<size_t>(site)]->position() !=
            site_count_[static_cast<size_t>(site)]) {
      Fail("site did not run the arrivals granted to it");
    }
  }

  // SiteLink::PumpDown of the parked site: one tick. A ritual never
  // parks, so no other site may be parked meanwhile; and with nothing in
  // flight, the decision can never come.
  bool PumpParked() {
    if (parked_) {
      Fail("two sites parked at once");
    } else if (Idle()) {
      Fail("a parked site's decision never came");
    } else if (now_ - pump_start_ > kTickCap) {
      Fail("transport failed to quiesce within the tick cap");
    }
    if (!report_.ok) return false;
    parked_ = true;
    Step();
    parked_ = false;
    return report_.ok;
  }

  void Grant(int site, uint64_t length) {
    order_.push_back(OrderEntry{site, length});
    granting_ = true;
    core_->Stage(site, GrantFrame(site, length));
    granting_ = false;
  }

  // Snapshots come from the site itself. The oracle holds the same site at
  // the same point, so the blob must be the oracle's, word for word.
  void TakeSnapshot(int site) {
    SiteCore::Snapshot& snap = snapshots_[static_cast<size_t>(site)];
    snap = sites_[static_cast<size_t>(site)]->TakeSnapshot();
    snapshot_pending_[static_cast<size_t>(site)] = 0;
    std::vector<uint64_t> oracle;
    if (oracle_.site(site).SnapshotReady()) {
      oracle_.site(site).Serialize(&oracle);
    }
    if (oracle != snap.blob) Fail("site state diverged from the oracle's");
  }

  void CrashAndRecover(int site) {
    ++report_.site_recoveries;
    // The crash loses the site's process: a fresh core restores the last
    // snapshot. The coordinator detaches the site and keeps its journals,
    // replica and uplink dedup watermark; dedup is what makes the replay
    // idempotent.
    Retire(*sites_[static_cast<size_t>(site)]);
    core_->Detach(site);
    sites_[static_cast<size_t>(site)] = NewSite(site);
    const SiteCore::Snapshot& snap = snapshots_[static_cast<size_t>(site)];
    if (!sites_[static_cast<size_t>(site)]->Restore(snap)) {
      Fail("site refused its own snapshot");
      return;
    }

    // Reconnect handshake: watermark exchange, pure transport overhead.
    SendControl(site, kUpData, wire::MsgType::kHello, snap.up_next_seq - 1);
    SendControl(site, kDownData, wire::MsgType::kHello,
                core_->journal_size(site));

    // Re-attaching re-sends every grant and decision past the snapshot,
    // in order, at their original sequence numbers; the site re-runs its
    // lost grants as it first ran them.
    core_->Attach(site, snap.down_watermark);
    Pump(site);
    if (!report_.ok) return;
    if (sites_[static_cast<size_t>(site)]->down_watermark() !=
        core_->journal_size(site)) {
      Fail("recovered site failed to catch up on its downlink");
      return;
    }

    // The recovered state is the live state: snapshot it (checking it
    // against the oracle) at the first point the site allows.
    snapshot_pending_[static_cast<size_t>(site)] = 1;
    if (sites_[static_cast<size_t>(site)]->SnapshotReady()) TakeSnapshot(site);
  }

  void RestartCoordinator() {
    ++report_.coordinator_restarts;
    double before = core_->Estimate(query_);
    report_.frames_deduped += core_->duplicates();
    report_.retransmissions += core_->retransmissions();
    // Soft state dies; the order journal is the persistent store. A fresh
    // core re-applies it with every site detached, so its downlink is
    // journaled, not sent, and re-attaching each site at its downlink
    // watermark re-sends only what the site has not handled.
    core_ = std::make_unique<CoordinatorCore>(options_, this);
    core_->set_tick(now_);
    std::vector<size_t> applied(static_cast<size_t>(k_), 0);
    std::vector<wire::Message> delivered;
    for (const OrderEntry& entry : order_) {
      if (entry.grant > 0) {
        core_->Stage(entry.site, GrantFrame(entry.site, entry.grant));
        continue;
      }
      size_t i = applied[static_cast<size_t>(entry.site)]++;
      core_->Receive(entry.site, i + 1,
                     up_journal_[static_cast<size_t>(entry.site)][i],
                     &delivered);
    }
    for (int s = 0; s < k_ && report_.ok; ++s) {
      uint64_t watermark = sites_[static_cast<size_t>(s)]->down_watermark();
      if (watermark != core_->journal_size(s)) {
        Fail("rebuilt downlink journal diverged from the sites'");
      }
      SendControl(s, kDownData, wire::MsgType::kHello, watermark);
      core_->Attach(s, watermark);
    }
    Pump(-1);
    if (!report_.ok) return;
    if (!SameBits(before, core_->Estimate(query_))) {
      Fail("journal rebuild diverged from the live coordinator");
    } else if (core_->coarse().round != broadcasts_.size()) {
      Fail("rebuilt coordinator round diverged");
    }
  }

  Options options_;
  const Workload& workload_;
  uint64_t query_;
  TruthFn counts_;
  FaultPlan plan_;
  int k_;

  Tracker oracle_;
  std::unique_ptr<CoordinatorCore> core_;
  std::vector<SiteEnd> ends_;
  std::vector<std::unique_ptr<SiteCore>> sites_;
  std::vector<FaultyLink> links_;

  uint64_t now_ = 0;
  uint64_t pump_start_ = 0;  ///< tick the current Pump began
  bool parked_ = false;
  bool granting_ = false;  ///< a kGrant is being staged (Send charges it)

  std::vector<std::vector<uint64_t>> keys_;  // each site's stream
  std::vector<uint64_t> site_count_;         // arrivals granted per site
  std::vector<std::deque<wire::Message>> expected_;  // oracle, unsent
  std::vector<uint64_t> broadcasts_;                 // oracle n̄, by round
  std::vector<std::vector<wire::Message>> up_journal_;  // by seq - 1
  std::vector<OrderEntry> order_;
  std::vector<SiteCore::Snapshot> snapshots_;
  std::vector<char> snapshot_pending_;

  RobustReport report_;
};

}  // namespace

RobustReport RobustReplayCount(const count::RandomizedCountOptions& options,
                               const Workload& workload,
                               const FaultPlan& plan) {
  return Engine<count::RandomizedCountTracker, count::RandomizedCountOptions>(
             options, workload, 0, plan,
             [](const Arrival&, uint64_t) { return true; })
      .Run();
}

RobustReport RobustReplayFrequency(
    const frequency::RandomizedFrequencyOptions& options,
    const Workload& workload, uint64_t query_item, const FaultPlan& plan) {
  return Engine<frequency::RandomizedFrequencyTracker,
                frequency::RandomizedFrequencyOptions>(
             options, workload, query_item, plan,
             [](const Arrival& a, uint64_t item) { return a.key == item; })
      .Run();
}

RobustReport RobustReplayRank(const rank::RandomizedRankOptions& options,
                              const Workload& workload, uint64_t query_value,
                              const FaultPlan& plan) {
  return Engine<rank::RandomizedRankTracker, rank::RandomizedRankOptions>(
             options, workload, query_value, plan,
             [](const Arrival& a, uint64_t value) { return a.key < value; })
      .Run();
}

}  // namespace sim
}  // namespace disttrack
