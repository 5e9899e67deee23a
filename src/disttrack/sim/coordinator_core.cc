#include "disttrack/sim/coordinator_core.h"

#include <utility>

namespace disttrack {
namespace sim {

CoordinatorCore::CoordinatorCore(int num_sites, DownlinkSink* sink,
                                 Replica replica)
    : num_sites_(num_sites),
      sink_(sink),
      channels_(static_cast<size_t>(num_sites)),
      replica_(std::move(replica)) {}

const CoarseMirror& CoordinatorCore::coarse() const {
  return std::visit(
      [](const auto& r) -> const CoarseMirror& { return r.coarse(); },
      replica_);
}

double CoordinatorCore::Estimate(uint64_t query) const {
  return std::visit([query](const auto& r) { return r.Estimate(query); },
                    replica_);
}

uint64_t CoordinatorCore::duplicates() const {
  uint64_t total = 0;
  for (const Channel& ch : channels_) total += ch.up.duplicates();
  return total;
}

uint64_t CoordinatorCore::retransmissions() const {
  uint64_t total = 0;
  for (const Channel& ch : channels_) total += ch.down.retransmissions();
  return total;
}

// --- Uplink ---------------------------------------------------------------

bool CoordinatorCore::Receive(int site, uint64_t seq, wire::Message msg,
                              std::vector<wire::Message>* applied) {
  Channel& ch = Chan(site);
  uint64_t up_seq = ch.up.watermark() + 1;
  size_t first = applied->size();
  ch.up.Accept(seq, std::move(msg), applied);
  for (size_t i = first; i < applied->size(); ++i) {
    if (!Apply(site, (*applied)[i], up_seq++)) {
      applied->resize(i);
      return false;
    }
  }
  return true;
}

bool CoordinatorCore::Apply(int site, const wire::Message& msg,
                            uint64_t up_seq) {
  // The frequency and rank replicas refuse a frame no tracker produces:
  // one that would break an exactness bound, or a malformed rank summary.
  // Nothing else has seen it yet. The replica's coarse mirror is the
  // coordinator's: its round moves iff this report broadcasts.
  uint64_t round = coarse().round;
  if (auto* count = std::get_if<CountReplica>(&replica_)) {
    count->Apply(msg);
  } else if (auto* frequency = std::get_if<FrequencyReplica>(&replica_)) {
    if (!frequency->Apply(msg)) return false;
  } else if (!std::get<RankReplica>(replica_).Apply(msg)) {
    return false;
  }
  uint64_t charge = wire::PaperWordCharge(msg, num_sites_);
  if (charge > 0) {
    // A delivered data-plane frame is exactly one §1.1 upload; replays
    // of journaled frames never reach here (sequence dedup).
    ledger_.paper_messages += 1;
    ledger_.paper_words += charge;
  }
  if (msg.type == wire::MsgType::kCoarseReport) {
    Decide(site, coarse().round != round, up_seq);
  }
  return true;
}

void CoordinatorCore::Decide(int site, bool broadcasts, uint64_t up_seq) {
  ledger_.decisions += 1;
  if (!broadcasts) {
    wire::Message quiet;
    quiet.type = wire::MsgType::kNoBroadcast;
    quiet.site = site;
    quiet.a = up_seq;
    Stage(site, std::move(quiet));
    return;
  }
  const CoarseMirror& mirror = coarse();
  wire::Message broadcast;
  broadcast.type = wire::MsgType::kBroadcast;
  broadcast.site = -1;
  broadcast.epoch = mirror.round;
  broadcast.a = mirror.round;
  broadcast.b = mirror.n_bar;
  broadcast.paper_words = 1;
  ledger_.broadcasts += 1;
  ledger_.paper_messages += static_cast<uint64_t>(num_sites_);
  ledger_.paper_words += wire::PaperWordCharge(broadcast, num_sites_);
  for (int target = 0; target < num_sites_; ++target) {
    wire::Message copy = broadcast;
    copy.c = (target == site) ? up_seq : 0;
    Stage(target, std::move(copy));
    Chan(target).last_broadcast = Chan(target).journal.size();
  }
}

// --- Downlink -------------------------------------------------------------

void CoordinatorCore::Stage(int site, wire::Message msg) {
  Channel& ch = Chan(site);
  ch.journal.push_back(std::move(msg));
  if (ch.attached) Transmit(site, ch.journal.back(), false);
}

void CoordinatorCore::Transmit(int site, const wire::Message& msg,
                               bool resend) {
  std::vector<uint8_t> frame;
  Chan(site).down.Stage(msg, tick_, &frame);
  sink_->Send(site, frame, resend);
}

void CoordinatorCore::Attach(int site, uint64_t down_watermark) {
  Channel& ch = Chan(site);
  ch.attached = true;
  // Every journaled frame past the watermark, re-staged in order at its
  // original sequence number. This includes every decision a resumed
  // replay will block on: decisions follow the reports that trigger
  // them, so their seqs all exceed the snapshot's watermark.
  ch.down.Reset(down_watermark + 1);
  for (size_t j = down_watermark; j < ch.journal.size(); ++j) {
    Transmit(site, ch.journal[j], true);
  }
}

void CoordinatorCore::Detach(int site) {
  Channel& ch = Chan(site);
  ch.attached = false;
  ch.down.Reset(ch.down.next_seq());
  ch.up.Reset(ch.up.watermark());
}

}  // namespace sim
}  // namespace disttrack
