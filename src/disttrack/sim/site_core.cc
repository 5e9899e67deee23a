#include "disttrack/sim/site_core.h"

namespace disttrack {
namespace sim {

SiteCore::SiteCore(int site, std::unique_ptr<SiteHalf> half, SiteLink* link)
    : site_(site), half_(std::move(half)), link_(link) {
  half_->set_wire_tap(this);
}

void SiteCore::Fail(const std::string& what) {
  if (failed_) return;
  failed_ = true;
  error_ = what;
}

uint64_t SiteCore::Stage(wire::Message msg) {
  if (!live()) return 0;
  msg.site = site_;
  msg.epoch = round_;
  std::vector<uint8_t> frame;
  uint64_t seq = up_.Stage(msg, tick_, &frame);
  link_->SendUp(frame);
  return seq;
}

void SiteCore::OnMessage(wire::Message&& msg) {
  bool report = msg.type == wire::MsgType::kCoarseReport;
  uint64_t seq = Stage(std::move(msg));
  if (!report || seq == 0) return;
  // The half is parked at its §1.1 send point. The decision may already
  // be queued (a restored site holds the re-sent suffix); otherwise the
  // link supplies frames until it arrives.
  parked_ = seq;
  Drain();
  while (parked_ != 0 && live()) {
    if (!link_->PumpDown()) Fail("downlink ended while parked on a report");
  }
  parked_ = 0;
}

void SiteCore::Receive(uint64_t seq, wire::Message msg) {
  if (msg.type == wire::MsgType::kAck) {
    up_.Ack(msg.a);
    return;
  }
  if (msg.type == wire::MsgType::kJoinAck) return;  // late duplicate
  // The receiver delivers in contiguous sequence order, so the i-th
  // delivered frame has seq watermark_before + 1 + i (a kRitualAck names
  // its broadcast's seq).
  uint64_t next = down_.watermark() + 1;
  std::vector<wire::Message> delivered;
  down_.Accept(seq, std::move(msg), &delivered);
  for (wire::Message& m : delivered) inbox_.emplace_back(next++, std::move(m));
  Drain();
}

void SiteCore::Drain() {
  while (!inbox_.empty() && live() &&
         (parked_ != 0 || (!running_ && grant_ == 0))) {
    std::pair<uint64_t, wire::Message> next = std::move(inbox_.front());
    inbox_.pop_front();
    Handle(next.first, std::move(next.second));
  }
}

void SiteCore::Handle(uint64_t seq, wire::Message msg) {
  switch (msg.type) {
    case wire::MsgType::kGrant:
      grant_ = msg.a;
      return;
    case wire::MsgType::kBroadcast: {
      round_ = msg.a;
      half_->ApplyRitual(msg.b);
      wire::Message ack;
      ack.type = wire::MsgType::kRitualAck;
      ack.a = seq;
      ack.b = position_;
      Stage(std::move(ack));
      if (parked_ != 0 && msg.c == parked_) parked_ = 0;
      return;
    }
    case wire::MsgType::kNoBroadcast:
      if (parked_ == 0 || msg.a != parked_) {
        Fail("unexpected kNoBroadcast for uplink seq " + std::to_string(msg.a));
      }
      parked_ = 0;
      return;
    case wire::MsgType::kShutdown:
      shutdown_ = true;
      return;
    default:
      Fail("unexpected downlink frame type " +
           std::to_string(static_cast<int>(msg.type)));
  }
}

bool SiteCore::SnapshotReady() const {
  return inbox_.empty() && parked_ == 0 && grant_ == 0 && !running_ &&
         half_->SnapshotReady();
}

SiteCore::Snapshot SiteCore::TakeSnapshot() const {
  Snapshot snapshot;
  half_->Serialize(&snapshot.blob);
  snapshot.site_arrivals = position_;
  snapshot.up_next_seq = up_.next_seq();
  snapshot.down_watermark = down_.watermark();
  return snapshot;
}

void SiteCore::Restore(const Snapshot& snapshot) {
  half_->Restore(snapshot.blob);
  up_.Reset(snapshot.up_next_seq);
  down_.Reset(snapshot.down_watermark);
  position_ = snapshot.site_arrivals;
}

}  // namespace sim
}  // namespace disttrack
