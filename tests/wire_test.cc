// Tests for the wire framing and the fault-injected transport layer:
// frame round-trips for every message type, exact EncodedSize, decoder
// rejection of corrupt / foreign / truncated frames, backoff schedule,
// reliable channel properties (dedup, in-order delivery, retransmission,
// crash resets), link fault determinism, and FaultPlan derivation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "disttrack/common/backoff.h"
#include "disttrack/sim/transport.h"
#include "disttrack/sim/wire.h"

namespace disttrack {
namespace sim {
namespace {

wire::Message SampleMessage(wire::MsgType type) {
  wire::Message msg;
  msg.type = type;
  msg.site = type == wire::MsgType::kBroadcast ? -1 : 3;
  msg.epoch = 7;
  msg.a = 0xDEADBEEFCAFEull;
  msg.b = 42;
  msg.c = 1ull << 60;
  msg.paper_words = 2;
  if (type == wire::MsgType::kRankSummary) {
    msg.values = {5, 9, 9, 1ull << 40};
    msg.segments = {{1, 2}, {4, 4}};
    msg.paper_words = 7;
  }
  return msg;
}

std::vector<wire::MsgType> AllTypes() {
  return {wire::MsgType::kCoarseReport, wire::MsgType::kCoinReport,
          wire::MsgType::kCorrection,   wire::MsgType::kBroadcast,
          wire::MsgType::kSplitNotice,  wire::MsgType::kCounterReport,
          wire::MsgType::kSampleForward, wire::MsgType::kRankSummary,
          wire::MsgType::kRankResidual, wire::MsgType::kAck,
          wire::MsgType::kHello,        wire::MsgType::kRankForward};
}

TEST(WireFrameTest, RoundTripsEveryMessageType) {
  for (wire::MsgType type : AllTypes()) {
    wire::Message msg = SampleMessage(type);
    std::vector<uint8_t> frame;
    wire::EncodeFrame(msg, 99, &frame);
    EXPECT_EQ(frame.size(), wire::EncodedSize(msg));

    wire::Message decoded;
    uint64_t seq = 0;
    ASSERT_TRUE(wire::DecodeFrame(frame.data(), frame.size(), &decoded, &seq))
        << "type " << static_cast<int>(type);
    EXPECT_EQ(seq, 99u);
    EXPECT_EQ(decoded.type, msg.type);
    EXPECT_EQ(decoded.site, msg.site);
    EXPECT_EQ(decoded.epoch, msg.epoch);
    EXPECT_EQ(decoded.a, msg.a);
    EXPECT_EQ(decoded.b, msg.b);
    EXPECT_EQ(decoded.c, msg.c);
    EXPECT_EQ(decoded.paper_words, msg.paper_words);
    EXPECT_EQ(decoded.values, msg.values);
    EXPECT_EQ(decoded.segments, msg.segments);
  }
}

TEST(WireFrameTest, EncodeAppendsWithoutClearing) {
  wire::Message a = SampleMessage(wire::MsgType::kCoinReport);
  wire::Message b = SampleMessage(wire::MsgType::kRankSummary);
  std::vector<uint8_t> buffer;
  wire::EncodeFrame(a, 1, &buffer);
  size_t first = buffer.size();
  wire::EncodeFrame(b, 2, &buffer);
  EXPECT_EQ(buffer.size(), wire::EncodedSize(a) + wire::EncodedSize(b));

  wire::Message decoded;
  uint64_t seq = 0;
  ASSERT_TRUE(wire::DecodeFrame(buffer.data(), first, &decoded, &seq));
  EXPECT_EQ(decoded.type, wire::MsgType::kCoinReport);
  ASSERT_TRUE(wire::DecodeFrame(buffer.data() + first, buffer.size() - first,
                                &decoded, &seq));
  EXPECT_EQ(decoded.type, wire::MsgType::kRankSummary);
  EXPECT_EQ(seq, 2u);
}

TEST(WireFrameTest, RejectsCorruption) {
  wire::Message msg = SampleMessage(wire::MsgType::kRankSummary);
  std::vector<uint8_t> frame;
  wire::EncodeFrame(msg, 5, &frame);

  wire::Message out;
  uint64_t seq = 0;

  // Truncation at every length.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(wire::DecodeFrame(frame.data(), cut, &out, &seq))
        << "cut " << cut;
  }

  // Any single flipped bit must be caught (header checks or CRC).
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x40;
    EXPECT_FALSE(wire::DecodeFrame(bad.data(), bad.size(), &out, &seq))
        << "flip at " << i;
  }
}

TEST(WireFrameTest, EveryTruncationOfEveryTypeIsRejectedWithoutOverrun) {
  // Fuzz-style sweep: for every message type, every strict prefix of a
  // valid frame must be rejected. Each prefix lives in its OWN exactly-
  // sized heap allocation, so any decoder read past the advertised
  // length is an ASan heap-buffer-overflow, not a silent success — the
  // full-frame RejectsCorruption sweep above cannot see those. The
  // decoder must also leave the outputs untouched on failure.
  for (wire::MsgType type : AllTypes()) {
    wire::Message msg = SampleMessage(type);
    std::vector<uint8_t> frame;
    wire::EncodeFrame(msg, 123, &frame);
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      std::unique_ptr<uint8_t[]> exact(new uint8_t[cut]);
      std::copy(frame.begin(), frame.begin() + cut, exact.get());
      wire::Message out = SampleMessage(wire::MsgType::kRankSummary);
      out.a = 0x5E17;
      uint64_t seq = 0x5E17;
      EXPECT_FALSE(wire::DecodeFrame(exact.get(), cut, &out, &seq))
          << "type " << static_cast<int>(type) << " cut " << cut;
      // Rejection without side effects: a partial decode must not leak
      // into the caller's message or sequence number.
      EXPECT_EQ(out.a, 0x5E17u) << "cut " << cut;
      EXPECT_EQ(seq, 0x5E17u) << "cut " << cut;
    }
  }
}

TEST(WireFrameTest, RejectsUnknownVersion) {
  wire::Message msg = SampleMessage(wire::MsgType::kHello);
  std::vector<uint8_t> frame;
  wire::EncodeFrame(msg, 1, &frame);
  // Version lives right after the 4-byte magic (little-endian u16). A
  // decoder must reject unknown versions even if the CRC were fixed up,
  // but flipping it alone must already fail.
  frame[4] ^= 0xFF;
  wire::Message out;
  uint64_t seq = 0;
  EXPECT_FALSE(wire::DecodeFrame(frame.data(), frame.size(), &out, &seq));
}

TEST(WireFrameTest, PaperWordChargeRules) {
  const int k = 8;
  wire::Message msg = SampleMessage(wire::MsgType::kCoinReport);
  msg.paper_words = 3;
  EXPECT_EQ(wire::PaperWordCharge(msg, k), 3u);

  msg.paper_words = 0;  // the max(1, words) floor
  EXPECT_EQ(wire::PaperWordCharge(msg, k), 1u);

  wire::Message bcast = SampleMessage(wire::MsgType::kBroadcast);
  bcast.paper_words = 1;
  EXPECT_EQ(wire::PaperWordCharge(bcast, k), static_cast<uint64_t>(k));

  // A forwarded rank arrival is one word: its value.
  wire::Message forward = SampleMessage(wire::MsgType::kRankForward);
  forward.paper_words = 1;
  EXPECT_EQ(wire::PaperWordCharge(forward, k), 1u);

  wire::Message ack = SampleMessage(wire::MsgType::kAck);
  EXPECT_EQ(wire::PaperWordCharge(ack, k), 0u);
  wire::Message hello = SampleMessage(wire::MsgType::kHello);
  EXPECT_EQ(wire::PaperWordCharge(hello, k), 0u);
}

TEST(BackoffTest, CappedExponentialSchedule) {
  ExponentialBackoff b(4, 64);
  EXPECT_EQ(b.DelayFor(0), 4u);
  EXPECT_EQ(b.DelayFor(1), 8u);
  EXPECT_EQ(b.DelayFor(2), 16u);
  EXPECT_EQ(b.DelayFor(3), 32u);
  EXPECT_EQ(b.DelayFor(4), 64u);
  EXPECT_EQ(b.DelayFor(5), 64u);     // capped
  EXPECT_EQ(b.DelayFor(200), 64u);   // shift-overflow safe
}

TEST(ReliableChannelTest, InOrderDeliveryAndDedup) {
  ReliableSender sender{ExponentialBackoff(4, 64)};
  ReliableReceiver receiver;

  std::vector<std::vector<uint8_t>> frames(3);
  std::vector<wire::Message> msgs(3);
  for (int i = 0; i < 3; ++i) {
    msgs[i] = SampleMessage(wire::MsgType::kCoinReport);
    msgs[i].a = static_cast<uint64_t>(i);
    EXPECT_EQ(sender.Stage(msgs[i], 0, &frames[i]),
              static_cast<uint64_t>(i + 1));
  }

  // Deliver out of order: 3, 1, 2, then 1 again (duplicate).
  std::vector<wire::Message> delivered;
  wire::Message m;
  uint64_t seq;
  ASSERT_TRUE(wire::DecodeFrame(frames[2].data(), frames[2].size(), &m, &seq));
  EXPECT_TRUE(receiver.Accept(seq, m, &delivered));
  EXPECT_TRUE(delivered.empty());  // waiting for 1 and 2
  EXPECT_EQ(receiver.watermark(), 0u);

  ASSERT_TRUE(wire::DecodeFrame(frames[0].data(), frames[0].size(), &m, &seq));
  EXPECT_TRUE(receiver.Accept(seq, m, &delivered));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].a, 0u);

  ASSERT_TRUE(wire::DecodeFrame(frames[1].data(), frames[1].size(), &m, &seq));
  EXPECT_TRUE(receiver.Accept(seq, m, &delivered));
  ASSERT_EQ(delivered.size(), 3u);  // 2 drained 3 from the reorder buffer
  EXPECT_EQ(delivered[1].a, 1u);
  EXPECT_EQ(delivered[2].a, 2u);
  EXPECT_EQ(receiver.watermark(), 3u);

  ASSERT_TRUE(wire::DecodeFrame(frames[0].data(), frames[0].size(), &m, &seq));
  EXPECT_FALSE(receiver.Accept(seq, m, &delivered));  // duplicate
  EXPECT_EQ(delivered.size(), 3u);
  EXPECT_EQ(receiver.duplicates(), 1u);

  sender.Ack(receiver.watermark());
  EXPECT_TRUE(sender.idle());
}

TEST(ReliableChannelTest, RetransmitsOnBackoffUntilAcked) {
  ReliableSender sender{ExponentialBackoff(4, 64)};
  std::vector<uint8_t> frame;
  sender.Stage(SampleMessage(wire::MsgType::kCoarseReport), 10, &frame);

  std::vector<std::vector<uint8_t>> due;
  EXPECT_EQ(sender.DueRetransmits(13, &due), 0u);  // not due until 10 + 4
  EXPECT_TRUE(due.empty());
  uint64_t bytes = sender.DueRetransmits(14, &due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(bytes, due[0].size());
  EXPECT_EQ(due[0], frame);  // bit-identical retransmission
  EXPECT_EQ(sender.retransmissions(), 1u);

  // Backoff doubled: next at 14 + 8.
  due.clear();
  EXPECT_EQ(sender.DueRetransmits(21, &due), 0u);
  EXPECT_EQ(sender.DueRetransmits(22, &due), frame.size());
  EXPECT_EQ(sender.retransmissions(), 2u);

  sender.Ack(1);
  due.clear();
  EXPECT_EQ(sender.DueRetransmits(1000, &due), 0u);
  EXPECT_TRUE(sender.idle());
}

TEST(ReliableChannelTest, CrashResetsResumeTheSequenceSpace) {
  ReliableSender sender{ExponentialBackoff(4, 64)};
  std::vector<uint8_t> frame;
  for (int i = 0; i < 5; ++i) {
    sender.Stage(SampleMessage(wire::MsgType::kCoinReport), 0, &frame);
  }
  sender.Ack(3);
  // Crash: rewind to the snapshot's next_seq. The unacked tail is
  // forgotten — recovery re-stages it with the original numbers.
  sender.Reset(4);
  EXPECT_TRUE(sender.idle());
  frame.clear();
  EXPECT_EQ(sender.Stage(SampleMessage(wire::MsgType::kCoinReport), 0, &frame),
            4u);

  ReliableReceiver receiver;
  std::vector<wire::Message> delivered;
  receiver.Accept(1, SampleMessage(wire::MsgType::kBroadcast), &delivered);
  receiver.Accept(2, SampleMessage(wire::MsgType::kBroadcast), &delivered);
  EXPECT_EQ(receiver.watermark(), 2u);
  receiver.Reset(0);  // crashed site lost everything since watermark 0
  EXPECT_EQ(receiver.watermark(), 0u);
  delivered.clear();
  EXPECT_TRUE(receiver.Accept(1, SampleMessage(wire::MsgType::kBroadcast),
                              &delivered));
  EXPECT_EQ(delivered.size(), 1u);  // re-delivery is fresh after the reset
}

TEST(FaultPlanTest, FromSeedIsDeterministic) {
  FaultPlan a = FaultPlan::FromSeed(1234, 5000, 8);
  FaultPlan b = FaultPlan::FromSeed(1234, 5000, 8);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.duplicate_rate, b.duplicate_rate);
  EXPECT_EQ(a.reorder_rate, b.reorder_rate);
  EXPECT_EQ(a.max_delay_ticks, b.max_delay_ticks);
  EXPECT_EQ(a.snapshot_every, b.snapshot_every);
  ASSERT_EQ(a.site_crashes.size(), b.site_crashes.size());
  for (size_t i = 0; i < a.site_crashes.size(); ++i) {
    EXPECT_EQ(a.site_crashes[i].global_arrival,
              b.site_crashes[i].global_arrival);
    EXPECT_EQ(a.site_crashes[i].site, b.site_crashes[i].site);
  }
  EXPECT_EQ(a.coordinator_restarts, b.coordinator_restarts);

  EXPECT_TRUE(a.HasLinkFaults());
  EXPECT_GE(a.site_crashes.size(), 1u);  // every storm crashes a site
  for (const auto& crash : a.site_crashes) {
    EXPECT_GE(crash.site, 0);
    EXPECT_LT(crash.site, 8);
    EXPECT_GE(crash.global_arrival, 5000u / 4);
    EXPECT_LT(crash.global_arrival, 3u * 5000u / 4);
  }

  FaultPlan c = FaultPlan::FromSeed(1235, 5000, 8);
  EXPECT_NE(a.drop_rate, c.drop_rate);  // different seed, different storm
}

TEST(FaultyLinkTest, DeterministicAndByteExact) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.3;
  plan.duplicate_rate = 0.2;
  plan.reorder_rate = 0.3;
  plan.max_delay_ticks = 3;

  auto run = [&plan](uint64_t link_id) {
    FaultyLink link(&plan, link_id);
    std::vector<std::vector<size_t>> deliveries;
    uint64_t dup_bytes = 0;
    uint64_t offered_check = 0;
    for (int i = 0; i < 200; ++i) {
      std::vector<uint8_t> frame(static_cast<size_t>(16 + (i % 7)),
                                 static_cast<uint8_t>(i));
      offered_check += frame.size();
      dup_bytes += link.Send(std::move(frame), static_cast<uint64_t>(i));
    }
    std::vector<std::vector<uint8_t>> out;
    uint64_t now = 200;
    while (!link.idle()) {
      out.clear();
      if (link.Deliver(++now, &out)) {
        std::vector<size_t> sizes;
        for (const auto& f : out) sizes.push_back(f.size());
        deliveries.push_back(std::move(sizes));
      }
    }
    // Every byte offered is counted: originals (delivered or dropped)
    // plus fault-layer duplicates.
    EXPECT_EQ(link.bytes_offered(), offered_check + dup_bytes);
    return std::make_pair(deliveries, dup_bytes);
  };

  auto first = run(7);
  auto second = run(7);
  EXPECT_EQ(first.first, second.first);  // same link id => same schedule
  EXPECT_EQ(first.second, second.second);

  auto other = run(8);
  EXPECT_NE(first.first, other.first);  // independent per-link streams
}

TEST(FaultyLinkTest, FaultFreeLinkDeliversEverythingNextTick) {
  FaultPlan plan;  // all rates zero
  FaultyLink link(&plan, 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(link.Send(std::vector<uint8_t>(8, 1), 5), 0u);
  }
  std::vector<std::vector<uint8_t>> out;
  EXPECT_FALSE(link.Deliver(5, &out));  // not before the next tick
  EXPECT_TRUE(link.Deliver(6, &out));
  EXPECT_EQ(out.size(), 10u);
  EXPECT_TRUE(link.idle());
  EXPECT_EQ(link.bytes_offered(), 80u);
}

}  // namespace
}  // namespace sim
}  // namespace disttrack
