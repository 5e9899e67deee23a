// Tests for count::CountAggregate, the coordinator half of the §2.1 count
// tracker, and its two hosts: RandomizedCountTracker and sim::CountReplica
// must agree bit for bit on every delivery path and under any cross-site
// re-interleaving of the frames.

#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/count/count_aggregate.h"
#include "disttrack/count/randomized_count.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/replica.h"
#include "disttrack/sim/wire.h"
#include "disttrack/stream/workload.h"

namespace disttrack {
namespace count {
namespace {

using sim::wire::Message;
using sim::wire::MsgType;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct FrameLog : sim::wire::WireTap {
  void OnMessage(Message&& msg) override { frames.push_back(std::move(msg)); }
  size_t Count(MsgType type) const {
    size_t n = 0;
    for (const Message& msg : frames) n += msg.type == type ? 1 : 0;
    return n;
  }
  std::vector<Message> frames;
};

TEST(CountAggregateTest, SetServesReportsAndCorrections) {
  CountAggregate agg(3, /*naive=*/false);
  CountAggregate naive(3, /*naive=*/true);
  for (CountAggregate* a : {&agg, &naive}) {
    a->BeginRound(4);
    a->Set(0, 10);  // coin report
    a->Set(2, 7);   // coin report
    a->Set(0, 12);  // a later report supersedes
    a->Set(2, 0);   // a correction that walked the report to zero
  }
  EXPECT_EQ(agg.Estimate(), 12.0 + 1 * 3.0);
  EXPECT_EQ(naive.Estimate(), 12.0 + 3 * 3.0);
  // p only halves: a smaller 1/p leaves the round's as it was.
  agg.BeginRound(2);
  EXPECT_EQ(agg.inv_p(), 4u);
  agg.BeginRound(8);
  EXPECT_EQ(agg.Estimate(), 12.0 + 1 * 7.0);
}

struct Scenario {
  int k;
  double epsilon;
  bool naive;
  stream::SiteSchedule schedule;
};

constexpr Scenario kScenarios[] = {
    {1, 0.05, false, stream::SiteSchedule::kSingleSite},
    {7, 0.01, false, stream::SiteSchedule::kSkewedGeometric},
    {7, 0.01, true, stream::SiteSchedule::kBursty},
    {64, 0.002, false, stream::SiteSchedule::kUniformRandom},
};

enum class Feed { kArrive, kBatch, kSites };

// The tracker's frames feed a replica as they are emitted; after every
// ragged span of arrivals the two estimates must be the same bits.
TEST(CountAggregateTest, TappedTrackerMatchesReplicaOnEveryFeed) {
  constexpr uint64_t kArrivals = 300000;
  for (const Scenario& sc : kScenarios) {
    for (Feed feed : {Feed::kArrive, Feed::kBatch, Feed::kSites}) {
      SCOPED_TRACE(::testing::Message()
                   << "k=" << sc.k << " eps=" << sc.epsilon << " naive="
                   << sc.naive << " feed=" << static_cast<int>(feed));
      RandomizedCountOptions options;
      options.num_sites = sc.k;
      options.epsilon = sc.epsilon;
      options.naive_boundary_estimator = sc.naive;
      options.seed = 40 + static_cast<uint64_t>(sc.k);
      RandomizedCountTracker tracker(options);
      struct ReplicaTap : FrameLog {
        explicit ReplicaTap(const RandomizedCountOptions& o) : replica(o) {}
        void OnMessage(Message&& msg) override {
          replica.Apply(msg);
          FrameLog::OnMessage(std::move(msg));
        }
        sim::CountReplica replica;
      } tap(options);
      tracker.set_wire_tap(&tap);
      sim::Workload workload =
          stream::MakeCountWorkload(sc.k, kArrivals, sc.schedule, 7);
      sim::SiteStream sites =
          stream::MakeCountSites(sc.k, kArrivals, sc.schedule, 7);
      Rng rng(options.seed);
      size_t pos = 0;
      while (pos < workload.size()) {
        size_t len = std::min<size_t>(1 + rng.UniformU64(20000),
                                      workload.size() - pos);
        switch (feed) {
          case Feed::kArrive:
            for (size_t i = pos; i < pos + len; ++i) {
              tracker.Arrive(workload[i].site);
            }
            break;
          case Feed::kBatch:
            tracker.ArriveBatch(workload.data() + pos, len);
            break;
          case Feed::kSites:
            tracker.ArriveSites(sites.data() + pos, len);
            break;
        }
        pos += len;
        ASSERT_TRUE(
            SameBits(tracker.EstimateCount(), tap.replica.Estimate(0)))
            << "after " << pos << " arrivals: tracker "
            << tracker.EstimateCount() << " vs replica "
            << tap.replica.Estimate(0);
      }
      // Several p-halvings, with thinning corrections among them.
      EXPECT_LE(tracker.p(), 1.0 / 8);
      EXPECT_GT(tap.Count(MsgType::kCorrection), 0u);
      EXPECT_EQ(tap.replica.round(), tracker.rounds());
    }
  }
}

// Frames of different sites may reach the replica in any order as long as
// each site's stay in order; a report that triggers a broadcast stays in
// place (everything before it is applied first), because the replica
// derives the round from it.
TEST(CountAggregateTest, FrameInterleavingAcrossSitesIsInvisible) {
  for (int k : {7, 64}) {
    SCOPED_TRACE(k);
    RandomizedCountOptions options;
    options.num_sites = k;
    options.epsilon = 0.005;
    options.seed = 60 + static_cast<uint64_t>(k);
    RandomizedCountTracker tracker(options);
    FrameLog log;
    tracker.set_wire_tap(&log);
    sim::Workload workload = stream::MakeCountWorkload(
        k, 200000, stream::SiteSchedule::kSkewedGeometric, options.seed);
    tracker.ArriveBatch(workload.data(), workload.size());
    ASSERT_GT(log.Count(MsgType::kCorrection), 0u);

    Rng rng(options.seed);
    sim::CountReplica shuffled(options);
    CoarseMirror coarse;
    std::vector<std::deque<const Message*>> queues(static_cast<size_t>(k));
    auto drain = [&] {
      std::vector<size_t> busy;
      for (;;) {
        busy.clear();
        for (size_t s = 0; s < queues.size(); ++s) {
          if (!queues[s].empty()) busy.push_back(s);
        }
        if (busy.empty()) return;
        size_t s = busy[rng.UniformU64(busy.size())];
        shuffled.Apply(*queues[s].front());
        queues[s].pop_front();
      }
    };
    for (const Message& msg : log.frames) {
      if (msg.site < 0) continue;  // broadcasts: the replica derives them
      if (msg.type == MsgType::kCoarseReport && coarse.ApplyReport(msg.a)) {
        drain();
        shuffled.Apply(msg);
      } else {
        queues[static_cast<size_t>(msg.site)].push_back(&msg);
      }
    }
    drain();
    EXPECT_TRUE(SameBits(shuffled.Estimate(0), tracker.EstimateCount()))
        << shuffled.Estimate(0) << " vs " << tracker.EstimateCount();
  }
}

}  // namespace
}  // namespace count
}  // namespace disttrack
