// Tests for disttrack/sim: communication metering (including the broadcast
// = k messages rule of §1.1), space gauges, and the replay drivers.

#include <gtest/gtest.h>

#include <memory>

#include "disttrack/core/tracking.h"
#include "disttrack/sim/cluster.h"
#include "disttrack/sim/comm_meter.h"
#include "disttrack/sim/protocol.h"
#include "disttrack/sim/space_gauge.h"

namespace disttrack {
namespace sim {
namespace {

TEST(CommMeterTest, StartsEmpty) {
  CommMeter m(4);
  EXPECT_EQ(m.TotalMessages(), 0u);
  EXPECT_EQ(m.TotalWords(), 0u);
  EXPECT_EQ(m.broadcast_count(), 0u);
}

TEST(CommMeterTest, UploadCharging) {
  CommMeter m(4);
  m.RecordUpload(0, 3);
  m.RecordUpload(1, 1);
  EXPECT_EQ(m.uploads().messages, 2u);
  EXPECT_EQ(m.uploads().words, 4u);
  EXPECT_EQ(m.TotalMessages(), 2u);
  EXPECT_EQ(m.SiteUploadMessages(0), 1u);
  EXPECT_EQ(m.SiteUploadMessages(1), 1u);
  EXPECT_EQ(m.SiteUploadMessages(2), 0u);
}

TEST(CommMeterTest, ZeroWordMessagesChargeOneWord) {
  CommMeter m(2);
  m.RecordUpload(0, 0);
  m.RecordDownload(1, 0);
  EXPECT_EQ(m.uploads().words, 1u);
  EXPECT_EQ(m.downloads().words, 1u);
}

TEST(CommMeterTest, BroadcastCostsKMessages) {
  CommMeter m(8);
  m.RecordBroadcast(1);
  EXPECT_EQ(m.downloads().messages, 8u);
  EXPECT_EQ(m.downloads().words, 8u);
  EXPECT_EQ(m.TotalMessages(), 8u);
  EXPECT_EQ(m.broadcast_count(), 1u);
  m.RecordBroadcast(2);
  EXPECT_EQ(m.downloads().words, 8u + 16u);
}

TEST(CommMeterTest, ResetClearsEverything) {
  CommMeter m(3);
  m.RecordUpload(2, 5);
  m.RecordBroadcast(1);
  m.Reset();
  EXPECT_EQ(m.TotalMessages(), 0u);
  EXPECT_EQ(m.TotalWords(), 0u);
  EXPECT_EQ(m.SiteUploadMessages(2), 0u);
}

TEST(CommMeterTest, MergeFromSums) {
  CommMeter a(2), b(2);
  a.RecordUpload(0, 1);
  b.RecordUpload(0, 2);
  b.RecordBroadcast(1);
  a.MergeFrom(b);
  EXPECT_EQ(a.uploads().messages, 2u);
  EXPECT_EQ(a.uploads().words, 3u);
  EXPECT_EQ(a.downloads().messages, 2u);
  EXPECT_EQ(a.SiteUploadMessages(0), 2u);
}

TEST(CommMeterTest, OutOfRangeSiteIsTolerated) {
  CommMeter m(2);
  m.RecordUpload(5, 1);  // still counted globally
  EXPECT_EQ(m.uploads().messages, 1u);
  EXPECT_EQ(m.SiteUploadMessages(5), 0u);
}

TEST(SpaceGaugeTest, SetTracksPeak) {
  SpaceGauge g(3);
  g.Set(1, 10);
  g.Set(1, 4);
  EXPECT_EQ(g.Current(1), 4u);
  EXPECT_EQ(g.Peak(1), 10u);
  EXPECT_EQ(g.MaxPeak(), 10u);
}

TEST(SpaceGaugeTest, AddSub) {
  SpaceGauge g(2);
  g.Add(0, 7);
  g.Sub(0, 3);
  EXPECT_EQ(g.Current(0), 4u);
  g.Sub(0, 100);  // clamps at zero
  EXPECT_EQ(g.Current(0), 0u);
  EXPECT_EQ(g.Peak(0), 7u);
}

TEST(SpaceGaugeTest, MeanPeak) {
  SpaceGauge g(2);
  g.Set(0, 10);
  g.Set(1, 20);
  EXPECT_DOUBLE_EQ(g.MeanPeak(), 15.0);
}

TEST(SpaceGaugeTest, ClearCurrentKeepsPeak) {
  SpaceGauge g(1);
  g.Set(0, 9);
  g.ClearCurrent();
  EXPECT_EQ(g.Current(0), 0u);
  EXPECT_EQ(g.Peak(0), 9u);
}

TEST(SpaceGaugeTest, MergeFromSums) {
  SpaceGauge a(2), b(2);
  a.Set(0, 5);
  b.Set(0, 7);
  a.MergeFrom(b);
  EXPECT_EQ(a.Current(0), 12u);
  EXPECT_EQ(a.Peak(0), 12u);
}

// A toy exact count tracker for replay-driver tests.
class ExactCountTracker : public CountTrackerInterface {
 public:
  explicit ExactCountTracker(int num_sites = 1)
      : meter_(num_sites), space_(num_sites) {}
  void Arrive(int /*site*/) override { ++n_; }
  double EstimateCount() const override { return static_cast<double>(n_); }
  uint64_t TrueCount() const override { return n_; }
  const CommMeter& meter() const override { return meter_; }
  const SpaceGauge& space() const override { return space_; }

 private:
  CommMeter meter_;
  SpaceGauge space_;
  uint64_t n_ = 0;
};

TEST(ReplayTest, CountCheckpointsAreGeometricAndEndAtN) {
  ExactCountTracker tracker;
  Workload w(1000, Arrival{0, 0});
  auto checkpoints = ReplayCount(&tracker, w, 2.0);
  ASSERT_FALSE(checkpoints.empty());
  EXPECT_EQ(checkpoints.back().n, 1000u);
  for (size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_GT(checkpoints[i].n, checkpoints[i - 1].n);
  }
  for (const auto& c : checkpoints) {
    EXPECT_DOUBLE_EQ(c.estimate, static_cast<double>(c.n));
    EXPECT_DOUBLE_EQ(c.truth, static_cast<double>(c.n));
  }
}

// Toy exact frequency and rank trackers.
class ExactFrequencyTracker : public FrequencyTrackerInterface {
 public:
  explicit ExactFrequencyTracker(int num_sites = 1)
      : meter_(num_sites), space_(num_sites) {}
  void Arrive(int /*site*/, uint64_t item) override {
    ++n_;
    ++freq_[item];
  }
  double EstimateFrequency(uint64_t item) const override {
    auto it = freq_.find(item);
    return it == freq_.end() ? 0.0 : static_cast<double>(it->second);
  }
  uint64_t TrueCount() const override { return n_; }
  const CommMeter& meter() const override { return meter_; }
  const SpaceGauge& space() const override { return space_; }

 private:
  CommMeter meter_;
  SpaceGauge space_;
  std::unordered_map<uint64_t, uint64_t> freq_;
  uint64_t n_ = 0;
};

TEST(ReplayTest, FrequencyTruthTracksQueryItem) {
  ExactFrequencyTracker tracker;
  Workload w;
  for (int i = 0; i < 100; ++i) w.push_back({0, static_cast<uint64_t>(i % 3)});
  auto checkpoints = ReplayFrequency(&tracker, w, 1, 2.0);
  ASSERT_FALSE(checkpoints.empty());
  const auto& last = checkpoints.back();
  EXPECT_EQ(last.n, 100u);
  EXPECT_DOUBLE_EQ(last.truth, 33.0);
  EXPECT_DOUBLE_EQ(last.estimate, 33.0);
}

class ExactRankTracker : public RankTrackerInterface {
 public:
  explicit ExactRankTracker(int num_sites = 1)
      : meter_(num_sites), space_(num_sites) {}
  void Arrive(int /*site*/, uint64_t value) override {
    ++n_;
    values_.push_back(value);
  }
  double EstimateRank(uint64_t value) const override {
    uint64_t below = 0;
    for (uint64_t v : values_) {
      if (v < value) ++below;
    }
    return static_cast<double>(below);
  }
  uint64_t TrueCount() const override { return n_; }
  const CommMeter& meter() const override { return meter_; }
  const SpaceGauge& space() const override { return space_; }

 private:
  CommMeter meter_;
  SpaceGauge space_;
  std::vector<uint64_t> values_;
  uint64_t n_ = 0;
};

TEST(ReplayTest, RankTruthMatchesExactTracker) {
  ExactRankTracker tracker;
  Workload w;
  for (uint64_t i = 0; i < 200; ++i) w.push_back({0, i % 10});
  auto checkpoints = ReplayRank(&tracker, w, 5, 1.5);
  for (const auto& c : checkpoints) {
    EXPECT_DOUBLE_EQ(c.estimate, c.truth);
  }
  EXPECT_DOUBLE_EQ(checkpoints.back().truth, 100.0);
}

TEST(ReplayDeathTest, RejectsCheckpointFactorAtMostOne) {
  // The old behavior silently substituted 1.5; a bad factor now aborts
  // with a diagnostic instead of masking the caller's bug.
  ExactCountTracker tracker;
  Workload w{{0, 0}, {0, 0}};
  EXPECT_DEATH(ReplayCount(&tracker, w, 1.0), "checkpoint_factor");
  EXPECT_DEATH(ReplayCount(&tracker, w, 0.5), "checkpoint_factor");
  ExactRankTracker rank_tracker;
  EXPECT_DEATH(ReplayRank(&rank_tracker, w, 1, -2.0), "checkpoint_factor");
}

TEST(ReplayTest, BatchedScheduleMatchesHistoricalPerArrivalSchedule) {
  // The pre-batching loop checkpointed at n = 1, 2, 3, 5, 8, 12, ... for
  // factor 1.5 (first n with n >= next, next = 1 then 1.5 * n). The
  // batched driver must reproduce that schedule exactly.
  ExactCountTracker tracker;
  Workload w(40);
  auto checkpoints = ReplayCount(&tracker, w, 1.5);
  std::vector<uint64_t> ns;
  for (const auto& c : checkpoints) ns.push_back(c.n);
  std::vector<uint64_t> expected{1, 2, 3, 5, 8, 12, 18, 27, 40};
  EXPECT_EQ(ns, expected);
}

TEST(ArriveBatchTest, DefaultImplementationDeliversEveryElementInOrder) {
  // A tracker that only overrides Arrive() must still see each batched
  // arrival exactly once via the interface's default ArriveBatch.
  ExactFrequencyTracker tracker(3);
  Workload w;
  for (uint64_t i = 0; i < 57; ++i) {
    w.push_back({static_cast<int>(i % 3), i % 5});
  }
  tracker.ArriveBatch(w.data(), w.size());
  EXPECT_EQ(tracker.TrueCount(), 57u);
  EXPECT_DOUBLE_EQ(tracker.EstimateFrequency(0), 12.0);
}

TEST(ArriveBatchTest, DefaultArriveSitesDeliversEveryElement) {
  ExactCountTracker tracker;
  SiteStream sites{0, 0, 0, 0, 0};
  tracker.ArriveSites(sites.data(), sites.size());
  EXPECT_EQ(tracker.TrueCount(), 5u);
  EXPECT_DOUBLE_EQ(tracker.EstimateCount(), 5.0);
}

// The randomized trackers' batch paths validate every site id before it
// indexes per-site state.
TEST(ArriveBatchDeathTest, TrackerBatchPathsRejectOutOfRangeSites) {
  core::TrackerOptions opt;
  opt.num_sites = 4;
  opt.epsilon = 0.05;
  opt.seed = 42;
  {
    std::unique_ptr<CountTrackerInterface> tracker;
    ASSERT_TRUE(
        core::MakeCountTracker(core::Algorithm::kRandomized, opt, &tracker)
            .ok());
    SiteStream sites{0, 4};
    EXPECT_DEATH(tracker->ArriveSites(sites.data(), sites.size()),
                 "out of range");
  }
  {
    std::unique_ptr<FrequencyTrackerInterface> tracker;
    ASSERT_TRUE(core::MakeFrequencyTracker(core::Algorithm::kRandomized, opt,
                                           &tracker)
                    .ok());
    Workload bad{{0, 1}, {-1, 2}};
    EXPECT_DEATH(tracker->ArriveBatch(bad.data(), bad.size()),
                 "out of range");
  }
  {
    std::unique_ptr<RankTrackerInterface> tracker;
    ASSERT_TRUE(
        core::MakeRankTracker(core::Algorithm::kRandomized, opt, &tracker)
            .ok());
    Workload bad{{7, 1}};
    EXPECT_DEATH(tracker->ArriveBatch(bad.data(), bad.size()),
                 "out of range");
  }
}

TEST(ReplayTest, SiteStreamReplayMatchesWorkloadReplay) {
  ExactCountTracker a(4), b(4);
  Workload w;
  SiteStream sites;
  for (uint64_t i = 0; i < 300; ++i) {
    w.push_back({static_cast<int>(i % 4), 0});
    sites.push_back(static_cast<uint16_t>(i % 4));
  }
  auto cw = ReplayCount(&a, w, 1.5);
  auto cs = ReplayCountSites(&b, sites, 1.5);
  ASSERT_EQ(cw.size(), cs.size());
  for (size_t i = 0; i < cw.size(); ++i) {
    EXPECT_EQ(cw[i].n, cs[i].n);
    EXPECT_DOUBLE_EQ(cw[i].estimate, cs[i].estimate);
  }
}

}  // namespace
}  // namespace sim
}  // namespace disttrack
