// Tests for disttrack/rank: the deterministic dyadic tracker [29] and the
// randomized tracker of §4 (Theorem 4.1 unbiasedness, coverage, space, and
// the √k communication advantage).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/rank/deterministic_rank.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/stream/workload.h"
#include "test_util.h"

namespace disttrack {
namespace rank {
namespace {

using stream::ExactRank;
using stream::MakeRankWorkload;
using stream::SiteSchedule;
using stream::ValueOrder;

TEST(DeterministicRankTest, OptionsValidate) {
  DeterministicRankOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.universe_bits = 0;
  EXPECT_FALSE(o.Validate().ok());
  o.universe_bits = 60;
  EXPECT_FALSE(o.Validate().ok());
  o = DeterministicRankOptions{};
  o.epsilon = 0;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(DeterministicRankTest, RanksWithinEpsilonUniform) {
  DeterministicRankOptions o;
  o.num_sites = 4;
  o.epsilon = 0.1;
  o.universe_bits = 10;
  DeterministicRankTracker tracker(o);
  auto w = MakeRankWorkload(4, 30000, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 10, 3);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  double bound = o.epsilon * static_cast<double>(w.size());
  for (uint64_t q = 0; q <= 8; ++q) {
    uint64_t x = q * 128;
    double err = std::fabs(tracker.EstimateRank(x) -
                           static_cast<double>(ExactRank(w, x)));
    ASSERT_LE(err, bound + 1e-9) << "x " << x;
  }
}

TEST(DeterministicRankTest, RanksWithinEpsilonSortedAndClustered) {
  for (auto order : {ValueOrder::kAscending, ValueOrder::kDescending,
                     ValueOrder::kClustered}) {
    DeterministicRankOptions o;
    o.num_sites = 4;
    o.epsilon = 0.1;
    o.universe_bits = 10;
    DeterministicRankTracker tracker(o);
    auto w = MakeRankWorkload(4, 20000, SiteSchedule::kRoundRobin, order, 10,
                              5);
    for (const auto& a : w) tracker.Arrive(a.site, a.key);
    double bound = o.epsilon * static_cast<double>(w.size());
    for (uint64_t x : {256ull, 512ull, 768ull}) {
      double err = std::fabs(tracker.EstimateRank(x) -
                             static_cast<double>(ExactRank(w, x)));
      ASSERT_LE(err, bound + 1e-9)
          << "order " << static_cast<int>(order) << " x " << x;
    }
  }
}

TEST(DeterministicRankTest, GuaranteeHoldsMidStream) {
  DeterministicRankOptions o;
  o.num_sites = 4;
  o.epsilon = 0.15;
  o.universe_bits = 8;
  DeterministicRankTracker tracker(o);
  auto w = MakeRankWorkload(4, 20000, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 8, 7);
  uint64_t n = 0;
  std::vector<uint64_t> seen;
  for (const auto& a : w) {
    tracker.Arrive(a.site, a.key);
    seen.push_back(a.key);
    ++n;
    if (n % 4999 == 0) {
      uint64_t x = 128;
      uint64_t truth = 0;
      for (uint64_t v : seen) {
        if (v < x) ++truth;
      }
      double err =
          std::fabs(tracker.EstimateRank(x) - static_cast<double>(truth));
      ASSERT_LE(err, o.epsilon * static_cast<double>(n) + 1e-9)
          << "at n " << n;
    }
  }
}

TEST(RandomizedRankTest, OptionsValidate) {
  RandomizedRankOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.epsilon = 1.0;
  EXPECT_FALSE(o.Validate().ok());
  o = RandomizedRankOptions{};
  o.confidence_factor = 0.1;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(RandomizedRankTest, ExactWhilePIsOne) {
  RandomizedRankOptions o;
  o.num_sites = 16;
  o.epsilon = 0.1;
  o.confidence_factor = 8;
  RandomizedRankTracker tracker(o);
  // p stays 1 while εn̄ <= c√k, i.e. n̄ <= 320.
  for (uint64_t i = 0; i < 300; ++i) {
    tracker.Arrive(static_cast<int>(i % 16), i);
    ASSERT_DOUBLE_EQ(tracker.p(), 1.0);
  }
  EXPECT_DOUBLE_EQ(tracker.EstimateRank(150), 150.0);
  EXPECT_DOUBLE_EQ(tracker.EstimateRank(1000), 300.0);
}

TEST(RandomizedRankTest, UnbiasedAtFixedTime) {
  const uint64_t kN = 30000;
  auto w = MakeRankWorkload(8, kN, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 16, 11);
  const uint64_t x = 1 << 15;
  double truth = static_cast<double>(ExactRank(w, x));
  auto errors = testing_util::CollectErrors(250, [&](uint64_t seed) {
    RandomizedRankOptions o;
    o.num_sites = 8;
    o.epsilon = 0.05;
    o.seed = seed;
    RandomizedRankTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site, a.key);
    return tracker.EstimateRank(x) - truth;
  });
  // std <= eps*n/c-ish ~ 190; mean of 250 trials ~ 12.
  EXPECT_NEAR(testing_util::MeanOf(errors), 0.0, 50.0);
}

TEST(RandomizedRankTest, CoverageAtLeastNinety) {
  const uint64_t kN = 30000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(8, kN, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 16, 13);
  for (uint64_t x : {1ull << 14, 1ull << 15, 3ull << 14}) {
    double truth = static_cast<double>(ExactRank(w, x));
    auto errors = testing_util::CollectErrors(200, [&](uint64_t seed) {
      RandomizedRankOptions o;
      o.num_sites = 8;
      o.epsilon = eps;
      o.seed = seed;
      RandomizedRankTracker tracker(o);
      for (const auto& a : w) tracker.Arrive(a.site, a.key);
      return tracker.EstimateRank(x) - truth;
    });
    EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9)
        << "x " << x;
  }
}

TEST(RandomizedRankTest, CoverageUnderSortedAdversary) {
  // Sorted arrival order stresses the block/tree structure of algorithm C.
  const uint64_t kN = 25000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(8, kN, SiteSchedule::kRoundRobin,
                            ValueOrder::kAscending, 16, 17);
  const uint64_t x = 1 << 15;
  double truth = static_cast<double>(ExactRank(w, x));
  auto errors = testing_util::CollectErrors(150, [&](uint64_t seed) {
    RandomizedRankOptions o;
    o.num_sites = 8;
    o.epsilon = eps;
    o.seed = seed;
    RandomizedRankTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site, a.key);
    return tracker.EstimateRank(x) - truth;
  });
  EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9);
}

TEST(RandomizedRankTest, CoverageUnderSingleSiteSkew) {
  const uint64_t kN = 25000;
  const double eps = 0.05;
  auto w = MakeRankWorkload(16, kN, SiteSchedule::kSingleSite,
                            ValueOrder::kUniformRandom, 16, 19);
  const uint64_t x = 1 << 15;
  double truth = static_cast<double>(ExactRank(w, x));
  auto errors = testing_util::CollectErrors(150, [&](uint64_t seed) {
    RandomizedRankOptions o;
    o.num_sites = 16;
    o.epsilon = eps;
    o.seed = seed;
    RandomizedRankTracker tracker(o);
    for (const auto& a : w) tracker.Arrive(a.site, a.key);
    return tracker.EstimateRank(x) - truth;
  });
  EXPECT_GE(CoverageWithin(errors, eps * static_cast<double>(kN)), 0.9);
}

TEST(RandomizedRankTest, EstimateIsMonotoneInQuery) {
  RandomizedRankOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  o.seed = 23;
  RandomizedRankTracker tracker(o);
  auto w = MakeRankWorkload(8, 40000, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 16, 23);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  double prev = -1;
  for (uint64_t x = 0; x <= (1 << 16); x += 1 << 12) {
    double r = tracker.EstimateRank(x);
    ASSERT_GE(r, prev);
    prev = r;
  }
}

TEST(RandomizedRankTest, SpaceStaysSublinear) {
  RandomizedRankOptions o;
  o.num_sites = 16;
  o.epsilon = 0.01;
  o.seed = 29;
  RandomizedRankTracker tracker(o);
  auto w = MakeRankWorkload(16, 1 << 18, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 20, 29);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  // Theorem 4.1's per-site space is O(c/(ε√k) · polylog); with c = 8,
  // 1/(ε√k) = 25 and polylog ~ 25 the budget is a few thousand words —
  // grant that, and demand clear sublinearity in the per-site stream.
  uint64_t per_site_stream = (1 << 18) / 16;
  EXPECT_LT(tracker.space().MaxPeak(), per_site_stream / 2);
  EXPECT_LT(static_cast<double>(tracker.space().MaxPeak()),
            8.0 * 25.0 * 32.0);
}

TEST(RandomizedRankTest, TreeParametersTrackRounds) {
  RandomizedRankOptions o;
  o.num_sites = 16;
  o.epsilon = 0.01;
  o.seed = 31;
  RandomizedRankTracker tracker(o);
  for (uint64_t i = 0; i < 200000; ++i) {
    tracker.Arrive(static_cast<int>(i % 16), i % 1024);
  }
  EXPECT_GT(tracker.rounds(), 10u);
  EXPECT_GT(tracker.height(), 0);
  EXPECT_GT(tracker.block_size(), 1u);
  EXPECT_LT(tracker.p(), 1.0);
}

TEST(RandomizedRankTest, CommunicationBeatsDeterministicAtLargeK) {
  const int k = 32;
  const double eps = 0.05;
  auto w = MakeRankWorkload(k, 1 << 17, SiteSchedule::kRoundRobin,
                            ValueOrder::kUniformRandom, 10, 37);

  DeterministicRankOptions det;
  det.num_sites = k;
  det.epsilon = eps;
  det.universe_bits = 10;
  DeterministicRankTracker det_tracker(det);
  for (const auto& a : w) det_tracker.Arrive(a.site, a.key);

  RandomizedRankOptions rnd;
  rnd.num_sites = k;
  rnd.epsilon = eps;
  rnd.seed = 41;
  RandomizedRankTracker rnd_tracker(rnd);
  for (const auto& a : w) rnd_tracker.Arrive(a.site, a.key);

  EXPECT_GT(det_tracker.meter().TotalWords(),
            rnd_tracker.meter().TotalWords());
}

TEST(RandomizedRankTest, ContinuousCheckpointsMostlyCovered) {
  RandomizedRankOptions o;
  o.num_sites = 8;
  o.epsilon = 0.05;
  o.seed = 43;
  RandomizedRankTracker tracker(o);
  auto w = MakeRankWorkload(8, 150000, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 16, 47);
  auto checkpoints = sim::ReplayRank(&tracker, w, 1 << 15, 1.4);
  int misses = 0, counted = 0;
  for (const auto& c : checkpoints) {
    if (c.n < 2000) continue;
    ++counted;
    if (std::fabs(c.estimate - c.truth) > 0.05 * static_cast<double>(c.n)) {
      ++misses;
    }
  }
  ASSERT_GT(counted, 5);
  EXPECT_LE(misses, counted / 5);
}

// Fast-tier twin of the slow batch-equivalence suite for grouped rank
// delivery: chunks are fed span-at-a-time, with eventless runs buffered
// across chunk boundaries, and must leave every estimate, the
// communication totals and the rounds bit-identical to the same engine
// run in stream order (chunk length 1, set through the test peer) for the
// same ArriveBatch call sequence.
TEST(RandomizedRankTest, GroupedDeliveryBitIdenticalToStreamOrder) {
  const int k = 8;
  for (auto sched : {SiteSchedule::kUniformRandom, SiteSchedule::kBursty}) {
    auto w = MakeRankWorkload(k, 80000, sched, ValueOrder::kUniformRandom, 16,
                              71);
    RandomizedRankOptions o;
    o.num_sites = k;
    o.epsilon = 0.05;
    o.seed = 73;
    RandomizedRankTracker grouped(o), stream_order(o);
    testing_util::DeliveryPeer::SetChunk(&stream_order, 1);
    // Ragged calls, some spanning several internal chunks, so spans and
    // buffered runs straddle chunk and call boundaries.
    size_t pos = 0;
    for (size_t len = 7; pos < w.size(); len = len * 5 % 40009 + 1) {
      size_t n = std::min(len, w.size() - pos);
      grouped.ArriveBatch(w.data() + pos, n);
      stream_order.ArriveBatch(w.data() + pos, n);
      pos += n;
    }
    ASSERT_GT(stream_order.rounds(), 3u);
    for (uint64_t q : {100ull, 9000ull, 30000ull, 65000ull}) {
      double a = grouped.EstimateRank(q);
      double b = stream_order.EstimateRank(q);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "q " << q;
    }
    EXPECT_EQ(grouped.meter().TotalMessages(),
              stream_order.meter().TotalMessages());
    EXPECT_EQ(grouped.meter().TotalWords(),
              stream_order.meter().TotalWords());
    EXPECT_EQ(grouped.rounds(), stream_order.rounds());
  }
}

// Golden pin of the production output at both perfbench shapes (k=64,
// eps=0.01, Zipf(1.1) keys; k=32, eps=5e-4, uniform keys; both over 2^20,
// perfbench's site sequence, four 64Ki ArriveBatch calls, seed 3), plus a
// 24-batch run of the k=32 shape. The four-batch estimates were recorded
// before the merged-window ladder pulls and the radix run sort went in,
// the 24-batch ones before the scalar-only sort and merge; all of these
// are tier A, so every later change to the rank ingest path must
// reproduce them bit for bit (or say why not). The message and word
// counts were re-recorded when sites stopped shipping the nodes of
// skipped levels (RoundParams::skipped_levels), which left every
// estimate as it was.
TEST(RandomizedRankTest, GoldenOutputAtBenchmarkShapes) {
  struct Shape {
    int k;
    double eps;
    double zipf_alpha;
    size_t batches;
    uint64_t messages;
    uint64_t words;
    std::vector<std::pair<uint64_t, double>> estimates;
  };
  const Shape shapes[] = {
      {64, 0.01, 1.1, 4, 97262, 669592,
       {{0, 0},
        {1, 32279.199999999997},
        {2, 47452},
        {3, 57149.800000000003},
        {10, 86901.200000000012},
        {100, 138828.39999999999},
        {1000, 180777.80000000005},
        {4096, 202182.19999999998},
        {65536, 236272.60000000001},
        {524288, 256590},
        {1048575, 262268.59999999998}}},
      {32, 5e-4, 0.0, 4, 476275, 1213663,
       {{0, 0},
        {131072, 32775},
        {262144, 65406.973638087467},
        {393216, 98472.973638087467},
        {524288, 131157.97363808745},
        {655360, 163980.97363808745},
        {786432, 196606.96045713121},
        {917504, 229503.94727617493},
        {1048576, 262136.93409521866}}},
      // Over 24 batches the k = 32 windows outgrow their levels'
      // capacities, so the node-less flushes draw wire-cascade coins from
      // each level's seed: this shape pins the order of those seed draws,
      // which the 4-batch shape above (no coin drawn) cannot see.
      {32, 5e-4, 0.0, 24, 1021269, 5921089,
       {{0, 0},
        {131072, 196833.90773330611},
        {262144, 393146.85500948108},
        {393216, 590164.77592374338},
        {524288, 786588.61775226821},
        {655360, 983115.53866653051},
        {786432, 1179010.2750474054},
        {917504, 1376362.1036949737},
        {1048576, 1572818.0509711488}}},
  };
  const size_t kBatch = size_t{1} << 16;
  for (const Shape& shape : shapes) {
    const size_t n = kBatch * shape.batches;
    auto input = stream::MakeFrequencyWorkload(
        shape.k, n, SiteSchedule::kUniformRandom, uint64_t{1} << 20,
        shape.zipf_alpha, 3);
    auto sites = stream::MakeCountSites(shape.k, n,
                                        SiteSchedule::kUniformRandom, 11);
    for (size_t i = 0; i < n; ++i) input[i].site = sites[i];
    RandomizedRankOptions o;
    o.num_sites = shape.k;
    o.epsilon = shape.eps;
    o.seed = 3;
    RandomizedRankTracker tracker(o);
    for (size_t b = 0; b < shape.batches; ++b) {
      tracker.ArriveBatch(input.data() + b * kBatch, kBatch);
    }
    EXPECT_EQ(tracker.meter().TotalMessages(), shape.messages)
        << "k " << shape.k << " batches " << shape.batches;
    EXPECT_EQ(tracker.meter().TotalWords(), shape.words)
        << "k " << shape.k << " batches " << shape.batches;
    for (const auto& [probe, want] : shape.estimates) {
      EXPECT_EQ(tracker.EstimateRank(probe), want)
          << "k " << shape.k << " batches " << shape.batches << " probe "
          << probe;
    }
  }
}

// The golden k = 32 shape's input: k = 32 sites, perfbench's site
// sequence, uniform keys over 2^20, seed 3.
std::vector<sim::Arrival> TableBoundInput(size_t n) {
  const int k = 32;
  auto input = stream::MakeFrequencyWorkload(
      k, n, SiteSchedule::kUniformRandom, uint64_t{1} << 20, 0.0, 3);
  auto sites = stream::MakeCountSites(k, n, SiteSchedule::kUniformRandom, 11);
  for (size_t i = 0; i < n; ++i) input[i].site = sites[i];
  return input;
}

RandomizedRankOptions TableBoundOptions() {
  RandomizedRankOptions o;
  o.num_sites = 32;
  o.epsilon = 5e-4;
  o.seed = 3;
  return o;
}

// The run ladder's work at the golden k = 32 shape (24 x 64Ki uniform
// keys, seed 3, tree height 11), read from counters that touch no RNG
// and no meter. Skipped levels own no ladder cursor, so the ladder
// merges each leaf's runs and the windows of the levels that still ship:
// about 3.7 values per arrival in pair merges plus 0.4 in merged windows
// when this test was written (10.75 while every level held a cursor).
// Pair merges write into the older run's own buffer, so only appends
// take pooled buffers. A change that raises the merge volume or brings
// back a merge buffer per pair merge fails here, not only in the wall
// clock.
TEST(RandomizedRankTest, LadderWorkAtTheTableBoundShape) {
  const size_t kBatch = size_t{1} << 16;
  const size_t batches = 24;
  const size_t n = kBatch * batches;
  auto input = TableBoundInput(n);
  RandomizedRankTracker tracker(TableBoundOptions());
  for (size_t b = 0; b < batches; ++b) {
    tracker.ArriveBatch(input.data() + b * kBatch, kBatch);
  }
  const summaries::LadderWork work = tracker.ladder_work();
  ASSERT_EQ(tracker.height(), 11);
  EXPECT_GT(work.pair_merges, 0u);
  EXPECT_GT(work.window_values, 0u);
  EXPECT_LE(work.merged_values(), 5 * static_cast<uint64_t>(n));
  EXPECT_LE(work.pool_takes, work.runs_appended);
}

// Level `l`'s count, zero where no node of the level was counted.
NodeCount CountAt(const NodeCounts& counts, size_t l) {
  return l < counts.size() ? counts[l] : NodeCount{};
}

// No node of a skipped level ships: per round, the node counts of every
// level in that round's skipped_levels grow only in `skipped`, and those
// of every other level only in `shipped`. Fed one arrival at a time: a
// broadcast opens the next round before its arrival's tree step, so what
// that arrival ships belongs to the new round. At the k = 32 shape the
// masks grow from level 1 alone (round 8) to every level (rounds 18 and
// 19); round 20's top level ships again.
TEST(RandomizedRankTest, SkippedLevelsShipNoNode) {
  const size_t n = size_t{1} << 20;
  auto input = TableBoundInput(n);
  RandomizedRankTracker tracker(TableBoundOptions());
  NodeCounts before = tracker.node_counts();
  uint64_t skipped_levels = tracker.site(0).round().skipped_levels;
  uint64_t skipped_nodes = 0, shipped_above = 0;
  auto close_round = [&](const NodeCounts& now) {
    for (size_t l = 0; l < now.size(); ++l) {
      const uint64_t shipped = now[l].shipped - CountAt(before, l).shipped;
      const uint64_t skipped = now[l].skipped - CountAt(before, l).skipped;
      if (((skipped_levels >> l) & 1) != 0) {
        EXPECT_EQ(shipped, 0u) << "round " << tracker.rounds() << " level "
                               << l;
        skipped_nodes += skipped;
      } else {
        EXPECT_EQ(skipped, 0u) << "round " << tracker.rounds() << " level "
                               << l;
        if (l > 0) shipped_above += shipped;
      }
    }
    before = now;
    skipped_levels = tracker.site(0).round().skipped_levels;
  };
  uint64_t round = tracker.rounds();
  for (const sim::Arrival& a : input) {
    const NodeCounts prior = tracker.site(a.site).node_counts();
    tracker.Arrive(a.site, a.key);
    if (tracker.rounds() != round) {
      round = tracker.rounds();
      // Everything the arrival shipped or skipped belongs to the new round.
      NodeCounts closing = tracker.node_counts();
      const NodeCounts& site = tracker.site(a.site).node_counts();
      for (size_t l = 0; l < site.size(); ++l) {
        closing[l].shipped -= site[l].shipped - CountAt(prior, l).shipped;
        closing[l].skipped -= site[l].skipped - CountAt(prior, l).skipped;
      }
      close_round(closing);
    }
  }
  close_round(tracker.node_counts());
  EXPECT_GT(skipped_nodes, 0u);
  EXPECT_GT(shipped_above, 0u);
}

// The skip rule reads only the round's geometry, so the batched feed and
// the exact-feed oracle (use_batch_compaction = false) complete, skip
// and ship the same nodes of the same trees.
TEST(RandomizedRankTest, BothFeedsSkipTheSameNodes) {
  const size_t n = size_t{1} << 17;
  auto input = TableBoundInput(n);
  RandomizedRankOptions exact_options = TableBoundOptions();
  exact_options.use_batch_compaction = false;
  RandomizedRankTracker batched(TableBoundOptions()), exact(exact_options);
  for (size_t pos = 0; pos < n; pos += 4096) {
    batched.ArriveBatch(input.data() + pos, 4096);
    exact.ArriveBatch(input.data() + pos, 4096);
  }
  const NodeCounts a = batched.node_counts();
  const NodeCounts b = exact.node_counts();
  ASSERT_EQ(a.size(), b.size());
  uint64_t skipped = 0;
  for (size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(a[l].skipped, b[l].skipped) << "level " << l;
    EXPECT_EQ(a[l].shipped, b[l].shipped) << "level " << l;
    skipped += a[l].skipped;
  }
  EXPECT_GT(skipped, 0u);
}

TEST(RandomizedRankTest, DuplicateValuesHandled) {
  RandomizedRankOptions o;
  o.num_sites = 4;
  o.epsilon = 0.1;
  o.seed = 53;
  RandomizedRankTracker tracker(o);
  for (int i = 0; i < 30000; ++i) {
    tracker.Arrive(i % 4, static_cast<uint64_t>(i % 3));
  }
  // Values {0,1,2} each 10000 times: rank(2) = 20000 within eps*n.
  EXPECT_NEAR(tracker.EstimateRank(2), 20000.0, 0.1 * 30000);
  EXPECT_NEAR(tracker.EstimateRank(3), 30000.0, 0.1 * 30000);
}

}  // namespace
}  // namespace rank
}  // namespace disttrack
