// Tests for disttrack/rank: the deterministic dyadic tracker [29] and the
// randomized tracker of §4 (Theorem 4.1 unbiasedness, coverage, space, and
// the √k communication advantage).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/rank/deterministic_rank.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/sim/wire.h"
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
  // Rounds from n̄ = 2^17 on build trees (the ones before forward and hold
  // no tree), so the stream runs to 2^20.
  auto w = MakeRankWorkload(16, 1 << 20, SiteSchedule::kUniformRandom,
                            ValueOrder::kUniformRandom, 20, 29);
  for (const auto& a : w) tracker.Arrive(a.site, a.key);
  // Theorem 4.1's per-site space is O(c/(ε√k) · polylog); with c = 8,
  // 1/(ε√k) = 25 and polylog ~ 25 the budget is a few thousand words —
  // grant that, and demand clear sublinearity in the per-site stream.
  uint64_t per_site_stream = (1 << 20) / 16;
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

// Perfbench's rank input at k sites: perfbench's site sequence and keys
// over 2^20, uniform (zipf_alpha = 0) or Zipf, seed 3.
std::vector<sim::Arrival> BenchInput(int k, size_t n, double zipf_alpha) {
  auto input = stream::MakeFrequencyWorkload(
      k, n, SiteSchedule::kUniformRandom, uint64_t{1} << 20, zipf_alpha, 3);
  auto sites = stream::MakeCountSites(k, n, SiteSchedule::kUniformRandom, 11);
  for (size_t i = 0; i < n; ++i) input[i].site = sites[i];
  return input;
}

RandomizedRankOptions BenchOptions(int k, double eps) {
  RandomizedRankOptions o;
  o.num_sites = k;
  o.epsilon = eps;
  o.seed = 3;
  return o;
}

// The shape whose tree compresses: perfbench's zipf workload (k = 64,
// eps = 0.01, Zipf(1.1) keys). Rounds 0-18 forward; from round 19 on
// (n̄ >= 2^18, b >= 81, tree height 6) the tree sends about half a word
// per arrival or less.
constexpr int kTreeK = 64;
constexpr double kTreeEps = 0.01;
constexpr double kTreeZipf = 1.1;

// Golden pin of the production output at both perfbench shapes (k=64,
// eps=0.01, Zipf(1.1) keys; k=32, eps=5e-4, uniform keys; perfbench's
// site sequence, four 64Ki ArriveBatch calls, seed 3), plus a 24-batch
// run of the k=64 shape. In the four-batch runs every round forwards, so
// their estimates are the exact ranks and their words are one per
// arrival plus the coarse channel. The 24-batch run reaches tree rounds
// 19 and 20, whose windows outgrow their levels' capacities, so the
// node-less flushes draw wire-cascade coins from each level's seed: it
// pins the order of those seed draws and every coin of the tree. All of
// these are tier A, so every later change to the rank ingest path must
// reproduce them bit for bit (or say why not).
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
      {64, 0.01, 1.1, 4, 264096, 264096,
       {{0, 0},
        {1, 32402},
        {2, 47514},
        {3, 57128},
        {10, 86985},
        {100, 138830},
        {1000, 180754},
        {4096, 202022},
        {65536, 236237},
        {524288, 256439},
        {1048575, 262144}}},
      {32, 5e-4, 0.0, 4, 263153, 263153,
       {{0, 0},
        {131072, 32775},
        {262144, 65403},
        {393216, 98475},
        {524288, 131162},
        {655360, 163987},
        {786432, 196615},
        {917504, 229512},
        {1048576, 262144}}},
      {64, 0.01, 1.1, 24, 539297, 927393,
       {{0, 0},
        {1, 194674.60000000001},
        {2, 286541},
        {3, 343997.59999999998},
        {10, 521741},
        {100, 831843.59999999998},
        {1000, 1084121.8},
        {4096, 1212002.8},
        {65536, 1416499.6000000001},
        {524288, 1537262.2000000002},
        {1048575, 1572818.4000000001}}},
  };
  const size_t kBatch = size_t{1} << 16;
  for (const Shape& shape : shapes) {
    const size_t n = kBatch * shape.batches;
    auto input = BenchInput(shape.k, n, shape.zipf_alpha);
    RandomizedRankTracker tracker(BenchOptions(shape.k, shape.eps));
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
      if (shape.batches == 4) {
        EXPECT_EQ(want, static_cast<double>(ExactRank(input, probe)))
            << "k " << shape.k << " probe " << probe;
      }
    }
  }
}

// The run ladder's work at the tree shape (24 x 64Ki Zipf keys, seed 3;
// rounds 19 and 20 build trees of height 6), read from counters that
// touch no RNG and no meter: about 1.1 values per arrival in pair merges
// plus 1.7 in merged windows when this test was written. Pair merges
// write into the older run's own buffer, so only appends take pooled
// buffers. A change that raises the merge volume or brings back a merge
// buffer per pair merge fails here, not only in the wall clock.
TEST(RandomizedRankTest, LadderWorkAtTheTreeShape) {
  const size_t kBatch = size_t{1} << 16;
  const size_t batches = 24;
  const size_t n = kBatch * batches;
  auto input = BenchInput(kTreeK, n, kTreeZipf);
  RandomizedRankTracker tracker(BenchOptions(kTreeK, kTreeEps));
  for (size_t b = 0; b < batches; ++b) {
    tracker.ArriveBatch(input.data() + b * kBatch, kBatch);
  }
  const summaries::LadderWork work = tracker.ladder_work();
  ASSERT_EQ(tracker.height(), 6);
  ASSERT_FALSE(tracker.site(0).round().forward);
  EXPECT_GT(work.pair_merges, 0u);
  EXPECT_GT(work.window_values, 0u);
  EXPECT_LE(work.merged_values(), 3 * static_cast<uint64_t>(n));
  EXPECT_LE(work.pool_takes, work.runs_appended);
}

// The forward rule reads only the round's geometry, so the batched feed
// and the exact-feed oracle (use_batch_compaction = false) forward the
// same rounds and complete and ship the same nodes of the same trees.
TEST(RandomizedRankTest, BothFeedsShipTheSameNodes) {
  const size_t n = size_t{1} << 20;
  auto input = BenchInput(kTreeK, n, kTreeZipf);
  RandomizedRankOptions exact_options = BenchOptions(kTreeK, kTreeEps);
  exact_options.use_batch_compaction = false;
  RandomizedRankTracker batched(BenchOptions(kTreeK, kTreeEps));
  RandomizedRankTracker exact(exact_options);
  for (size_t pos = 0; pos < n; pos += 4096) {
    batched.ArriveBatch(input.data() + pos, 4096);
    exact.ArriveBatch(input.data() + pos, 4096);
  }
  ASSERT_FALSE(batched.site(0).round().forward);
  const NodeCounts a = batched.node_counts();
  const NodeCounts b = exact.node_counts();
  ASSERT_EQ(a.size(), b.size());
  uint64_t above_leaves = 0;
  for (size_t l = 0; l < a.size(); ++l) {
    EXPECT_EQ(a[l], b[l]) << "level " << l;
    if (l > 0) above_leaves += a[l];
  }
  EXPECT_GT(above_leaves, 0u);
}

// The paper words of the rank channel's frames (forwards, node summaries,
// tail samples): the tracker's words less the coarse channel's.
struct RankWordTap : sim::wire::WireTap {
  void OnMessage(sim::wire::Message&& msg) override {
    if (msg.type == sim::wire::MsgType::kRankForward ||
        msg.type == sim::wire::MsgType::kRankSummary ||
        msg.type == sim::wire::MsgType::kRankResidual) {
      words += std::max<uint64_t>(1, msg.paper_words);
    }
  }
  uint64_t words = 0;
};

// A round forwards whenever its tree would send a word per arrival or
// more, so no shape sends more than its stream. Checked after every
// batch; the batches double from 16k arrivals up to 64Ki and are 64Ki
// long from there, so the early stretch is checked too. The rank
// channel stays within n throughout. The coarse channel's O(k log n)
// words come on top, up to 1.9 n at n = 16k, so the tracker's total is
// held to 1.1 n from n = 256k on. While every round so far has
// forwarded, the estimate is the exact rank.
TEST(RandomizedRankTest, NeverShipsMoreThanItsStream) {
  const size_t kBatch = size_t{1} << 16;
  const size_t n = size_t{1} << 20;
  const uint64_t probes[] = {1, 1 << 10, 1 << 16, 1 << 19, 1 << 20};
  for (int k : {4, 32, 64}) {
    auto input = BenchInput(k, n, 0.0);
    for (double eps : {0.01, 5e-4}) {
      SCOPED_TRACE(::testing::Message() << "k " << k << " eps " << eps);
      RandomizedRankTracker tracker(BenchOptions(k, eps));
      RankWordTap tap;
      tracker.set_wire_tap(&tap);
      std::vector<uint64_t> below(std::size(probes), 0);
      bool all_forward = true;
      size_t seen = 0;
      for (size_t end = 16 * static_cast<size_t>(k); seen < n;
           end = std::min(2 * end, seen + kBatch)) {
        tracker.ArriveBatch(input.data() + seen, end - seen);
        for (; seen < end; ++seen) {
          for (size_t q = 0; q < below.size(); ++q) {
            below[q] += input[seen].key < probes[q];
          }
        }
        EXPECT_LE(tap.words, seen) << "n " << seen;
        if (seen >= 256 * static_cast<size_t>(k)) {
          EXPECT_LE(static_cast<double>(tracker.meter().TotalWords()),
                    1.1 * static_cast<double>(seen))
              << "n " << seen;
        }
        // At these shapes a round forwards iff n̄ is below a threshold,
        // so the round at each batch end stands for the rounds inside
        // the batch (at ε = 0.5 a height change can bring a forward
        // round back).
        all_forward = all_forward && tracker.site(0).round().forward;
        if (!all_forward) continue;
        for (size_t q = 0; q < below.size(); ++q) {
          EXPECT_EQ(tracker.EstimateRank(probes[q]),
                    static_cast<double>(below[q]))
              << "n " << seen << " probe " << probes[q];
        }
      }
    }
  }
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
