// Tests for rank::RankAggregate, the coordinator half of the §4 rank
// tracker (cover stacks for open instances, one merged run per finished
// instance, one folded run of forwarded values).
//
// The reference oracle below is the estimator the tracker and its replica
// used before the aggregate: every shipped summary of every instance is
// kept, rank(x) takes the greedy maximal dyadic cover of each instance's
// completed leaves (the longest summary starting at the cursor) plus its
// live tail samples at the 1/p of the instance's round, summed in double
// site by site, instance by instance; an instance is one site's frames of
// one round and closes on the summary ending at its chunk's last leaf;
// forwarded values are kept as a plain list and counted one by one.
// Frames are filed under the round they name, which may be older than
// the current one. It is kept here, test-only, as the single reference
// for the §4 estimator. The aggregate's integer part must equal the
// oracle's exactly and its total must agree to 1e-12 relative; hosts of
// the aggregate must agree with each other bit for bit.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/count/coarse_tracker.h"
#include "disttrack/rank/randomized_rank.h"
#include "disttrack/rank/rank_aggregate.h"
#include "disttrack/sim/replica.h"
#include "disttrack/sim/wire.h"
#include "disttrack/stream/workload.h"

namespace disttrack {
namespace rank {
namespace {

using sim::wire::Message;
using sim::wire::MsgType;
using Segment = RankAggregate::Segment;

// A round of the aggregate's: the parameters it reads.
RoundParams Round(double inv_p, uint32_t num_leaves, bool forward) {
  RoundParams round;
  round.inv_p = inv_p;
  round.num_leaves = num_leaves;
  round.forward = forward;
  return round;
}

class ReferenceRankAggregate {
 public:
  explicit ReferenceRankAggregate(int num_sites)
      : sites_(static_cast<size_t>(num_sites)) {}

  void BeginRound(const RoundParams& round) {
    rounds_.emplace_back(round.inv_p, round.num_leaves);
  }

  void Summary(int site_id, uint64_t round, uint64_t first_leaf,
               uint64_t end_leaf, const std::vector<uint64_t>& values,
               const std::vector<Segment>& segments) {
    Site& site = sites_[static_cast<size_t>(site_id)];
    Instance& inst = Open(&site, round);
    inst.summaries.push_back(Stored{first_leaf, end_leaf, values, segments});
    while (inst.residual_begin < inst.residuals.size() &&
           inst.residuals[inst.residual_begin].first < end_leaf) {
      ++inst.residual_begin;
    }
    if (end_leaf == rounds_[round].second) site.open = false;  // chunk done
  }

  void Residual(int site_id, uint64_t round, uint64_t leaf, uint64_t value) {
    Open(&sites_[static_cast<size_t>(site_id)], round)
        .residuals.emplace_back(leaf, value);
  }

  void Forward(uint64_t /*round*/, uint64_t value) {
    forwarded_.push_back(value);
  }

  double Estimate(uint64_t x) const { return Walk(x, nullptr); }

  uint64_t SummaryWeightBelow(uint64_t x) const {
    uint64_t exact = 0;
    Walk(x, &exact);
    return exact;
  }

 private:
  struct Stored {
    uint64_t first_leaf;
    uint64_t end_leaf;
    std::vector<uint64_t> values;
    std::vector<Segment> segments;
  };
  struct Instance {
    std::vector<Stored> summaries;
    std::vector<std::pair<uint64_t, uint64_t>> residuals;  // (leaf, value)
    size_t residual_begin = 0;
    double inv_p = 1.0;
  };
  struct Site {
    std::deque<Instance> instances;
    bool open = false;
    uint64_t round = 0;  // the open instance's
  };

  Instance& Open(Site* site, uint64_t round) {
    if (!site->open || site->round != round) {
      site->instances.emplace_back();
      site->instances.back().inv_p = rounds_[round].first;
      site->open = true;
      site->round = round;
    }
    return site->instances.back();
  }

  static uint64_t SummaryRankBelow(const Stored& summary, uint64_t x) {
    uint64_t below = 0;
    uint32_t begin = 0;
    for (const auto& [weight, end] : summary.segments) {
      auto first = summary.values.begin() + begin;
      auto last = summary.values.begin() + end;
      below += weight * static_cast<uint64_t>(
                            std::lower_bound(first, last, x) - first);
      begin = end;
    }
    return below;
  }

  double Walk(uint64_t x, uint64_t* exact) const {
    double est = 0;
    for (uint64_t value : forwarded_) {
      if (value >= x) continue;
      if (exact != nullptr) ++*exact;
      est += 1;
    }
    for (const Site& site : sites_) {
      for (const Instance& data : site.instances) {
        uint64_t cursor = 0;
        for (;;) {
          const Stored* best = nullptr;
          for (const Stored& stored : data.summaries) {
            if (stored.first_leaf == cursor &&
                (best == nullptr || stored.end_leaf > best->end_leaf)) {
              best = &stored;
            }
          }
          if (best == nullptr) break;
          uint64_t below = SummaryRankBelow(*best, x);
          if (exact != nullptr) *exact += below;
          est += static_cast<double>(below);
          cursor = best->end_leaf;
        }
        uint64_t below = 0;
        for (size_t i = data.residual_begin; i < data.residuals.size(); ++i) {
          if (data.residuals[i].second < x) ++below;
        }
        est += static_cast<double>(below) * data.inv_p;
      }
    }
    return est;
  }

  std::vector<Site> sites_;
  std::vector<uint64_t> forwarded_;
  // (1/p, leaves per chunk) by round, from round 0.
  std::vector<std::pair<double, uint32_t>> rounds_ = {{1.0, 1}};
};

// Applies a tracker frame to an aggregate (or the oracle), deriving round
// changes from coarse reports the way sim::RankReplica does.
template <typename Aggregate>
void ApplyFrame(const RandomizedRankOptions& options,
                count::CoarseMirror* coarse, Aggregate* agg,
                const Message& msg) {
  switch (msg.type) {
    case MsgType::kCoarseReport:
      if (coarse->ApplyReport(msg.a)) {
        agg->BeginRound(options.RoundParamsFor(coarse->n_bar));
      }
      break;
    case MsgType::kRankForward:
      agg->Forward(msg.epoch, msg.a);
      break;
    case MsgType::kRankSummary:
      agg->Summary(msg.site, msg.epoch, msg.a, msg.b, msg.values,
                   msg.segments);
      break;
    case MsgType::kRankResidual:
      agg->Residual(msg.site, msg.epoch, msg.a, msg.b);
      break;
    default:
      break;
  }
}

// RankAggregate behind the oracle's signatures; every frame a tracker
// ships must be accepted.
class CheckedAggregate : public RankAggregate {
 public:
  using RankAggregate::RankAggregate;
  void Residual(int site, uint64_t round, uint64_t leaf, uint64_t value) {
    ASSERT_TRUE(RankAggregate::Residual(site, round, leaf, value))
        << "refused a tracker tail sample";
  }
  void Forward(uint64_t round, uint64_t value) {
    ASSERT_TRUE(RankAggregate::Forwards(round, &value, 1))
        << "refused a tracker forward";
  }
  void Summary(int site, uint64_t round, uint64_t first_leaf,
               uint64_t end_leaf, const std::vector<uint64_t>& values,
               const std::vector<Segment>& segments) {
    ASSERT_TRUE(RankAggregate::Summary(site, round, first_leaf, end_leaf,
                                       values.data(), values.size(),
                                       segments.data(), segments.size()))
        << "refused a tracker summary of leaves [" << first_leaf << ", "
        << end_leaf << ")";
  }
};

class FrameLog : public sim::wire::WireTap {
 public:
  void OnMessage(Message&& msg) override { frames.push_back(std::move(msg)); }
  std::vector<Message> frames;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void ExpectMatchesOracle(const RankAggregate& agg,
                         const ReferenceRankAggregate& oracle, uint64_t x) {
  EXPECT_EQ(agg.SummaryWeightBelow(x), oracle.SummaryWeightBelow(x))
      << "x " << x;
  double want = oracle.Estimate(x);
  EXPECT_NEAR(agg.Estimate(x), want, 1e-12 * std::max(1.0, std::fabs(want)))
      << "x " << x;
}

struct Scenario {
  const char* name;
  int k;
  double epsilon;
  double confidence;
  uint64_t n;
  uint64_t seed;
};

// k ∈ {1, 7, 64}. Leaf counts per chunk are mostly not powers of two; the
// last scenario runs every round at height 0 (ε√k ≥ c: one leaf per
// chunk).
const Scenario kScenarios[] = {
    {"k1", 1, 0.05, 4.0, 60000, 11},
    {"k7", 7, 0.05, 4.0, 60000, 12},
    {"k7_boosted", 7, 0.02, 2.0, 80000, 13},
    {"k64", 64, 0.02, 4.0, 120000, 14},
    {"k64_height0", 64, 0.5, 1.0, 30000, 15},
};

constexpr int kUniverseBits = 16;

std::vector<uint64_t> Queries(Rng* rng) {
  std::vector<uint64_t> xs = {0, 1, uint64_t{1} << kUniverseBits};
  for (int i = 0; i < 6; ++i) {
    xs.push_back(rng->UniformU64(uint64_t{1} << kUniverseBits));
  }
  return xs;
}

// What the frame stream exercised: instances cut short by a round change
// (with a summary, or residual-only), rounds at height 0 with leaves
// longer than one arrival, and forward rounds.
struct Coverage {
  int cut_with_summary = 0;
  int cut_residual_only = 0;
  int height0_rounds = 0;
  int forwards = 0;
};

Coverage Inspect(const RandomizedRankOptions& options,
                 const std::vector<Message>& frames) {
  Coverage cov;
  count::CoarseMirror coarse;
  RoundParams round;
  std::vector<int> summaries(static_cast<size_t>(options.num_sites), 0);
  std::vector<int> residuals(static_cast<size_t>(options.num_sites), 0);
  for (const Message& msg : frames) {
    size_t site = static_cast<size_t>(msg.site);
    if (msg.type == MsgType::kCoarseReport && coarse.ApplyReport(msg.a)) {
      for (size_t s = 0; s < summaries.size(); ++s) {
        if (summaries[s] > 0) ++cov.cut_with_summary;
        if (summaries[s] == 0 && residuals[s] > 0) ++cov.cut_residual_only;
        summaries[s] = residuals[s] = 0;
      }
      round = options.RoundParamsFor(coarse.n_bar);
      if (round.height == 0 && round.block_size > 1) ++cov.height0_rounds;
    } else if (msg.type == MsgType::kRankSummary) {
      ++summaries[site];
      if (msg.b == round.num_leaves) summaries[site] = residuals[site] = 0;
    } else if (msg.type == MsgType::kRankResidual) {
      ++residuals[site];
    } else if (msg.type == MsgType::kRankForward) {
      ++cov.forwards;
    }
  }
  return cov;
}

TEST(RankAggregateTest, MatchesTheGreedyCoverOracleOnTrackerFrames) {
  Coverage total;
  for (const Scenario& sc : kScenarios) {
    // Fed one arrival at a time, as the fault harness and the service sites
    // do, and in batches: a batch feeds the other sites' buffered runs
    // before a report that broadcasts, so their frames precede it too.
    for (bool batch : {false, true}) {
      SCOPED_TRACE(::testing::Message() << sc.name << " batch=" << batch);
      RandomizedRankOptions options;
      options.num_sites = sc.k;
      options.epsilon = sc.epsilon;
      options.confidence_factor = sc.confidence;
      options.seed = sc.seed;
      RandomizedRankTracker tracker(options);
      FrameLog log;
      tracker.set_wire_tap(&log);
      sim::RankReplica replica(options);
      CheckedAggregate agg(sc.k);
      ReferenceRankAggregate oracle(sc.k);
      count::CoarseMirror agg_coarse, oracle_coarse;
      auto workload = stream::MakeRankWorkload(
          sc.k, sc.n, stream::SiteSchedule::kUniformRandom,
          stream::ValueOrder::kUniformRandom, kUniverseBits, sc.seed);
      Rng rng(sc.seed);
      std::vector<uint64_t> xs = Queries(&rng);
      size_t pos = 0, applied = 0;
      while (pos < workload.size()) {
        // Ragged spans, so checkpoints land mid-leaf and mid-chunk.
        size_t end = std::min<size_t>(pos + 1 + rng.UniformU64(3000),
                                      workload.size());
        if (batch) {
          tracker.ArriveBatch(workload.data() + pos, end - pos);
          pos = end;
        }
        for (; pos < end; ++pos) {
          tracker.Arrive(workload[pos].site, workload[pos].key);
        }
        for (; applied < log.frames.size(); ++applied) {
          const Message& msg = log.frames[applied];
          replica.Apply(msg);
          ApplyFrame(options, &agg_coarse, &agg, msg);
          ApplyFrame(options, &oracle_coarse, &oracle, msg);
        }
        for (uint64_t x : xs) {
          ExpectMatchesOracle(agg, oracle, x);
          double est = tracker.EstimateRank(x);
          EXPECT_TRUE(SameBits(replica.Estimate(x), est))
              << "x " << x << ": replica " << replica.Estimate(x)
              << " vs tracker " << est;
          EXPECT_TRUE(SameBits(agg.Estimate(x), est)) << "x " << x;
        }
        if (::testing::Test::HasFailure()) return;
      }
      Coverage cov = Inspect(options, log.frames);
      total.cut_with_summary += cov.cut_with_summary;
      total.cut_residual_only += cov.cut_residual_only;
      total.height0_rounds += cov.height0_rounds;
      total.forwards += cov.forwards;
    }
  }
  EXPECT_GT(total.cut_with_summary, 0) << "no round change cut a chunk";
  EXPECT_GT(total.cut_residual_only, 0) << "no residual-only instance";
  EXPECT_GT(total.height0_rounds, 0) << "no height-0 round";
  EXPECT_GT(total.forwards, 0) << "no forward round";
}

TEST(RankAggregateTest, FrameInterleavingAcrossSitesIsInvisible) {
  // Within a round, frames of different sites may arrive in any order as
  // long as each site's stay in order: the estimate must not move by a
  // bit. Rounds open at the coarse report that triggers them, which stays
  // in place.
  for (int k : {7, 64}) {
    SCOPED_TRACE(k);
    RandomizedRankOptions options;
    options.num_sites = k;
    options.epsilon = 0.02;
    options.seed = 21 + static_cast<uint64_t>(k);
    RandomizedRankTracker tracker(options);
    FrameLog log;
    tracker.set_wire_tap(&log);
    auto workload = stream::MakeRankWorkload(
        k, 100000, stream::SiteSchedule::kSkewedGeometric,
        stream::ValueOrder::kClustered, kUniverseBits, options.seed);
    for (const sim::Arrival& a : workload) tracker.Arrive(a.site, a.key);

    sim::RankReplica in_order(options);
    for (const Message& msg : log.frames) in_order.Apply(msg);

    Rng rng(options.seed);
    sim::RankReplica shuffled(options);
    count::CoarseMirror coarse;
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
    Rng queries(options.seed + 1);
    for (uint64_t x : Queries(&queries)) {
      double est = tracker.EstimateRank(x);
      EXPECT_TRUE(SameBits(in_order.Estimate(x), est)) << "x " << x;
      EXPECT_TRUE(SameBits(shuffled.Estimate(x), est)) << "x " << x;
    }
  }
}

// Hand-written frames: two sites, a tree round (round 1) of 5 leaves
// (tree height 3) at 1/p = 3 unless a test opens another round. Frames
// are of the current round unless a test names an older one.
class HandFramesTest : public ::testing::Test {
 protected:
  HandFramesTest() : agg_(2), oracle_(2) { Begin(3.0, 5, false); }

  void Begin(double inv_p, uint32_t num_leaves, bool forward) {
    const RoundParams round = Round(inv_p, num_leaves, forward);
    agg_.BeginRound(round);
    oracle_.BeginRound(round);
    ++round_;
    Check();
  }

  // Ships to both and checks the estimates after.
  void Ship(int site, uint64_t first, uint64_t end,
            std::vector<uint64_t> values, std::vector<Segment> segments) {
    ShipIn(round_, site, first, end, values, segments);
  }
  void ShipIn(uint64_t round, int site, uint64_t first, uint64_t end,
              std::vector<uint64_t> values, std::vector<Segment> segments) {
    ASSERT_TRUE(agg_.Summary(site, round, first, end, values.data(),
                             values.size(), segments.data(),
                             segments.size()));
    oracle_.Summary(site, round, first, end, values, segments);
    Check();
  }

  void Sample(int site, uint64_t leaf, uint64_t value) {
    SampleIn(round_, site, leaf, value);
  }
  void SampleIn(uint64_t round, int site, uint64_t leaf, uint64_t value) {
    ASSERT_TRUE(agg_.Residual(site, round, leaf, value));
    oracle_.Residual(site, round, leaf, value);
    Check();
  }

  void Forward(std::vector<uint64_t> values) { ForwardIn(round_, values); }
  void ForwardIn(uint64_t round, std::vector<uint64_t> values) {
    ASSERT_TRUE(agg_.Forwards(round, values.data(), values.size()));
    for (uint64_t value : values) oracle_.Forward(round, value);
    Check();
  }

  void Check() {
    for (uint64_t x = 0; x <= 12; ++x) ExpectMatchesOracle(agg_, oracle_, x);
    for (uint64_t x : wide_xs_) ExpectMatchesOracle(agg_, oracle_, x);
  }

  RankAggregate agg_;
  ReferenceRankAggregate oracle_;
  uint64_t round_ = 0;
  std::vector<uint64_t> wide_xs_;  // probes past 12, for wide values
};

TEST_F(HandFramesTest, MixedWeightCoverClosesOnTheTopNode) {
  Ship(0, 0, 1, {2, 6}, {{1, 2}});
  Sample(0, 1, 4);
  Ship(0, 1, 2, {3, 9}, {{1, 2}});
  Sample(1, 0, 8);
  Ship(0, 0, 2, {1, 4, 5, 10}, {{1, 2}, {2, 4}});
  Ship(0, 2, 3, {7}, {{2, 1}});
  Sample(0, 3, 2);
  Ship(0, 3, 4, {0, 6}, {{1, 2}});
  // The top node over all 5 leaves closes the chunk.
  Ship(0, 0, 5, {1, 6, 10}, {{1, 1}, {4, 3}});
  Sample(0, 0, 3);
}

TEST_F(HandFramesTest, ParentsSupersedeTheirChildren) {
  Ship(0, 0, 1, {5}, {{2, 1}});
  Ship(0, 1, 2, {2}, {{2, 1}});
  Ship(0, 0, 2, {2, 5}, {{2, 2}});
  Ship(0, 2, 3, {8}, {{2, 1}});
  Ship(0, 3, 4, {0}, {{2, 1}});
  Ship(0, 2, 4, {0, 8}, {{2, 2}});
  Ship(0, 0, 4, {2, 8}, {{4, 2}});
  Sample(0, 4, 3);
  Sample(0, 4, 9);
  // A round change freezes the cut-short instance with its live samples.
  Begin(5.0, 3, false);
  Sample(0, 0, 6);
  Ship(0, 0, 1, {1, 7}, {{1, 2}});
  Sample(0, 1, 1);
  Ship(1, 0, 3, {4, 10, 3}, {{1, 2}, {4, 3}});  // a whole chunk at once
  Ship(0, 1, 2, {6}, {{1, 1}});
  Ship(0, 0, 3, {2, 3, 9}, {{3, 3}});
}

TEST_F(HandFramesTest, ExactLeavesStayApartUnderAShippedParent) {
  // Two exact leaves stay two cover entries until their parent ships.
  // The [1, 3) frame, which no site sends, makes that visible: it
  // supersedes the second leaf only.
  Ship(0, 0, 1, {2, 6}, {{1, 2}});
  Ship(0, 1, 2, {3, 9}, {{1, 2}});
  Ship(0, 1, 3, {4, 7, 8}, {{1, 3}});
}

TEST_F(HandFramesTest, ForwardsCountExactlyAcrossRounds) {
  // A tree round's open instance stays counted through forward rounds.
  Ship(0, 0, 1, {4, 9}, {{2, 2}});
  Sample(0, 1, 7);
  Begin(1.0, 1, true);
  Forward({3, 3, 12, 0, 7});
  Forward({7, 3});  // repeats fold into the same distinct values
  Begin(1.0, 1, true);
  Forward({5, 12, 1});
  // Forwards stay exact, unscaled, through a tree round.
  Begin(4.0, 3, false);
  Ship(1, 0, 3, {2, 6}, {{4, 2}});
  Sample(0, 0, 8);
}

// A fold runs inside Forwards once kFoldForwards values are pending, and
// before a read; a tree round folds what is pending and releases the
// fold's buffers. Stretches that straddle the fold (1, 65535, 65537, ...)
// with probes only between some of them, across a forward round change
// and into a tree round with forwards pending, must all read as the
// oracle's plain count.
TEST_F(HandFramesTest, FoldBoundariesAndTheTreeSwitchAreInvisible) {
  constexpr size_t kFold = RankAggregate::kFoldForwards;
  Rng rng(41);
  auto stretch = [&](size_t n) {
    std::vector<uint64_t> values(n);
    for (uint64_t& v : values) v = rng.UniformU64(uint64_t{1} << 16);
    return values;
  };
  // No read between these, so only Forwards' own fold runs.
  auto unread = [&](size_t n) {
    const std::vector<uint64_t> values = stretch(n);
    ASSERT_TRUE(agg_.Forwards(round_, values.data(), n));
    for (uint64_t value : values) oracle_.Forward(round_, value);
  };
  wide_xs_ = {100, 4096, 32768, 40000, 65535, 65536};
  Ship(0, 0, 1, {4, 9}, {{2, 2}});
  Begin(1.0, 1, true);
  Forward(stretch(1));
  unread(kFold - 1);
  unread(kFold + 1);  // the fold runs at 2 * kFold pending
  Check();
  unread(kFold - 1);
  unread(1);  // fills the fold exactly
  Check();
  unread(3);
  Begin(1.0, 1, true);  // a forward round folds nothing
  unread(kFold - 3);    // the fold spans both rounds' forwards
  Check();
  unread(100);
  Begin(4.0, 3, false);  // folds the 100 and releases the buffers
  Ship(1, 0, 3, {2, 6}, {{4, 2}});
  Begin(1.0, 1, true);
  unread(kFold + 7);  // the buffers regrow
  Check();
  Begin(2.0, 1, false);  // releases them again, with nothing pending
}

// Forwards fold kFoldForwards at a time into runs merged binary-counter
// style, so a forwarded value is merged about log2(n / kFoldForwards)
// times: the merges read at most 4 values per forward on 2^20 distinct
// values in 64Ki folds, and more than 6 in 8Ki ones.
TEST(RankAggregateWork, ForwardFoldsReadAtMostFourValuesPerForward) {
  constexpr size_t kN = size_t{1} << 20;
  RankAggregate agg(1);  // round 0 forwards
  Rng rng(31);
  std::vector<uint64_t> chunk(4096);
  for (size_t sent = 0; sent < kN; sent += chunk.size()) {
    for (uint64_t& value : chunk) value = rng.NextU64();
    ASSERT_TRUE(agg.Forwards(0, chunk.data(), chunk.size()));
  }
  EXPECT_EQ(agg.SummaryWeightBelow(~uint64_t{0}), kN);
  const RankAggregate::FoldWork& work = agg.work();
  EXPECT_EQ(work.folds, kN / RankAggregate::kFoldForwards);
  // 3.44 at 64Ki folds, 6.19 at 8Ki.
  EXPECT_LE(static_cast<double>(work.merged_values) / kN, 4.0);
}

// In freerun mode a site streams on in its own round after another
// site's report opened the next one. Its frames count under the round
// they name: forwards exactly, tree frames in the same instance as the
// site's earlier ones, whose tail samples keep their round's 1/p.
TEST_F(HandFramesTest, FramesOfAnOlderRoundFileUnderTheirOwn) {
  Ship(0, 0, 1, {2, 6}, {{1, 2}});
  Sample(0, 1, 4);
  Begin(1.0, 1, true);  // round 2 forwards
  Forward({3, 9});
  ShipIn(1, 0, 1, 2, {3, 9}, {{1, 2}});
  ShipIn(1, 0, 0, 2, {1, 4, 5, 10}, {{1, 2}, {2, 4}});  // supersedes both
  SampleIn(1, 0, 2, 8);
  SampleIn(1, 1, 0, 5);
  Begin(5.0, 3, false);  // round 3 builds trees
  ForwardIn(2, {7, 0, 7});
  Ship(1, 0, 1, {2, 11}, {{1, 2}});  // closes site 1's round-1 instance
  SampleIn(1, 0, 3, 1);
  // Site 0's round-1 top node closes its instance after round 3 opened.
  ShipIn(1, 0, 0, 5, {1, 6, 10}, {{1, 1}, {4, 3}});
  Sample(0, 0, 6);
}

// The kind of a rank frame is fixed by the round it names: no site sends
// a summary or tail sample of a forward round, a forward of a tree
// round, or any frame of a round not yet opened, so the aggregate
// refuses them and nothing changes.
TEST_F(HandFramesTest, FramesOfTheWrongRoundKindAreRefused) {
  const std::vector<uint64_t> one = {2};
  const std::vector<Segment> seg = {{1, 1}};
  Ship(0, 0, 1, {4}, {{1, 1}});
  EXPECT_FALSE(agg_.Forwards(1, one.data(), 1));
  EXPECT_FALSE(agg_.Forwards(2, one.data(), 1));
  Check();
  Begin(1.0, 1, true);
  for (uint64_t round : {uint64_t{0}, uint64_t{2}}) {
    EXPECT_FALSE(agg_.Summary(0, round, 0, 1, one.data(), 1, seg.data(), 1));
    EXPECT_FALSE(agg_.Residual(0, round, 0, 2));
  }
  EXPECT_FALSE(agg_.Summary(0, 3, 0, 1, one.data(), 1, seg.data(), 1));
  EXPECT_FALSE(agg_.Residual(1, 3, 0, 2));
  EXPECT_FALSE(agg_.Forwards(3, one.data(), 1));
  Check();
  Forward({2});
  ForwardIn(0, {5});
  ShipIn(1, 0, 1, 2, {3}, {{1, 1}});
}

TEST_F(HandFramesTest, ResidualOnlyInstancesSurviveARoundChange) {
  Sample(0, 0, 4);
  Sample(0, 0, 1);
  Sample(1, 2, 7);
  Begin(7.5, 1, false);
  Sample(0, 0, 3);
  Ship(0, 0, 1, {2, 5}, {{1, 2}});  // height 0: one leaf closes the chunk
  Sample(0, 0, 9);
}

TEST(RankAggregateRefusals, MalformedSummariesChangeNothing) {
  const uint64_t two52 = uint64_t{1} << 52;
  struct Case {
    const char* what;
    uint64_t first, end;
    std::vector<uint64_t> values;
    std::vector<Segment> segments;
  };
  const std::vector<Case> cases = {
      {"segment end past the values", 0, 1, {1, 2}, {{1, 3}}},
      {"decreasing segment ends", 0, 1, {1, 2, 3}, {{1, 2}, {1, 1}}},
      {"values out of order", 0, 1, {3, 2}, {{1, 2}}},
      {"values beyond the last segment", 0, 1, {1, 2}, {{1, 1}}},
      {"first_leaf == end_leaf", 1, 1, {1}, {{1, 1}}},
      {"first_leaf > end_leaf", 2, 1, {1}, {{1, 1}}},
      {"end_leaf past the leaves", 3, 5, {1}, {{1, 1}}},
      {"weight total 2^53", 1, 2, {1, 2}, {{two52, 2}}},
      {"site weight reaching 2^53", 1, 2, {1}, {{two52, 1}}},
      // A second segment may start below the first one's end (see the
      // accepted twin below), but must ascend within itself.
      {"inversion at the second segment's first pair", 0, 1,
       {5, 6, 7, 2, 1, 3, 4, 8}, {{1, 3}, {2, 8}, {4, 8}}},
      {"inversion in the second segment's middle", 0, 1,
       {5, 6, 7, 1, 2, 4, 3, 8}, {{1, 3}, {2, 8}, {4, 8}}},
      {"inversion at the second segment's last pair", 0, 1,
       {5, 6, 7, 1, 2, 3, 8, 4}, {{1, 3}, {2, 8}, {4, 8}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    RankAggregate agg(1);
    agg.BeginRound(Round(2.0, 4, false));
    const std::vector<uint64_t> base = {4};
    const std::vector<Segment> base_seg = {{two52, 1}};
    ASSERT_TRUE(agg.Summary(0, 1, 0, 1, base.data(), 1, base_seg.data(), 1));
    agg.Residual(0, 1, 1, 3);
    std::vector<double> before;
    for (uint64_t x = 0; x < 6; ++x) before.push_back(agg.Estimate(x));
    EXPECT_FALSE(agg.Summary(0, 1, c.first, c.end, c.values.data(),
                             c.values.size(), c.segments.data(),
                             c.segments.size()));
    for (uint64_t x = 0; x < 6; ++x) {
      EXPECT_TRUE(SameBits(agg.Estimate(x), before[x])) << "x " << x;
    }
    // The site still accepts well-formed frames where it left off.
    const std::vector<uint64_t> next = {2};
    const std::vector<Segment> next_seg = {{1, 1}};
    EXPECT_TRUE(
        agg.Summary(0, 1, 1, 2, next.data(), 1, next_seg.data(), 1));
  }
  // The inversion cases' well-formed twin is accepted.
  RankAggregate agg(1);
  agg.BeginRound(Round(2.0, 4, false));
  const std::vector<uint64_t> values = {5, 6, 7, 1, 2, 3, 4, 8};
  const std::vector<Segment> segments = {{1, 3}, {2, 8}, {4, 8}};
  EXPECT_TRUE(agg.Summary(0, 1, 0, 1, values.data(), values.size(),
                          segments.data(), segments.size()));
  EXPECT_EQ(agg.SummaryWeightBelow(5), 8u);  // 1, 2, 3, 4 at weight 2
}

// The per-segment exactness check at its edges: a summary may take its
// own weight to exactly 2^53 - 1, not one more, and a weight x length
// product that wraps 64 bits is refused rather than read modulo 2^64.
TEST(RankAggregateRefusals, SegmentWeightBoundaries) {
  const uint64_t limit = RankAggregate::kExactLimit;  // 2^53
  // 2^53 - 1 = 6361 * 69431 * 20394401: a segment of 6361 values with
  // weight (2^53 - 1) / 6361 lands on the limit minus one exactly.
  constexpr uint64_t kLen = 6361;
  static_assert(((uint64_t{1} << 53) - 1) % kLen == 0, "6361 | 2^53 - 1");
  const uint64_t w_odd = (limit - 1) / kLen;
  std::vector<uint64_t> values(kLen + 1);
  for (uint64_t i = 0; i <= kLen; ++i) values[i] = i;
  struct Case {
    const char* what;
    std::vector<Segment> segments;  // over `values`; weight 0 pads the rest
    bool accepted;
  };
  const uint32_t n = static_cast<uint32_t>(kLen + 1);
  const std::vector<Case> cases = {
      // No weight before the segment: headroom 2^53 - 1.
      {"w x len = 2^53 - 1", {{w_odd, n - 1}, {0, n}}, true},
      {"w x len = 2^53", {{limit / 2, 2}, {0, n}}, false},
      // One unit of weight before it: headroom 2^53 - 2.
      {"1 + w x len = 2^53 - 1", {{1, 1}, {limit / 2 - 1, 3}, {0, n}}, true},
      {"1 + w x len = 2^53", {{1, 1}, {w_odd, n}}, false},
      {"w x len wraps 64 bits", {{uint64_t{1} << 63, 2}, {0, n}}, false},
      {"empty segment of any weight", {{1, 1}, {~uint64_t{0}, 1}, {1, n}},
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    RankAggregate agg(1);
    agg.BeginRound(Round(2.0, 4, false));
    EXPECT_EQ(agg.Summary(0, 1, 0, 1, values.data(), values.size(),
                          c.segments.data(), c.segments.size()),
              c.accepted);
  }
}

}  // namespace
}  // namespace rank
}  // namespace disttrack
