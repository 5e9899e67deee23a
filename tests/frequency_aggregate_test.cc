// Tests for frequency::FrequencyAggregate, the coordinator half of the
// §3.1 frequency tracker (exact integer running totals per item).
//
// The reference oracle below is the per-instance double-sum estimator the
// tracker and its replica used before the integer aggregate: per round and
// item, a list of (instance, c̄, d) kept sorted by instance id and summed
// in double at a fold. It is kept here, test-only, as the single reference
// for estimator (4). Randomized message streams go to both, and every
// estimate must match to the bit.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "disttrack/common/random.h"
#include "disttrack/frequency/frequency_aggregate.h"

namespace disttrack {
namespace frequency {
namespace {

using Message = FrequencyAggregate::Message;

class ReferenceAggregate {
 public:
  explicit ReferenceAggregate(bool naive) : naive_(naive) {}

  void BeginRound(uint64_t inv_p) {
    for (const auto& [item, instances] : live_) {
      double est = LiveEstimate(instances);
      if (est != 0.0) frozen_[item] += est;
    }
    live_.clear();
    inv_p_ = inv_p;
  }

  void Apply(const Message& m) {
    InstanceAgg& agg = ForInstance(&live_[m.item], m.instance);
    if (m.value > 0) {
      agg.cbar = m.value;
    } else if (agg.cbar == 0) {
      agg.d += 1;
    }
  }

  double Estimate(uint64_t item) const {
    double est = 0;
    auto frozen = frozen_.find(item);
    if (frozen != frozen_.end()) est += frozen->second;
    auto live = live_.find(item);
    if (live != live_.end()) est += LiveEstimate(live->second);
    return est;
  }

 private:
  struct InstanceAgg {
    uint64_t instance = 0;
    uint64_t cbar = 0;  // 0 = no counter report yet
    uint64_t d = 0;
  };

  static InstanceAgg& ForInstance(std::vector<InstanceAgg>* instances,
                                  uint64_t instance) {
    auto it = std::lower_bound(
        instances->begin(), instances->end(), instance,
        [](const InstanceAgg& a, uint64_t id) { return a.instance < id; });
    if (it == instances->end() || it->instance != instance) {
      it = instances->insert(it, InstanceAgg{instance, 0, 0});
    }
    return *it;
  }

  double LiveEstimate(const std::vector<InstanceAgg>& instances) const {
    double inv_p = static_cast<double>(inv_p_);
    double est = 0;
    for (const InstanceAgg& inst : instances) {
      if (inst.cbar > 0) {
        est += static_cast<double>(inst.cbar) - 2.0 + 2.0 * inv_p;
      } else if (!naive_) {
        est -= static_cast<double>(inst.d) * inv_p;
      }
    }
    return est;
  }

  bool naive_;
  uint64_t inv_p_ = 1;
  std::map<uint64_t, std::vector<InstanceAgg>> live_;
  std::map<uint64_t, double> frozen_;
};

// The one-message entry points (the batch path is ApplyBatch).
// False if the aggregate refused the message.
bool Feed(FrequencyAggregate* agg, const Message& m) {
  return m.value == 0 ? agg->Sample(m.item, m.instance)
                      : agg->CounterReport(m.item, m.instance, m.value);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// One round's messages as per-pair scripts: sampled copies, then (maybe)
// a counter report, then more reports with rising values and more copies
// (which the estimator ignores once the counter exists).
std::vector<std::vector<Message>> RoundScripts(
    Rng* rng, const std::vector<uint64_t>& items, uint64_t round) {
  std::vector<std::vector<Message>> scripts;
  for (uint64_t site = 0; site < 4; ++site) {
    uint64_t virtual_sites = 1 + rng->UniformU64(3);
    for (uint64_t seq = 0; seq < virtual_sites; ++seq) {
      uint64_t instance = (site << 32) | (round * 8 + seq);
      // Distinct items per instance: one script per (item, instance).
      std::vector<uint64_t> pool = items;
      for (size_t p = 0; p < 12; ++p) {
        std::swap(pool[p], pool[p + rng->UniformU64(pool.size() - p)]);
        uint64_t item = pool[p];
        std::vector<Message> script;
        uint64_t samples = rng->UniformU64(4);
        for (uint64_t s = 0; s < samples; ++s) {
          script.push_back({item, instance, 0});
        }
        if (rng->Bernoulli(0.7)) {
          uint64_t value = 1 + rng->UniformU64(5);
          uint64_t reports = 1 + rng->UniformU64(4);
          for (uint64_t r = 0; r < reports; ++r) {
            script.push_back({item, instance, value});
            value += 1 + rng->UniformU64(3);
            if (rng->Bernoulli(0.5)) script.push_back({item, instance, 0});
          }
        }
        scripts.push_back(std::move(script));
      }
    }
  }
  return scripts;
}

// The scripts concatenated pair by pair, and one random interleaving that
// keeps each pair's own order (as per-site FIFO delivery does).
std::vector<Message> Concatenated(
    const std::vector<std::vector<Message>>& scripts) {
  std::vector<Message> out;
  for (const auto& script : scripts) {
    out.insert(out.end(), script.begin(), script.end());
  }
  return out;
}

std::vector<Message> Interleaved(
    const std::vector<std::vector<Message>>& scripts, Rng* rng) {
  std::vector<size_t> next(scripts.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < scripts.size(); ++i) {
    if (!scripts[i].empty()) open.push_back(i);
  }
  std::vector<Message> out;
  while (!open.empty()) {
    size_t pick = rng->UniformU64(open.size());
    size_t s = open[pick];
    out.push_back(scripts[s][next[s]++]);
    if (next[s] == scripts[s].size()) {
      open[pick] = open.back();
      open.pop_back();
    }
  }
  return out;
}

void ExpectBitEqual(const ReferenceAggregate& ref,
                    const FrequencyAggregate& agg,
                    const std::vector<uint64_t>& items) {
  for (uint64_t item : items) {
    double want = ref.Estimate(item);
    double got = agg.Estimate(item);
    ASSERT_TRUE(SameBits(want, got))
        << "item " << item << ": reference " << want << ", aggregate " << got;
  }
}

TEST(FrequencyAggregateTest, RandomStreamsBitEqualToReference) {
  for (bool naive : {false, true}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 7919 + (naive ? 1 : 0));
      std::vector<uint64_t> items = {0, ~uint64_t{0}, 1ull << 63};
      for (uint64_t i = 1; i < 40; ++i) items.push_back(i);
      for (int i = 0; i < 20; ++i) items.push_back(rng.NextU64());
      ReferenceAggregate ref(naive);
      FrequencyAggregate one_by_one(naive), batched(naive);
      uint64_t inv_p = 1;
      for (uint64_t round = 0; round < 10; ++round) {
        if (round > 0) {
          // 1/p never shrinks; some rounds keep it.
          inv_p <<= rng.UniformU64(3);
          ref.BeginRound(inv_p);
          ASSERT_TRUE(one_by_one.BeginRound(inv_p));
          ASSERT_TRUE(batched.BeginRound(inv_p));
        }
        auto scripts = RoundScripts(&rng, items, round);
        for (const Message& m : Concatenated(scripts)) ref.Apply(m);
        for (const Message& m : Interleaved(scripts, &rng)) {
          ASSERT_TRUE(Feed(&one_by_one, m));
        }
        std::vector<Message> shuffled = Interleaved(scripts, &rng);
        batched.ApplyBatch(shuffled.data(), shuffled.size());
        ExpectBitEqual(ref, one_by_one, items);
        ExpectBitEqual(ref, batched, items);
      }
    }
  }
}

TEST(FrequencyAggregateTest, CounterReportSupersedesSamples) {
  for (bool naive : {false, true}) {
    ReferenceAggregate ref(naive);
    FrequencyAggregate agg(naive);
    ref.BeginRound(8);
    ASSERT_TRUE(agg.BeginRound(8));
    const uint64_t instance = (uint64_t{3} << 32) | 5;
    std::vector<Message> stream = {{42, instance, 0}, {42, instance, 0},
                                   {42, instance, 0}, {42, instance, 4},
                                   {42, instance, 0}, {42, instance, 9},
                                   {42, instance, 9 + 1}};
    for (const Message& m : stream) {
      ref.Apply(m);
      ASSERT_TRUE(Feed(&agg, m));
      ExpectBitEqual(ref, agg, {42});
    }
    // c̄ - 2 + 2/p for the last report; the three early copies no longer
    // count, and neither does the copy after the first report.
    EXPECT_EQ(agg.Estimate(42), 10.0 - 2.0 + 16.0);
  }
}

TEST(FrequencyAggregateTest, RoundClearKeepsTotalsAndForgetsPairs) {
  ReferenceAggregate ref(false);
  FrequencyAggregate agg(false);
  const uint64_t instance = 7;
  for (const Message& m : {Message{1, instance, 0}, Message{2, instance, 3}}) {
    ref.Apply(m);
    ASSERT_TRUE(Feed(&agg, m));
  }
  ref.BeginRound(4);
  ASSERT_TRUE(agg.BeginRound(4));
  EXPECT_EQ(agg.ItemEstimates().size(), 2u);
  ExpectBitEqual(ref, agg, {1, 2});
  // The same (item, instance) in the new round starts from no counter:
  // its copies count again, at the new p.
  for (const Message& m : {Message{2, instance, 0}, Message{1, instance, 0}}) {
    ref.Apply(m);
    ASSERT_TRUE(Feed(&agg, m));
  }
  ExpectBitEqual(ref, agg, {1, 2, 3});
  EXPECT_EQ(agg.Estimate(1), -1.0 - 4.0);
  EXPECT_EQ(agg.Estimate(2), 3.0 - 4.0);
  EXPECT_EQ(agg.Estimate(3), 0.0);
}

TEST(FrequencyAggregateTest, ItemEstimatesListsEveryNamedItemSorted) {
  FrequencyAggregate agg(false);
  Rng rng(5);
  std::vector<uint64_t> named;
  std::vector<Message> stream;
  for (int i = 0; i < 3000; ++i) {
    uint64_t item = rng.UniformU64(1000) * 0x10001;
    uint64_t instance = rng.UniformU64(6);
    uint64_t value = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformU64(9);
    stream.push_back({item, instance, value});
    named.push_back(item);
  }
  agg.ApplyBatch(stream.data(), stream.size());
  std::sort(named.begin(), named.end());
  named.erase(std::unique(named.begin(), named.end()), named.end());
  auto listed = agg.ItemEstimates();
  ASSERT_EQ(listed.size(), named.size());
  for (size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(listed[i].first, named[i]);
    EXPECT_TRUE(SameBits(listed[i].second, agg.Estimate(named[i])));
  }
  EXPECT_EQ(agg.Estimate(12345), 0.0);  // never named

  // A named item whose estimate is exactly 0 is still listed (what a
  // heavy-hitters query with phi <= 0 returns).
  FrequencyAggregate naive(true);
  ASSERT_TRUE(naive.Sample(9, 1));
  auto zero = naive.ItemEstimates();
  ASSERT_EQ(zero.size(), 1u);
  EXPECT_EQ(zero[0].first, 9u);
  EXPECT_TRUE(SameBits(zero[0].second, 0.0));
}

TEST(FrequencyAggregateTest, RefusesMessagesThatLeaveExactDoubles) {
  const uint64_t limit = uint64_t{1} << 53;
  for (bool naive : {false, true}) {
    SCOPED_TRACE(naive ? "naive" : "estimator (4)");
    FrequencyAggregate agg(naive);
    EXPECT_FALSE(agg.CounterReport(1, 1, limit));
    EXPECT_FALSE(agg.BeginRound(limit / 2));
    ASSERT_TRUE(agg.CounterReport(1, 1, limit - 1));
    EXPECT_FALSE(agg.CounterReport(1, 2, 2));  // total would reach 2^53
    ASSERT_TRUE(agg.CounterReport(1, 1, 5));  // its own pair still applies
    EXPECT_EQ(agg.Estimate(1), 5.0);
    // A refused message names no item.
    EXPECT_FALSE(agg.CounterReport(2, 1, limit));
    EXPECT_EQ(agg.ItemEstimates().size(), 1u);
  }
  // Estimator (4) charges -1/p per sampled copy, and d/p on the report.
  FrequencyAggregate agg(false);
  ASSERT_TRUE(agg.BeginRound(limit / 4));  // 1/p = 2^51
  ASSERT_TRUE(agg.Sample(1, 1));
  ASSERT_TRUE(agg.Sample(1, 2));
  ASSERT_TRUE(agg.Sample(1, 3));
  EXPECT_FALSE(agg.Sample(1, 4));  // the total would reach -2^53
  EXPECT_EQ(agg.Estimate(1), -3.0 * static_cast<double>(limit / 4));
  // Item 2: a report (+1 + 2/p - 2) lets four copies of another pair in,
  // so its d/p reaches 2^53 while the total stays in range.
  ASSERT_TRUE(agg.CounterReport(2, 9, 1));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(agg.Sample(2, 1));
  const double before = -static_cast<double>(limit / 2) - 1.0;
  EXPECT_EQ(agg.Estimate(2), before);
  EXPECT_FALSE(agg.CounterReport(2, 1, 1));  // the term d/p = 2^53
  EXPECT_EQ(agg.Estimate(2), before);
  ASSERT_TRUE(agg.Sample(2, 1));  // the refused report left it uncounted
  EXPECT_EQ(agg.Estimate(2), before - static_cast<double>(limit / 4));
}

TEST(FrequencyAggregateDeathTest, ApplyBatchAbortsOnARefusedMessage) {
  const Message bad{1, 1, uint64_t{1} << 53};
  EXPECT_DEATH(
      {
        FrequencyAggregate agg(false);
        agg.ApplyBatch(&bad, 1);
      },
      "exactness");
}

}  // namespace
}  // namespace frequency
}  // namespace disttrack
